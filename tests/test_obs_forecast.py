"""Tests for the forecast engine and predictive SLO breach alerts."""

import json

import pytest

from repro.obs import (ForecastEngine, BreachPredictor, SignalBus,
                       TOPIC_FORECAST, TOPIC_PREDICTED_BREACH,
                       TimeSeriesStore, make_model, score_predictions)
from repro.obs.alerts import AlertLog
from repro.obs.slo import default_latency_slo


# ------------------------------------------------------------- make_model

def test_make_model_by_name():
    from repro.forecasting import (EwmaForecaster, HoltForecaster,
                                   HoltWintersForecaster)
    assert isinstance(make_model("ewma"), EwmaForecaster)
    assert isinstance(make_model("holt"), HoltForecaster)
    assert isinstance(make_model("holt-winters", season_length=6),
                      HoltWintersForecaster)


def test_make_model_validation():
    with pytest.raises(ValueError):
        make_model("arima")
    with pytest.raises(ValueError):
        make_model("holt-winters", season_length=1)


# -------------------------------------------------------- forecast engine

def drive(store, engine, values, name, kind="gauge", start=0.0, **labels):
    now = start
    for value in values:
        store.record(name, now, value, **labels)
        engine.sample(now)
        now += 1.0
    return now


def test_engine_records_forecast_series_and_publishes():
    bus = SignalBus()
    store = TimeSeriesStore()
    engine = ForecastEngine(store, bus=bus, model="holt", horizon=3,
                            targets=(("load", "gauge"),))
    drive(store, engine, [float(10 * i) for i in range(1, 8)], "load",
          cluster="west")
    forecast_series = store.series("forecast_load", cluster="west")
    assert forecast_series is not None and len(forecast_series) > 0
    # a rising ramp forecast 3 steps out must exceed the last observation
    assert forecast_series.last[1] > 70.0
    # one aggregated signal per tick that produced forecasts
    signals = bus.history(TOPIC_FORECAST)
    assert signals
    payload = signals[-1].payload
    assert payload["model"] == "holt" and payload["horizon"] == 3
    assert "load{cluster=west}" in payload["forecasts"]


def test_engine_differences_counter_targets():
    store = TimeSeriesStore()
    engine = ForecastEngine(store, targets=(("bytes_total", "counter"),))
    # cumulative counter growing 50/s: the engine should forecast the rate
    drive(store, engine, [50.0 * i for i in range(1, 12)], "bytes_total")
    backtests = engine.backtests()
    assert "bytes_total" in backtests
    assert engine.tracker.forecast(("bytes_total", ()), 1) \
        == pytest.approx(50.0, rel=0.05)


def test_engine_backtests_and_summary():
    store = TimeSeriesStore()
    engine = ForecastEngine(store, targets=(("load", "gauge"),))
    drive(store, engine, [5.0, 6.0, 7.0, 8.0], "load")
    summary = engine.summary()
    assert summary["model"] == "holt" and summary["samples"] == 4
    (sid, score), = summary["series"].items()
    assert sid == "load" and score["evaluations"] == 3


def test_engine_validation():
    with pytest.raises(ValueError):
        ForecastEngine(TimeSeriesStore(), horizon=0)


# ------------------------------------------------------- breach predictor

class _FakeRuleState:
    def __init__(self):
        self.firing = False


class _FakeSloEngine:
    def __init__(self, rules):
        self.rules = tuple(rules)
        self._states = {rule.name: _FakeRuleState() for rule in self.rules}

    def state(self, name):
        return self._states[name]


def make_predictor(horizon=10):
    rule = default_latency_slo()          # fast_burn 4.0, slow_burn 1.0
    store = TimeSeriesStore()
    alerts = AlertLog()
    engine = _FakeSloEngine([rule])
    bus = SignalBus()
    predictor = BreachPredictor(engine, store, alerts, bus=bus,
                                interval=1.0, horizon=horizon)
    return rule, store, alerts, engine, bus, predictor


def burn(store, rule, now, fast, slow):
    store.record("slo_burn_rate", now, fast, slo=rule.name, window="fast")
    store.record("slo_burn_rate", now, slow, slo=rule.name, window="slow")


def test_rising_burn_produces_prediction_then_hit():
    rule, store, alerts, _, bus, predictor = make_predictor()
    for tick, (fast, slow) in enumerate([(0.5, 0.2), (1.5, 0.5),
                                         (2.5, 0.8), (3.5, 1.1)]):
        burn(store, rule, float(tick), fast, slow)
        predictor.sample(float(tick))
    assert len(predictor.predictions) == 1
    prediction = predictor.predictions[0]
    assert prediction.outcome == "open" and prediction.active
    assert prediction.breach_eta > prediction.fired_at
    assert prediction.lead_estimate > 0
    assert bus.history(TOPIC_PREDICTED_BREACH)
    # the real alert fires two ticks later: the prediction settles as a hit
    alerts.fire(rule.name, "latency", 5.0, 4.2, 1.3)
    burn(store, rule, 5.0, 4.2, 1.3)
    predictor.sample(5.0)
    assert prediction.outcome == "hit"
    assert prediction.actual_fired_at == 5.0
    assert prediction.actual_lead == pytest.approx(5.0 - prediction.fired_at)
    score = predictor.score()
    assert score.hits == 1 and score.misses == 0
    assert score.precision == 1.0 and score.recall == 1.0
    assert score.mean_lead_seconds > 0


def test_unmatched_prediction_expires_as_miss():
    rule, store, alerts, _, _, predictor = make_predictor(horizon=5)
    for tick, (fast, slow) in enumerate([(0.5, 0.2), (1.5, 0.5),
                                         (2.5, 0.8), (3.5, 1.1)]):
        burn(store, rule, float(tick), fast, slow)
        predictor.sample(float(tick))
    (prediction,) = predictor.predictions
    # burn collapses; no alert ever fires; run the clock past the grace
    for tick in range(4, 25):
        burn(store, rule, float(tick), 0.1, 0.1)
        predictor.sample(float(tick))
    assert prediction.outcome == "miss"
    assert predictor.score().precision == 0.0


def test_no_projection_while_rule_is_firing():
    rule, store, alerts, engine, _, predictor = make_predictor()
    engine.state(rule.name).firing = True
    for tick in range(6):
        burn(store, rule, float(tick), 5.0 + tick, 2.0 + tick)
        predictor.sample(float(tick))
    assert len(predictor.predictions) == 0


def test_min_observations_gate():
    rule, store, _, _, _, predictor = make_predictor()
    burn(store, rule, 0.0, 3.9, 0.9)
    burn(store, rule, 1.0, 3.95, 0.95)
    for tick in range(2):
        predictor.sample(float(tick))
    assert len(predictor.predictions) == 0


def test_predictor_jsonl_and_validation():
    rule, store, alerts, engine, _, predictor = make_predictor()
    assert predictor.to_jsonl_lines() == [] and len(predictor) == 0
    with pytest.raises(ValueError):
        BreachPredictor(engine, store, alerts, horizon=0)


def test_score_predictions_empty_run_is_perfect():
    score = score_predictions([], AlertLog())
    assert score.precision == 1.0 and score.recall == 1.0
    assert score.predictions == 0 and score.alerts_total == 0


def test_predicted_breach_is_alert_shaped():
    """join_alerts_decisions and provenance only need the Alert duck."""
    rule, store, alerts, _, _, predictor = make_predictor()
    for tick, (fast, slow) in enumerate([(0.5, 0.2), (1.5, 0.5),
                                         (2.5, 0.8), (3.5, 1.1)]):
        burn(store, rule, float(tick), fast, slow)
        predictor.sample(float(tick))
    (prediction,) = predictor.predictions
    assert prediction.overlaps(prediction.fired_at + 0.5)
    assert not prediction.overlaps(prediction.fired_at - 0.5)
    payload = json.loads(predictor.to_jsonl_lines()[0])
    assert payload["rule"] == rule.name
    assert payload["kind"].startswith("pred-")
    assert payload["outcome"] == "open"


# ------------------------------------------------------------ end-to-end

def test_breach_predicted_before_real_alert_e2e():
    """ISSUE acceptance: on slo_burnrate a PredictedBreach precedes the
    actual alert, with a measured positive lead time."""
    from repro.experiments import scenarios as sc
    from repro.obs import Observability
    setup = sc.slo_burnrate_setup(duration=80.0, seed=42)
    obs = Observability(setup.observability(forecast=True, anomaly=True))
    setup.run(obs)
    alerts = list(obs.alerts)
    assert alerts, "scenario must fire at least one real alert"
    hits = [p for p in obs.breach.predictions if p.outcome == "hit"]
    assert hits, "the predictor must anticipate the breach"
    prediction = hits[0]
    assert prediction.fired_at < prediction.actual_fired_at
    score = obs.breach.score()
    assert score.hits >= 1 and score.mean_lead_seconds > 0
    # the forecast engine backtested real series while it ran
    assert obs.forecast.backtests()
