"""SLO engine: rules, burn-rate math, alert state machine, the join."""

from __future__ import annotations

import json

import pytest

from repro.obs import (Alert, AlertLog, Observability, SloEngine, SloRule,
                       TimeSeriesStore, default_latency_slo,
                       join_alerts_decisions)


def make_engine(*rules) -> SloEngine:
    store = TimeSeriesStore()
    return SloEngine(rules, store, AlertLog())


# ----------------------------------------------------------------- rules

def test_rule_validation():
    with pytest.raises(ValueError):
        SloRule("x", kind="throughput", threshold=1.0)
    with pytest.raises(ValueError):
        SloRule("x", kind="latency", threshold=0.0)
    with pytest.raises(ValueError):
        SloRule("x", kind="latency", threshold=0.1, budget=1.5)
    with pytest.raises(ValueError):
        SloRule("x", kind="latency", threshold=0.1,
                fast_window=30.0, slow_window=10.0)
    with pytest.raises(ValueError):
        SloRule("x", kind="latency", threshold=0.1, fast_burn=0.0)


def test_default_latency_slo_named_from_threshold():
    rule = default_latency_slo(0.25)
    assert rule.name == "latency-250ms"
    assert rule.kind == "latency" and rule.budget == 0.01
    assert default_latency_slo(0.25, budget=0.05).budget == 0.05


def test_engine_rejects_duplicate_rule_names():
    rule = default_latency_slo(0.25)
    with pytest.raises(ValueError):
        make_engine(rule, rule)


# ------------------------------------------------------------ burn rates

def test_latency_burn_rate_counts_threshold_violations():
    rule = SloRule("lat", kind="latency", threshold=0.1, budget=0.1,
                   fast_window=5.0, slow_window=10.0)
    engine = make_engine(rule)
    # 10 requests per tick, 50% over threshold → bad fraction 0.5,
    # burn = 0.5 / 0.1 = 5
    for tick in range(1, 4):
        latencies = [0.05] * 5 + [0.2] * 5
        engine.observe(float(tick), {"default": latencies})
    assert engine.burn_rate(rule, 3.0, 5.0) == pytest.approx(5.0)
    # burn series are recorded into the store, plottable and diffable
    fast = engine.store.series("slo_burn_rate", slo="lat", window="fast")
    assert fast is not None and fast.last[1] == pytest.approx(5.0)


def test_latency_burn_rate_empty_window_is_zero():
    rule = SloRule("lat", kind="latency", threshold=0.1, budget=0.1)
    engine = make_engine(rule)
    assert engine.burn_rate(rule, 100.0, 15.0) == 0.0
    engine.observe(1.0, {})                  # reservoir runs: no samples
    assert engine.burn_rate(rule, 1.0, 15.0) == 0.0


def test_latency_rule_filters_traffic_class():
    rule = SloRule("gold", kind="latency", threshold=0.1, budget=0.1,
                   traffic_class="gold")
    engine = make_engine(rule)
    engine.observe(1.0, {"gold": [0.2, 0.2], "bronze": [0.2] * 100})
    state = engine.state("gold")
    assert state.total == 2 and state.bad == 2    # bronze never counted


def test_error_rate_burn_from_counter_series():
    rule = SloRule("errors", kind="error-rate", budget=0.1,
                   fast_window=5.0, slow_window=10.0)
    engine = make_engine(rule)
    store = engine.store
    # cumulative counters: by t=10, 90 completions and 10 failures in the
    # window → error fraction 0.1 → burn 1.0
    store.record("requests_completed_total", 0.0, 0.0,
                 traffic_class="default")
    store.record("requests_failed_total", 0.0, 0.0, traffic_class="default")
    store.record("requests_completed_total", 10.0, 90.0,
                 traffic_class="default")
    store.record("requests_failed_total", 10.0, 10.0,
                 traffic_class="default")
    assert engine.burn_rate(rule, 10.0, 10.0) == pytest.approx(1.0)


def test_egress_cost_burn_is_rate_over_ceiling():
    rule = SloRule("spend", kind="egress-cost", threshold=0.5)   # $/s cap
    engine = make_engine(rule)
    engine.store.record("wan_egress_cost_dollars_total", 0.0, 0.0)
    engine.store.record("wan_egress_cost_dollars_total", 10.0, 10.0)
    # $1/s against a $0.5/s ceiling → burn 2
    assert engine.burn_rate(rule, 10.0, 10.0) == pytest.approx(2.0)


# ---------------------------------------------------------- state machine

def test_alert_fires_only_when_both_windows_burn():
    rule = SloRule("lat", kind="latency", threshold=0.1, budget=0.1,
                   fast_window=2.0, slow_window=10.0,
                   fast_burn=4.0, slow_burn=2.0)
    engine = make_engine(rule)
    # a long healthy history, then one sharp bad tick: the fast window
    # burns hard but the slow window stays diluted below its threshold
    for tick in range(1, 10):
        engine.observe(float(tick), {"default": [0.05] * 100})
    engine.observe(10.0, {"default": [0.2] * 100})
    assert engine.burn_rate(rule, 10.0, rule.fast_window) >= rule.fast_burn
    assert engine.burn_rate(rule, 10.0, rule.slow_window) < rule.slow_burn
    assert not engine.state("lat").firing
    assert len(engine.alerts) == 0
    # sustained badness blows through both windows → fires exactly once
    engine2 = make_engine(rule)
    for tick in range(1, 8):
        engine2.observe(float(tick), {"default": [0.2] * 10})
    assert engine2.state("lat").firing
    assert len(engine2.alerts) == 1
    alert = engine2.alerts.alerts[0]
    assert alert.active and alert.fired_fast_burn >= rule.fast_burn


def test_alert_resolves_when_both_windows_recover():
    rule = SloRule("lat", kind="latency", threshold=0.1, budget=0.5,
                   fast_window=2.0, slow_window=4.0,
                   fast_burn=1.5, slow_burn=1.0)
    engine = make_engine(rule)
    for tick in range(1, 5):
        engine.observe(float(tick), {"default": [0.2] * 10})   # 100% bad
    assert engine.state("lat").firing
    for tick in range(5, 12):
        engine.observe(float(tick), {"default": [0.01] * 50})  # recovery
    state = engine.state("lat")
    assert not state.firing
    alert = state.alert
    assert alert.resolved_at is not None
    assert alert.duration > 0
    assert alert.peak_burn >= rule.fast_burn
    assert alert.evaluations > 1


def test_alert_overlap_and_log_queries():
    log = AlertLog()
    alert = log.fire("lat", "latency", 10.0, 5.0, 2.0)
    assert alert.overlaps(10.0) and alert.overlaps(50.0)   # open interval
    assert not alert.overlaps(9.9)
    alert.resolved_at = 20.0
    assert alert.overlaps(20.0) and not alert.overlaps(20.1)
    assert log.active() == [] and log.resolved() == [alert]
    assert log.for_rule("lat") == [alert] and log.for_rule("other") == []
    assert log.firing_at(15.0) == [alert]
    line = json.loads(log.to_jsonl_lines()[0])
    assert line["rule"] == "lat" and line["resolved_at"] == 20.0
    assert "lat" in log.render()


def test_join_alerts_decisions_counts_replans():
    class FakeDecision:
        def __init__(self, sim_time, outcome):
            self.sim_time = sim_time
            self.outcome = outcome

    log = AlertLog()
    alert = log.fire("lat", "latency", 10.0, 5.0, 2.0)
    alert.resolved_at = 30.0
    decisions = [FakeDecision(5.0, "solved"), FakeDecision(15.0, "solved"),
                 FakeDecision(25.0, "replayed"), FakeDecision(35.0, "solved")]
    joined = join_alerts_decisions(log, decisions)
    assert len(joined) == 1
    assert [d.sim_time for d in joined[0]["decisions"]] == [15.0, 25.0]
    assert joined[0]["replans"] == 1


# --------------------------------------------- the acceptance-bar scenario

@pytest.fixture(scope="module")
def burnrate_run():
    from repro.experiments.scenarios import slo_burnrate_setup
    setup = slo_burnrate_setup(duration=130.0)
    obs = Observability(setup.observability())
    setup.run(obs)
    return setup, obs


def test_surge_produces_fired_and_resolved_alert(burnrate_run):
    """ISSUE acceptance: the diurnal/surge SLO scenario must produce at
    least one firing→resolved burn-rate alert."""
    setup, obs = burnrate_run
    resolved = obs.alerts.resolved()
    assert len(resolved) >= 1
    alert = resolved[0]
    # fired only after the surge began, resolved after the controller acted
    assert alert.fired_at >= 40.0
    assert alert.resolved_at > alert.fired_at


def test_alert_interval_overlaps_a_replan(burnrate_run):
    """ISSUE acceptance: the firing interval overlaps a Global Controller
    re-plan (a fresh ``solved`` decision) in the decision log."""
    setup, obs = burnrate_run
    joined = join_alerts_decisions(obs.alerts, obs.decisions)
    assert any(row["replans"] >= 1 for row in joined)


def test_burn_rate_series_recorded_for_the_rule(burnrate_run):
    setup, obs = burnrate_run
    rule = setup.slo_rules[0]
    fast = obs.timeseries.series("slo_burn_rate", slo=rule.name,
                                 window="fast")
    slow = obs.timeseries.series("slo_burn_rate", slo=rule.name,
                                 window="slow")
    assert fast is not None and slow is not None
    # the surge pushed the fast window far past its firing threshold
    assert max(fast.values()) >= rule.fast_burn


def test_alert_and_alert_repr_fields(burnrate_run):
    _, obs = burnrate_run
    alert = obs.alerts.alerts[0]
    assert isinstance(alert, Alert)
    payload = alert.as_dict()
    assert payload["kind"] == "latency"
    assert payload["peak_burn"] >= payload["fired_fast_burn"] > 0
