"""Predictive-pillar wiring: purity, determinism, chaos lead time."""

from __future__ import annotations

from dataclasses import replace

from repro.chaos import FaultPlan
from repro.experiments import scenarios as sc
from repro.obs import Observability


DURATION = 60.0


def _unfaulted_twin(duration):
    """The chaos-outage scenario with no faults and the guard disarmed."""
    setup = sc.chaos_outage_setup(duration=duration, seed=42,
                                  fallback="none")
    return replace(setup, plan=FaultPlan.empty())


def _slo_run(observability=None):
    setup = sc.slo_burnrate_setup(duration=DURATION, seed=42)
    obs = (Observability(setup.observability(**observability))
           if observability is not None else None)
    outcome = setup.run(obs)
    return outcome, obs


def test_predictive_pillar_does_not_perturb_the_run():
    """Enabling forecast+anomaly+provenance must leave outcomes identical."""
    baseline, _ = _slo_run(None)
    observed, obs = _slo_run(dict(forecast=True, anomaly=True,
                                  provenance=True))
    assert observed.latencies == baseline.latencies
    assert observed.latencies_by_class == baseline.latencies_by_class
    assert observed.egress_bytes == baseline.egress_bytes
    assert observed.egress_cost == baseline.egress_cost
    # ... while the pillar actually did its work
    assert obs.forecast.samples > 0 and obs.anomaly.samples > 0
    assert len(obs.anomaly.log) > 0
    assert obs.timeseries.all_series("forecast_request_rate_rps")


def test_same_seed_predictive_run_is_byte_identical():
    def artifacts():
        _, obs = _slo_run(dict(forecast=True, anomaly=True))
        store = obs.timeseries
        return ([series.as_dict() for name in store.names()
                 if name.startswith("forecast_")
                 for series in store.all_series(name)],
                obs.anomaly.log.to_jsonl_lines(),
                obs.breach.to_jsonl_lines(),
                sorted((sid, score.as_dict())
                       for sid, score in obs.forecast.backtests().items()))

    assert artifacts() == artifacts()


def test_predictions_and_anomalies_reach_provenance():
    _, obs = _slo_run(dict(forecast=True, anomaly=True, provenance=True))
    reasons = {snapshot["trigger"]["reason"]
               for snapshot in obs.provenance.snapshots}
    assert "anomaly" in reasons
    # the scenario's surge produces a predicted breach, which also trips
    # the flight recorder
    if obs.breach.predictions:
        assert "predicted_breach" in reasons


def test_chaos_anomaly_lead_time_scored_in_resilience_report():
    """ISSUE acceptance: detectors flag the outage before the control
    plane reacts, and the report carries the lead time."""
    setup = sc.chaos_outage_setup(duration=40.0, seed=42)
    obs = Observability(setup.observability(
        timeseries=True, anomaly=True, scrape_interval=0.5))
    result = setup.run(obs)
    assert result.anomaly_signals(), "the outage must register anomalies"
    baseline = _unfaulted_twin(duration=40.0).run()
    report = result.resilience(baseline)
    scored = [e for e in report.episodes
              if e.anomaly_detection_seconds is not None]
    assert scored, "at least one fault episode must be anomaly-detected"
    episode = scored[0]
    assert episode.anomaly_detection_seconds >= 0.0
    # detectors see the queue blow-up before the stale-rule guard trips
    assert episode.anomaly_lead_seconds is not None
    assert episode.anomaly_lead_seconds > 0.0
    rendered = report.render()
    assert "anom(s)" in rendered and "lead(s)" in rendered
    payload = report.as_dict()["episodes"][0]
    assert "anomaly_detection_seconds" in payload
    assert "anomaly_lead_seconds" in payload


def test_chaos_without_anomaly_pillar_reports_dashes():
    setup = sc.chaos_outage_setup(duration=30.0, seed=42)
    result = setup.run()
    assert result.anomaly_signals() == []
    baseline = _unfaulted_twin(duration=30.0).run()
    report = result.resilience(baseline)
    assert all(e.anomaly_detection_seconds is None for e in report.episodes)
    assert all(e.anomaly_lead_seconds is None for e in report.episodes)
