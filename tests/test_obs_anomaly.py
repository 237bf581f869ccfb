"""Tests for streaming anomaly detection (z-score spikes, CUSUM drifts)."""

import json

import pytest

from repro.obs import AnomalyEngine, TimeSeriesStore


def make_engine(**kwargs):
    store = TimeSeriesStore()
    kwargs.setdefault("targets", (("metric", "gauge"),))
    return store, AnomalyEngine(store, **kwargs)


def feed(store, engine, values, name="metric", start=0.0, step=1.0,
         **labels):
    now = start
    for value in values:
        store.record(name, now, value, **labels)
        engine.sample(now)
        now += step
    return now


def wiggle(n, base=10.0):
    """A deterministic low-amplitude baseline (sigma > 0, no anomalies)."""
    return [base + (i % 3) * 0.5 for i in range(n)]


def test_spike_fires_zscore_up():
    store, engine = make_engine()
    feed(store, engine, wiggle(24) + [100.0])
    spikes = [e for e in engine.log if e.detector == "zscore"]
    assert spikes and spikes[-1].direction == "up"
    assert spikes[-1].value == pytest.approx(100.0)
    assert spikes[-1].score >= engine.z_threshold


def test_zscore_is_edge_triggered_once_per_excursion():
    store, engine = make_engine()
    feed(store, engine, wiggle(24) + [100.0] * 5)
    spikes = [e for e in engine.log if e.detector == "zscore"
              and e.direction == "up"]
    assert len(spikes) == 1    # the plateau is one excursion, one event


def test_sustained_drift_fires_cusum():
    store, engine = make_engine()
    baseline = wiggle(30)
    drift = [baseline[-1] + 0.6 * i for i in range(1, 31)]
    feed(store, engine, baseline + drift)
    changepoints = [e for e in engine.log if e.detector == "cusum"]
    assert changepoints and changepoints[0].direction == "up"


def test_spike_detected_past_ring_eviction():
    # the ring holds 8 points, and the spike lands 22 ticks after it
    # first filled
    store = TimeSeriesStore(max_points=8)
    engine = AnomalyEngine(store, targets=(("metric", "gauge"),))
    feed(store, engine, wiggle(30) + [100.0] + wiggle(9))
    spikes = [e for e in engine.log if e.detector == "zscore"]
    assert [e.sim_time for e in spikes] == [30.0]


def test_no_events_before_min_samples():
    store, engine = make_engine(min_samples=8)
    feed(store, engine, [10.0, 10.5, 10.0, 1000.0])
    assert len(engine.log) == 0


def test_counter_series_detects_rate_change_not_growth():
    store, engine = make_engine(targets=(("ctr", "counter"),))
    # steady growth at +5/s: constant rate, only the boring wiggle
    total = 0.0
    values = []
    for i in range(30):
        total += 5.0 + (i % 3) * 0.2
        values.append(total)
    feed(store, engine, values, name="ctr")
    assert len(engine.log) == 0
    # then the rate jumps 20x: the differenced series spikes
    more = [values[-1] + 100.0 * (i + 1) for i in range(4)]
    feed(store, engine, more, name="ctr", start=30.0)
    assert any(e.detector == "zscore" for e in engine.log)


def test_events_recorded_in_log():
    store, engine = make_engine()
    feed(store, engine, wiggle(24) + [100.0])
    assert len(engine.log) > 0
    lines = engine.log.to_jsonl_lines()
    assert len(lines) == len(engine.log)
    assert json.loads(lines[0])["series"] == "metric"


def test_log_queries_and_render():
    store, engine = make_engine()
    feed(store, engine, wiggle(24) + [100.0], cluster="west")
    log = engine.log
    assert log.times() == sorted(log.times())
    assert log.for_series("metric") == list(log)
    table = log.render()
    assert "detector" in table and f"events={len(log)}" in table
    event = log.events[0]
    assert event.series_id == "metric{cluster=west}"
    assert event.as_dict()["labels"] == {"cluster": "west"}


def test_summary_counts_by_detector_and_series():
    store, engine = make_engine()
    feed(store, engine, wiggle(24) + [100.0])
    summary = engine.summary()
    assert summary["events"] == len(engine.log)
    assert sum(summary["by_detector"].values()) == summary["events"]
    assert sum(summary["by_series"].values()) == summary["events"]
    assert summary["followed_series"] == 1


def test_constant_series_never_divides_by_zero():
    store, engine = make_engine()
    feed(store, engine, [7.0] * 40)
    assert len(engine.log) == 0


def test_validation():
    store = TimeSeriesStore()
    with pytest.raises(ValueError):
        AnomalyEngine(store, z_threshold=0.0)
    with pytest.raises(ValueError):
        AnomalyEngine(store, min_samples=1)
    with pytest.raises(ValueError):
        AnomalyEngine(store, cusum_h=0.0)
