"""Time-series pipeline: ring buffers, scrape loop, engine scheduling."""

from __future__ import annotations

import pytest

from repro.experiments.harness import run_policy
from repro.experiments.scenarios import fig6a_how_much
from repro.obs import (Observability, ObservabilityConfig, TimeSeries,
                       TimeSeriesStore, percentile)
from repro.obs.timeseries import ScrapeLoop
from repro.sim.engine import SimulationError, Simulator
from repro.sim.runner import MeshSimulation


# ----------------------------------------------------------- percentile

def test_percentile_interpolates():
    values = [1.0, 2.0, 3.0, 4.0]
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 1.0) == 4.0
    assert percentile(values, 0.5) == pytest.approx(2.5)
    assert percentile([7.0], 0.99) == 7.0
    assert percentile([], 0.5) == 0.0
    with pytest.raises(ValueError):
        percentile(values, 1.5)


# ----------------------------------------------------------- TimeSeries

def test_series_appends_and_windows():
    series = TimeSeries("x", capacity=10)
    for t in range(5):
        series.append(float(t), t * 10.0)
    assert len(series) == 5
    assert series.last == (4.0, 40.0)
    assert series.window(1.0, 3.0) == [(1.0, 10.0), (2.0, 20.0), (3.0, 30.0)]
    assert series.value_at(2.5) == 20.0
    assert series.value_at(-1.0) == 0.0          # before first sample
    assert series.value_at(-1.0, default=9.0) == 9.0


def test_series_rejects_time_travel():
    series = TimeSeries("x")
    series.append(2.0, 1.0)
    with pytest.raises(ValueError):
        series.append(1.0, 2.0)
    series.append(2.0, 3.0)   # ties are fine (same-tick overwrite pattern)


def test_series_ring_buffer_evicts_oldest():
    series = TimeSeries("x", capacity=3)
    for t in range(5):
        series.append(float(t), float(t))
    assert len(series) == 3
    assert series.items() == [(2.0, 2.0), (3.0, 3.0), (4.0, 4.0)]
    assert series.dropped_points == 2            # truncation is never silent
    with pytest.raises(ValueError):
        TimeSeries("x", capacity=1)


# ------------------------------------------------------ TimeSeriesStore

def test_store_records_labeled_series():
    store = TimeSeriesStore()
    store.record("depth", 1.0, 3, cluster="west")
    store.record("depth", 1.0, 5, cluster="east")
    store.record("depth", 2.0, 4, cluster="west")
    assert store.names() == ["depth"]
    assert store.series("depth", cluster="west").last == (2.0, 4.0)
    assert store.series("depth", cluster="south") is None
    assert len(store.all_series("depth")) == 2
    assert store.series_count() == 2


def test_store_rate_is_counter_delta_over_window():
    store = TimeSeriesStore()
    for t, value in [(0.0, 0.0), (1.0, 10.0), (2.0, 30.0), (3.0, 30.0)]:
        store.record("total", t, value)
    assert store.rate("total", 0.0, 2.0) == pytest.approx(15.0)
    assert store.rate("total", 2.0, 3.0) == 0.0
    assert store.rate("total", 3.0, 3.0) == 0.0   # empty window
    assert store.rate("missing", 0.0, 1.0) == 0.0


def test_store_window_percentile():
    store = TimeSeriesStore()
    for t in range(10):
        store.record("lat", float(t), float(t))
    assert store.window_percentile("lat", 0.0, 9.0, 0.5) == pytest.approx(4.5)
    assert store.window_percentile("lat", 5.0, 9.0, 1.0) == 9.0


def test_store_snapshot_round_trips():
    store = TimeSeriesStore(max_points=32)
    store.record("a", 1.0, 2.0, cluster="west")
    store.record("a", 2.0, 3.0, cluster="west")
    store.record("b", 1.5, 7.0)
    store.scrape_count = 2
    rebuilt = TimeSeriesStore.from_snapshot(store.snapshot())
    assert rebuilt.snapshot() == store.snapshot()
    assert rebuilt.series("a", cluster="west").items() == [(1.0, 2.0),
                                                           (2.0, 3.0)]


# ------------------------------------------------------ engine scheduling

def test_schedule_periodic_ticks_strictly_inside():
    sim = Simulator()
    seen = []
    count = sim.schedule_periodic(1.0, lambda: seen.append(sim.now), 5.0)
    assert count == 4                       # 1, 2, 3, 4 — not 5 (strict)
    sim.run(until=5.0)
    sim.run_until_idle()                    # pre-scheduled ticks drain fine
    assert seen == [1.0, 2.0, 3.0, 4.0]


def test_schedule_periodic_validates():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_periodic(0.0, lambda: None, 5.0)
    sim.run(until=2.0)
    with pytest.raises(SimulationError):
        sim.schedule_periodic(1.0, lambda: None, 1.0)   # until < now
    assert sim.schedule_periodic(3.0, lambda: None, 4.0) == 0


def test_schedule_periodic_is_relative_to_now():
    sim = Simulator()
    sim.run(until=10.0)
    seen = []
    assert sim.schedule_periodic(2.0, lambda: seen.append(sim.now),
                                 15.0) == 2
    sim.run_until_idle()
    assert seen == [12.0, 14.0]


# ----------------------------------------------------------- scrape loop

@pytest.fixture(scope="module")
def scraped():
    setup = fig6a_how_much(duration=8.0)
    obs = Observability(ObservabilityConfig(timeseries=True,
                                            scrape_interval=1.0))
    outcome = run_policy(setup.scenario, setup.slate, observability=obs)
    return obs, outcome


def test_scrape_loop_samples_every_interval(scraped):
    obs, _ = scraped
    store = obs.timeseries
    # 7 in-run ticks (1..7, strictly inside 8.0) + the post-drain finalize
    assert store.scrape_count == 8
    events = store.series("engine_events_total")
    assert [t for t, _ in events.items()][:7] == [float(t)
                                                 for t in range(1, 8)]
    assert events.items()[-1][0] >= 8.0          # terminal sample post-drain


def test_scrape_counters_are_monotone(scraped):
    obs, _ = scraped
    store = obs.timeseries
    for name in ("engine_events_total", "gateway_admitted_total",
                 "requests_completed_total", "wan_egress_cost_dollars_total"):
        for series in store.all_series(name):
            values = series.values()
            assert values == sorted(values), f"{series!r} not monotone"


def test_scrape_covers_every_signal_family(scraped):
    obs, _ = scraped
    names = set(obs.timeseries.names())
    assert {"engine_events_total", "pool_queue_depth", "pool_utilization",
            "gateway_admitted_total", "requests_completed_total",
            "request_rate_rps", "request_latency_p50", "request_latency_p99",
            "wan_egress_bytes_total", "routing_rules",
            "routing_weight_churn"} <= names


def test_scrape_latency_percentiles_ordered(scraped):
    obs, _ = scraped
    store = obs.timeseries
    p50 = store.series("request_latency_p50", traffic_class="default")
    p95 = store.series("request_latency_p95", traffic_class="default")
    p99 = store.series("request_latency_p99", traffic_class="default")
    assert p50 is not None and len(p50) > 0
    for (t, v50), (_, v95), (_, v99) in zip(p50.items(), p95.items(),
                                            p99.items()):
        assert v50 <= v95 <= v99, f"percentiles inverted at t={t}"


def test_scrape_request_totals_match_telemetry(scraped):
    obs, outcome = scraped
    store = obs.timeseries
    completed = store.series("requests_completed_total",
                             traffic_class="default")
    # the terminal sample equals the run's exact lifetime counter, and the
    # warm-up-cut outcome can only be smaller
    assert completed.last[1] >= len(outcome.latencies)


def test_enabled_scraping_does_not_perturb_outcomes():
    """Scrapes are read-only: enabling them must not change results."""
    baseline_setup = fig6a_how_much(duration=5.0)
    baseline = run_policy(baseline_setup.scenario, baseline_setup.slate)
    scraped_setup = fig6a_how_much(duration=5.0)   # fresh policy state
    observed = run_policy(
        scraped_setup.scenario, scraped_setup.slate,
        observability=ObservabilityConfig(timeseries=True,
                                          scrape_interval=0.25))
    assert observed.latencies == baseline.latencies
    assert observed.egress_bytes == baseline.egress_bytes
    assert observed.egress_cost == baseline.egress_cost


def test_disabled_timeseries_builds_nothing():
    obs = Observability.coerce(ObservabilityConfig(tracing=True))
    assert obs.timeseries is None and obs.scrape is None
    assert obs.slo is None and obs.alerts is None


def test_reservoir_mode_keeps_counters_drops_percentiles():
    from repro.sim.runner import MeshSimulation
    setup = fig6a_how_much(duration=4.0)
    scenario = setup.scenario
    obs = Observability(ObservabilityConfig(timeseries=True))
    simulation = MeshSimulation(scenario.app, scenario.deployment,
                                seed=scenario.seed, observability=obs,
                                latency_reservoir=32)
    setup.slate.compute_rules(scenario.context()).apply(simulation.table)
    simulation.run(scenario.demand, scenario.duration)
    store = obs.timeseries
    assert store.series("requests_completed_total",
                        traffic_class="default").last[1] > 0
    # no per-request retention → no sliding window percentiles
    assert store.series("request_latency_p99",
                        traffic_class="default") is None


def walked_routing_sample(self, now: float) -> None:
    """``ScrapeLoop._sample_routing`` copying and walking the table at every
    scrape, as it did before it skipped an unmoved ``table.version`` —
    frozen here as the reference."""
    table = self.simulation.table
    rules = table.rules()
    churn = 0.0
    previous = self._prev_weights
    for key in sorted(set(rules) | set(previous),
                      key=lambda k: (k.service, k.traffic_class,
                                     k.src_cluster)):
        old = previous.get(key, {})
        new = rules.get(key, {})
        churn += sum(abs(new.get(c, 0.0) - old.get(c, 0.0))
                     for c in sorted(set(new) | set(old)))
    self._prev_weights = rules
    self.store.record("routing_rules", now, len(rules))
    self.store.record("routing_table_version", now, table.version)
    self.store.record("routing_weight_churn", now, churn)


def routing_series(monkeypatch, walked: bool) -> dict[str, list]:
    """The routing series of a run whose table is edited mid-run: a split
    installed, reinstalled unchanged, moved, and removed."""
    if walked:
        monkeypatch.setattr(ScrapeLoop, "_sample_routing",
                            walked_routing_sample)
    setup = fig6a_how_much(duration=3.0)
    scenario = setup.scenario
    obs = Observability(ObservabilityConfig(timeseries=True,
                                            scrape_interval=0.25))
    simulation = MeshSimulation(scenario.app, scenario.deployment,
                                seed=scenario.seed, observability=obs)
    table = simulation.table
    setup.slate.compute_rules(scenario.context()).apply(table)
    key = min(table.rules(), key=lambda k: (k.service, k.traffic_class,
                                           k.src_cluster))
    a, b = scenario.deployment.cluster_names[:2]
    at = simulation.sim.schedule_at
    at(0.6, table.set_weights, key, table.rules()[key])
    at(1.1, table.set_weights, key, {a: 0.25, b: 0.75})
    at(1.35, table.set_weights, key, {a: 0.25, b: 0.75})
    at(1.6, table.set_weights, key, {a: 0.5, b: 0.5})
    at(2.1, table.remove, key)
    simulation.run(scenario.demand, scenario.duration)
    store = obs.timeseries
    return {name: store.series(name).items()
            for name in ("routing_rules", "routing_weight_churn",
                         "routing_table_version")}


def test_an_unmoved_table_version_skips_the_churn_walk(monkeypatch):
    skipped = routing_series(monkeypatch, walked=False)
    walked = routing_series(monkeypatch, walked=True)
    for name in ("routing_rules", "routing_weight_churn"):
        assert skipped[name] == walked[name], name
    churn = [value for _, value in skipped["routing_weight_churn"]]
    assert churn.count(0.0) > 3 and sum(v > 0 for v in churn) >= 3
    # the version counts only the writes that changed a rule
    versions = [value for _, value in skipped["routing_table_version"]]
    assert versions[-1] == versions[0] + 4
