"""Metrics registry semantics, exports, and sim/controller collectors."""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import pytest

from repro.obs import (DEFAULT_LATENCY_BUCKETS, DEFAULT_MAX_LABEL_SETS,
                       MetricsRegistry, Observability, ObservabilityConfig)
from repro.experiments.harness import run_policy
from repro.experiments.scenarios import fig6a_how_much


# ------------------------------------------------------------ registry

def test_counter_accumulates_per_labels():
    registry = MetricsRegistry()
    counter = registry.counter("events_total", "help text")
    counter.inc(2, cluster="west")
    counter.inc(3, cluster="west")
    counter.inc(1, cluster="east")
    assert counter.value(cluster="west") == 5.0
    assert counter.value(cluster="east") == 1.0
    assert counter.value(cluster="south") == 0.0
    with pytest.raises(ValueError):
        counter.inc(-1, cluster="west")


def test_gauge_sets_not_accumulates():
    gauge = MetricsRegistry().gauge("depth")
    gauge.set(4, service="A")
    gauge.set(2, service="A")
    assert gauge.value(service="A") == 2.0


def test_histogram_buckets_and_mean():
    histogram = MetricsRegistry().histogram(
        "lat", buckets=(0.01, 0.1, 1.0))
    for value in (0.005, 0.05, 0.05, 0.5, 5.0):
        histogram.observe(value, cls="default")
    state = histogram.state(cls="default")
    assert state.count == 5
    assert state.total == pytest.approx(5.605)
    assert state.counts == [1, 2, 1, 1]          # per-bucket + overflow
    assert state.cumulative() == [1, 3, 4, 5]    # prometheus cumulative
    assert state.mean == pytest.approx(5.605 / 5)
    assert histogram.state(cls="other") is None


def test_registry_idempotent_and_kind_checked():
    registry = MetricsRegistry()
    assert registry.counter("x") is registry.counter("x")
    with pytest.raises(ValueError):
        registry.gauge("x")
    with pytest.raises(ValueError):
        MetricsRegistry().counter("bad name")


def test_default_buckets_sorted():
    assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)


# ------------------------------------------------------------- exports

def build_small_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("reqs_total", "requests").inc(7, cluster="west")
    registry.gauge("queue_depth").set(3, cluster="west", service="A")
    registry.histogram("lat_seconds", "latency",
                       buckets=(0.1, 1.0)).observe(0.05, cls="default")
    return registry


def test_snapshot_is_json_serializable():
    snapshot = build_small_registry().snapshot()
    json.dumps(snapshot)
    assert snapshot["reqs_total"]["kind"] == "counter"
    assert snapshot["reqs_total"]["series"][0] == {
        "labels": {"cluster": "west"}, "value": 7.0}
    histo = snapshot["lat_seconds"]["series"][0]
    assert histo["count"] == 1 and histo["sum"] == pytest.approx(0.05)
    assert histo["buckets"][-1][0] == "+Inf"


def test_prometheus_text_format():
    text = build_small_registry().to_prometheus()
    assert "# HELP reqs_total requests" in text
    assert "# TYPE reqs_total counter" in text
    assert 'reqs_total{cluster="west"} 7.0' in text
    assert 'queue_depth{cluster="west",service="A"} 3.0' in text
    # cumulative buckets including the +Inf terminal
    assert 'lat_seconds_bucket{cls="default",le="0.1"} 1' in text
    assert 'lat_seconds_bucket{cls="default",le="+Inf"} 1' in text
    assert 'lat_seconds_sum{cls="default"} 0.05' in text
    assert 'lat_seconds_count{cls="default"} 1' in text
    assert text.endswith("\n")


def test_prometheus_matches_golden_file():
    """The exact exposition bytes are pinned: HELP/TYPE headers, label
    ordering, cumulative ``_bucket``/``_sum``/``_count`` series."""
    golden = Path(__file__).parent / "golden" / "metrics.prom"
    assert build_small_registry().to_prometheus() == golden.read_text()


def build_optimizer_registry() -> MetricsRegistry:
    """Collect controller metrics from a stub with fixed counters.

    Wall-clock totals are hand-picked constants, so the exposition bytes
    are stable enough to pin in a golden file.
    """
    from types import SimpleNamespace

    from repro.obs.collect import collect_controller_metrics

    epoch_solver = SimpleNamespace(
        builds=6, warm_builds=4, build_seconds=0.25,
        solves=6, warm_solves=3, warm_rejects=1, solve_seconds=0.5,
        last_candidate_stats={"paths": 12, "groups": 4,
                              "k": 3, "max_group": 3},
    )
    controller = SimpleNamespace(
        epochs_observed=6,
        epoch_solver=epoch_solver,
        last_result=None,
    )
    registry = MetricsRegistry()
    collect_controller_metrics(registry, controller)
    return registry


def test_optimizer_counters_cover_reuse_ladder():
    registry = build_optimizer_registry()
    # warm / cold tiers are both exported, and cold is derived
    # (solves - warm solves) in exactly one place
    assert registry.counter("optimizer_warm_solves_total").value() == 3.0
    assert registry.counter("optimizer_cold_solves_total").value() == 3.0
    assert registry.counter("optimizer_warm_rejects_total").value() == 1.0
    assert registry.gauge("optimizer_path_candidates").value() == 12.0
    assert registry.gauge("optimizer_path_candidate_groups").value() == 4.0


def test_optimizer_metrics_match_golden_file():
    """Pin the optimizer-counter exposition: names, HELP text, values."""
    golden = Path(__file__).parent / "golden" / "optimizer_metrics.prom"
    assert build_optimizer_registry().to_prometheus() == golden.read_text()


def test_arc_formulation_skips_candidate_gauges():
    from types import SimpleNamespace

    from repro.obs.collect import collect_controller_metrics

    controller = SimpleNamespace(
        epochs_observed=1,
        epoch_solver=SimpleNamespace(
            builds=1, warm_builds=0, build_seconds=0.0, solves=1,
            warm_solves=0, warm_rejects=0, solve_seconds=0.0,
            last_candidate_stats=None),
        last_result=None)
    registry = MetricsRegistry()
    collect_controller_metrics(registry, controller)
    assert "optimizer_path_candidates" not in registry.snapshot()


def test_prometheus_escapes_label_values():
    registry = MetricsRegistry()
    registry.counter("odd_total").inc(1, path='a\\b"c\nd')
    text = registry.to_prometheus()
    assert 'odd_total{path="a\\\\b\\"c\\nd"} 1.0' in text
    assert "\n\n" not in text                # the raw newline never leaks


# --------------------------------------------------- cardinality guard

def test_cardinality_guard_folds_overflow_series():
    registry = MetricsRegistry(max_label_sets=3)
    counter = registry.counter("wide_total")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for index in range(5):
            counter.inc(1, request_id=str(index))
    assert [w.category for w in caught] == [RuntimeWarning]   # warned once
    assert "max_label_sets=3" in str(caught[0].message)
    assert counter.series_count() == 4       # 3 admitted + the overflow bin
    assert counter.dropped_label_sets == 2
    assert counter.value(overflow="true") == 2.0
    # existing label-sets keep accumulating normally past the cap
    counter.inc(1, request_id="0")
    assert counter.value(request_id="0") == 2.0
    assert counter.dropped_label_sets == 2


def test_cardinality_guard_applies_to_histograms_and_snapshot():
    registry = MetricsRegistry(max_label_sets=1)
    histogram = registry.histogram("h", buckets=(1.0,))
    histogram.observe(0.5, cls="a")
    with pytest.warns(RuntimeWarning):
        histogram.observe(0.7, cls="b")
        histogram.observe(0.9, cls="c")
    assert histogram.state(overflow="true").count == 2
    snapshot = registry.snapshot()
    assert snapshot["h"]["dropped_label_sets"] == 2
    # untripped metrics don't carry the key at all
    assert "dropped_label_sets" not in build_small_registry().snapshot()[
        "reqs_total"]


def test_cardinality_cap_configurable_and_unlimited():
    assert MetricsRegistry().max_label_sets == DEFAULT_MAX_LABEL_SETS
    with pytest.raises(ValueError):
        MetricsRegistry(max_label_sets=0)
    unlimited = MetricsRegistry(max_label_sets=None)
    counter = unlimited.counter("c")
    for index in range(DEFAULT_MAX_LABEL_SETS + 8):
        counter.inc(1, i=str(index))
    assert counter.series_count() == DEFAULT_MAX_LABEL_SETS + 8
    assert counter.dropped_label_sets == 0


# ----------------------------------------------------------- collectors

@pytest.fixture(scope="module")
def collected_obs():
    import dataclasses

    from repro import GlobalControllerConfig, SlatePolicy

    obs = Observability(ObservabilityConfig(metrics=True, profiling=True))
    setup = fig6a_how_much(duration=10.0)
    # an adaptive policy, so the controller collectors have state to read
    scenario = dataclasses.replace(setup.scenario, epoch=2.0)
    policy = SlatePolicy(GlobalControllerConfig(rho_max=0.95), adaptive=True)
    run_policy(scenario, policy, observability=obs)
    return obs


@pytest.fixture(scope="module")
def collected_registry(collected_obs):
    return collected_obs.metrics


def test_collect_simulation_metrics(collected_registry):
    registry = collected_registry
    assert registry.counter("engine_events_total").value() > 0
    admitted = registry.counter("gateway_admitted_total")
    completed = registry.counter("gateway_completed_total")
    total_admitted = sum(admitted.value(**dict(key))
                         for key in admitted.labels())
    total_completed = sum(completed.value(**dict(key))
                          for key in completed.labels())
    assert 0 < total_completed <= total_admitted
    # per-(service, cluster) pool gauges exist and carry both labels
    replicas = registry.gauge("pool_replicas")
    assert replicas.series_count() > 0
    assert all({"service", "cluster"} == {name for name, _ in key}
               for key in replicas.labels())
    state = registry.histogram("request_latency_seconds").state(
        traffic_class="default")
    assert state is not None and state.count > 0


def test_collect_controller_metrics(collected_registry):
    registry = collected_registry
    assert registry.gauge("solver_objective").value() != 0.0
    assert registry.gauge("solver_variables").value() > 0
    assert registry.gauge("solver_constraints").value() > 0


def test_collect_profiler_metrics(collected_registry):
    runs = collected_registry.counter("control_plane_section_runs_total")
    assert runs.value(section="initial-plan") >= 1


def test_optimizer_wall_time_is_read_once_off_the_epoch_solver(
        collected_obs):
    """The profiler times only the harness's own sections; the
    optimizer's build and solve time live in the epoch solver's counters,
    which the collector exports."""
    assert set(collected_obs.profiler.section_names()) == {"initial-plan",
                                                           "epoch"}
    registry = collected_obs.metrics
    assert registry.counter("optimizer_build_seconds_total").value() > 0
    assert registry.counter("optimizer_solve_seconds_total").value() > 0
