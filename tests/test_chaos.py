"""repro.chaos: fault plans, injection, degraded control plane, scoring.

Covers the §5 failure modes end to end: plan validation and compilation,
WAN/replica inject-recover symmetry, telemetry gating, the control-plane
outage with the stale-rule guard + fallback (the headline demonstration),
resilience scoring, and the determinism contract (empty plan == no chaos;
same seed + same plan == byte-identical run).
"""

import math
from dataclasses import replace

import pytest

from repro.chaos import (ChaosRuntime, ControlPlaneOutage, FaultPlan,
                         ReplicaFault, TelemetryFault, WanFault,
                         compute_resilience, run_chaos)
from repro.chaos.inject import FaultRecord
from repro.core.controller.cluster_controller import ClusterController
from repro.core.controller.global_controller import GlobalControllerConfig
from repro.core.controller.policy import SlatePolicy
from repro.experiments.harness import Scenario, run_policy
from repro.experiments.scenarios import chaos_outage_setup
from repro.mesh.routing_table import WILDCARD_CLASS
from repro.obs import join_alerts_decisions
from repro.sim import (DemandMatrix, DeploymentSpec, linear_chain_app,
                       two_region_latency)
from repro.sim.runner import MeshSimulation


def make_world(replicas=5):
    app = linear_chain_app(n_services=3, exec_time=0.010)
    deployment = DeploymentSpec.uniform(
        app.services(), ["west", "east"], replicas=replicas,
        latency=two_region_latency(25.0))
    return app, deployment


def make_sim(seed=7, **kwargs):
    app, deployment = make_world(**kwargs)
    return MeshSimulation(app, deployment, seed=seed)


# ------------------------------------------------------------- plan values


def test_plan_sorts_by_start_stably():
    late = WanFault(start=5.0, duration=1.0, src="a", dst="b",
                    multiplier=2.0)
    early_one = ControlPlaneOutage(start=1.0, duration=2.0)
    early_two = TelemetryFault(start=1.0, duration=2.0, cluster="a")
    plan = FaultPlan((late, early_one, early_two))
    # sorted by start; declaration order kept among ties
    assert plan.faults == (early_one, early_two, late)
    assert len(plan) == 3
    assert plan.end == 6.0
    assert [f.label for f in plan] == ["controller-outage",
                                      "telemetry-drop:a", "wan:a<->b"]


def test_empty_plan():
    plan = FaultPlan.empty()
    assert plan.is_empty
    assert plan.end == 0.0
    assert plan.describe() == []


def test_fault_window_validation():
    with pytest.raises(ValueError):
        ControlPlaneOutage(start=-1.0, duration=5.0)
    with pytest.raises(ValueError):
        ControlPlaneOutage(start=0.0, duration=0.0)
    # NaN passes a plain `< 0` test: a NaN start would never inject
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="start must be finite"):
            ControlPlaneOutage(start=bad, duration=5.0)
        with pytest.raises(ValueError, match="duration must be finite"):
            ControlPlaneOutage(start=1.0, duration=bad)


def test_wan_fault_validation():
    with pytest.raises(ValueError):
        WanFault(start=0.0, duration=1.0, src="a", dst="a")
    with pytest.raises(ValueError):
        WanFault(start=0.0, duration=1.0, src="a", dst="b",
                 extra_delay=-0.1)
    with pytest.raises(ValueError):
        WanFault(start=0.0, duration=1.0, src="a", dst="b", jitter=-0.1)
    for name in ("extra_delay", "multiplier", "jitter"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                WanFault(start=0.0, duration=1.0, src="a", dst="b",
                         **{name: bad})
    assert WanFault(start=0.0, duration=1.0, src="b", dst="a",
                    partition=True).label == "partition:a<->b"


def test_replica_fault_validation():
    with pytest.raises(ValueError, match="crash replicas and/or slow"):
        ReplicaFault(start=0.0, duration=1.0, cluster="a", service="S1")
    with pytest.raises(ValueError):
        ReplicaFault(start=0.0, duration=1.0, cluster="a", service="S1",
                     crash=-1)
    with pytest.raises(ValueError):
        ReplicaFault(start=0.0, duration=1.0, cluster="a", service="S1",
                     slowdown=0.0)
    with pytest.raises(ValueError, match="slowdown must be finite"):
        ReplicaFault(start=0.0, duration=1.0, cluster="a", service="S1",
                     crash=1, slowdown=math.nan)


def test_telemetry_fault_validation():
    with pytest.raises(ValueError):
        TelemetryFault(start=0.0, duration=1.0, cluster="a", mode="mangle")
    with pytest.raises(ValueError):
        TelemetryFault(start=0.0, duration=1.0, cluster="a", mode="delay")
    with pytest.raises(ValueError, match="delay must be finite"):
        TelemetryFault(start=0.0, duration=1.0, cluster="a", mode="delay",
                       delay=math.nan)
    with pytest.raises(ValueError):
        TelemetryFault(start=0.0, duration=1.0, cluster="a", mode="drop",
                       delay=1.0)


def test_plan_rejects_non_fault_entries():
    with pytest.raises(TypeError):
        FaultPlan(("not a fault",))


# --------------------------------------------------------------- compiling


def test_runtime_rejects_unknown_cluster_and_service():
    sim = make_sim()
    with pytest.raises(ValueError, match="unknown cluster"):
        ChaosRuntime(sim, FaultPlan((WanFault(
            start=1.0, duration=1.0, src="west", dst="mars",
            multiplier=2.0),)))
    with pytest.raises(ValueError, match="unknown service"):
        ChaosRuntime(make_sim(), FaultPlan((ReplicaFault(
            start=1.0, duration=1.0, cluster="west", service="S9",
            crash=1),)))


def test_wan_fault_applies_and_restores_latency():
    sim = make_sim()
    latency = sim.network.latency
    base = latency.one_way("west", "east")
    ChaosRuntime(sim, FaultPlan((WanFault(
        start=1.0, duration=2.0, src="west", dst="east",
        multiplier=10.0, extra_delay=0.005),)))
    sim.sim.run(until=1.5)
    assert latency.one_way("west", "east") == pytest.approx(
        base * 10.0 + 0.005)
    sim.sim.run(until=3.5)
    assert latency.one_way("west", "east") == pytest.approx(base)


def test_replica_fault_crashes_and_recovers():
    sim = make_sim()
    pool = sim.clusters["west"].pool("S1")
    spec = sim.deployment.cluster("west")
    ChaosRuntime(sim, FaultPlan((ReplicaFault(
        start=1.0, duration=2.0, cluster="west", service="S1",
        crash=2, slowdown=3.0),)))
    sim.sim.run(until=1.5)
    assert pool.replicas == 3
    assert pool.slowdown == pytest.approx(3.0)
    assert spec.replicas["S1"] == 3        # deployment view stays honest
    sim.sim.run(until=3.5)
    assert pool.replicas == 5
    assert pool.slowdown == pytest.approx(1.0)
    assert spec.replicas["S1"] == 5


def test_crash_never_removes_last_replica():
    sim = make_sim(replicas=3)
    runtime = ChaosRuntime(sim, FaultPlan((ReplicaFault(
        start=1.0, duration=2.0, cluster="west", service="S1",
        crash=99),)))
    sim.sim.run(until=1.5)
    assert sim.clusters["west"].pool("S1").replicas == 1
    assert runtime.timeline[0].crashed == 2
    sim.sim.run(until=3.5)
    assert sim.clusters["west"].pool("S1").replicas == 3


# ------------------------------------------------------- control-plane gates


def test_controller_available_window_is_half_open():
    runtime = ChaosRuntime(make_sim(), FaultPlan((
        ControlPlaneOutage(start=10.0, duration=5.0),)))
    assert runtime.controller_available(9.9)
    assert not runtime.controller_available(10.0)
    assert not runtime.controller_available(14.9)
    assert runtime.controller_available(15.0)


class _Report:
    def __init__(self, cluster):
        self.cluster = cluster


def test_gate_reports_drop_mode():
    runtime = ChaosRuntime(make_sim(), FaultPlan((TelemetryFault(
        start=2.0, duration=4.0, cluster="west"),)))
    west, east = _Report("west"), _Report("east")
    assert runtime.gate_reports(1.0, [west, east]) == [west, east]
    assert runtime.gate_reports(3.0, [west, east]) == [east]
    assert runtime.reports_dropped == 1
    assert runtime.gate_reports(6.0, [west, east]) == [west, east]


def test_gate_reports_delay_mode_releases_in_order():
    runtime = ChaosRuntime(make_sim(), FaultPlan((TelemetryFault(
        start=0.0, duration=4.0, cluster="west", mode="delay",
        delay=3.0),)))
    first, second, east = _Report("west"), _Report("west"), _Report("east")
    assert runtime.gate_reports(1.0, [first, east]) == [east]
    assert runtime.gate_reports(2.0, [second]) == []
    assert runtime.reports_delayed == 2
    # released oldest-first once their release time has passed
    assert runtime.gate_reports(4.0, []) == [first]
    assert runtime.gate_reports(5.0, []) == [second]
    assert runtime.counters()["pending_delayed"] == 0


# ------------------------------------------------------- stale-rule guard


def test_guard_requires_arming():
    controller = ClusterController("west")
    assert not controller.check_staleness(99.0, None, None)


def test_guard_validates_max_rule_age():
    # a NaN age compares false against every rule age: the guard would be
    # armed but could never trip
    for bad in (0.0, -5.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="max_rule_age must be finite"):
            ClusterController("west", max_rule_age=bad)


def test_touch_is_monotonic():
    controller = ClusterController("west")
    controller.touch(5.0)
    controller.touch(3.0)
    assert controller.last_contact == 5.0
    assert controller.rule_age(9.0) == pytest.approx(4.0)


# ------------------------------------------------ outage demonstration (§5)


@pytest.fixture(scope="module")
def outage_runs():
    """Frozen vs guarded vs unfaulted runs of the chaos-outage scenario."""
    setup = chaos_outage_setup(fallback="none")
    frozen = setup.run(setup.observability())
    guarded_setup = chaos_outage_setup()
    guarded = guarded_setup.run(guarded_setup.observability())
    twin = replace(chaos_outage_setup(fallback="none"),
                   plan=FaultPlan.empty())
    baseline = twin.run()
    return setup, frozen, guarded, baseline


def _window_p95(result, lo, hi):
    window = sorted(lat for t, lat in result.samples
                    if lat is not None and lo <= t < hi)
    assert len(window) >= 20
    return window[min(len(window) - 1, int(0.95 * len(window)))]


def test_guard_trips_once_per_cluster_and_reconciles(outage_runs):
    setup, frozen, guarded, _ = outage_runs
    assert frozen.fallback_trips == []
    trips = guarded.fallback_trips
    assert len(trips) == len(setup.scenario.deployment.cluster_names)
    outage = setup.plan.faults[0]
    # first epoch whose rule age exceeds max_rule_age, inside the outage
    assert all(outage.start < t < outage.start + outage.duration
               for t in trips)
    assert all(c.fallback_activations == 1
               for c in guarded.controllers.values())
    # GC return reconciles every cluster
    assert all(c.reconciliations >= 1
               for c in guarded.controllers.values())
    assert not any(c.fallback_active for c in guarded.controllers.values())
    # each reconciling push replaced its cluster's fallback rules whole
    rules = guarded.chaos.simulation.table.rules()
    assert rules
    assert not any(key.traffic_class == WILDCARD_CLASS for key in rules)


def test_fallback_beats_frozen_stale_rules(outage_runs):
    setup, frozen, guarded, _ = outage_runs
    outage = setup.plan.faults[0]
    trip = guarded.fallback_trips[0]
    end = outage.start + outage.duration
    frozen_p95 = _window_p95(frozen, trip, end)
    guarded_p95 = _window_p95(guarded, trip, end)
    # locality fallback avoids the degraded WAN; frozen rules keep paying it
    assert guarded_p95 < 0.6 * frozen_p95


def test_resilience_report_scores_the_outage(outage_runs):
    setup, _, guarded, baseline = outage_runs
    report = guarded.resilience(baseline)
    assert len(report.episodes) == len(setup.plan)
    outage = next(e for e in report.episodes
                  if e.kind == "ControlPlaneOutage")
    assert outage.detection_seconds is not None
    trip = guarded.fallback_trips[0]
    assert outage.detection_seconds == pytest.approx(trip - outage.injected_at)
    assert outage.recovery_seconds is not None
    assert outage.recovery_seconds >= outage.recovered_at - outage.injected_at
    assert outage.requests_degraded > 0
    assert outage.requests_total > outage.requests_degraded
    rendered = report.render()
    assert "controller-outage" in rendered
    assert "egress cost" in rendered


def test_fault_timeline_joins_decision_log(outage_runs):
    setup, _, guarded, _ = outage_runs
    rows = join_alerts_decisions(guarded.chaos.timeline, guarded.decisions)
    assert len(rows) == len(setup.plan)
    outage_row = next(r for r in rows
                      if r["alert"].kind == "ControlPlaneOutage")
    # the re-plan when the GC returns lands inside the fault window,
    # attributing the recovery decision to the fault
    assert outage_row["replans"] >= 1
    assert all(isinstance(r["alert"], FaultRecord) for r in rows)


# ------------------------------------------------------------- determinism


def _quick_scenario(seed=42):
    app, deployment = make_world()
    return Scenario(
        name="chaos-determinism", app=app, deployment=deployment,
        demand=DemandMatrix({("default", "west"): 200.0,
                             ("default", "east"): 80.0}),
        duration=8.0, warmup=1.0, seed=seed, epoch=2.0)


def _quick_policy():
    return SlatePolicy(GlobalControllerConfig(rho_max=0.95,
                                              learn_profiles=False),
                       adaptive=True)


def _quick_plan():
    return FaultPlan((
        WanFault(start=2.0, duration=3.0, src="west", dst="east",
                 multiplier=4.0, jitter=0.002),
        ReplicaFault(start=3.0, duration=2.0, cluster="west", service="S2",
                     crash=1, slowdown=2.0),
        ControlPlaneOutage(start=4.0, duration=2.0),
    ))


def test_same_seed_same_plan_is_byte_identical():
    first = run_chaos(_quick_scenario(), _quick_policy(), _quick_plan(),
                      fallback="locality", max_rule_age=1.5)
    second = run_chaos(_quick_scenario(), _quick_policy(), _quick_plan(),
                       fallback="locality", max_rule_age=1.5)
    assert repr(first.samples).encode() == repr(second.samples).encode()
    assert first.egress_cost == second.egress_cost
    assert first.fallback_trips == second.fallback_trips
    assert ([r.as_dict() for r in first.chaos.timeline]
            == [r.as_dict() for r in second.chaos.timeline])


def test_different_seed_differs():
    first = run_chaos(_quick_scenario(), _quick_policy(), _quick_plan())
    other = run_chaos(_quick_scenario(seed=11), _quick_policy(),
                      _quick_plan())
    assert first.samples != other.samples


def test_empty_plan_matches_chaos_free_run():
    """A chaos-armed run with no faults is the plain run_policy run — the
    same outcome and, under full observability, the same records."""
    from repro.obs import Observability, ObservabilityConfig
    config = ObservabilityConfig(decisions=True, provenance=True,
                                 timeseries=True, metrics=True)
    chaos_obs, plain_obs = Observability(config), Observability(config)
    chaotic = run_chaos(_quick_scenario(), _quick_policy(),
                        observability=chaos_obs)
    plain = run_policy(_quick_scenario(), _quick_policy(),
                       observability=plain_obs)
    assert chaotic.outcome.latencies == plain.latencies
    assert chaotic.outcome.egress_bytes == plain.egress_bytes
    assert chaotic.outcome.egress_cost == plain.egress_cost
    assert chaotic.chaos.counters()["faults"] == 0
    assert chaotic.hung_requests == 0

    assert len(plain_obs.provenance.records) == 4
    assert (chaos_obs.provenance.to_jsonl_lines()
            == plain_obs.provenance.to_jsonl_lines())

    def rows(obs):
        wall_clock = ("solve_time", "build_time")
        return [{key: value for key, value in decision.as_dict().items()
                 if key not in wall_clock}
                for decision in obs.decisions]
    assert len(rows(plain_obs)) == 4
    assert rows(chaos_obs) == rows(plain_obs)


def test_chaos_run_is_profiled_like_a_healthy_one():
    from repro.obs import Observability, ObservabilityConfig
    obs = Observability(ObservabilityConfig(profiling=True))
    run_chaos(_quick_scenario(), _quick_policy(), _quick_plan(),
              observability=obs)
    assert obs.profiler.stats("initial-plan").count == 1
    assert obs.profiler.stats("epoch").count == 4
    # the outage covers the t=4 epoch; the other three (and the initial
    # plan) reach the solver, which reports into the same profiler
    assert obs.profiler.stats("optimizer-build").count == 4


def test_invariant_violation_in_chaos_run_freezes_recorder():
    from repro.devtools.invariants import InvariantViolation
    from repro.obs import Observability, ObservabilityConfig

    class ExplodingPolicy(SlatePolicy):
        def on_epoch(self, reports, ctx):
            raise InvariantViolation("synthetic failure")

    obs = Observability(ObservabilityConfig(provenance=True))
    with pytest.raises(InvariantViolation):
        run_chaos(_quick_scenario(), ExplodingPolicy(), _quick_plan(),
                  observability=obs)
    reasons = [s["trigger"]["reason"] for s in obs.provenance.snapshots]
    assert reasons == ["invariant"]
    assert obs.provenance.snapshots[0]["trigger"]["sim_time"] == 2.0


def test_plan_none_equals_empty_plan():
    with_none = run_chaos(_quick_scenario(), _quick_policy())
    with_empty = run_chaos(_quick_scenario(), _quick_policy(),
                           FaultPlan.empty())
    assert with_none.samples == with_empty.samples


# --------------------------------------------------- telemetry-age (decisions)


def test_decision_log_records_telemetry_age_under_drop():
    from repro.obs import ObservabilityConfig
    scenario = _quick_scenario()
    # [3, 7) starves epochs t=4 and t=6; the t=2 epoch feeds the
    # controller first so its view has something to age from
    plan = FaultPlan((
        TelemetryFault(start=3.0, duration=4.0, cluster="west"),
        TelemetryFault(start=3.0, duration=4.0, cluster="east"),
    ))
    result = run_chaos(scenario, _quick_policy(), plan,
                       observability=ObservabilityConfig(decisions=True))
    decisions = list(result.decisions)
    assert decisions, "decision log is empty"
    ages = {d.sim_time: d.telemetry_age for d in decisions}
    # while both clusters' reports are dropped the controller's view ages
    starved = [age for t, age in ages.items()
               if 3.0 < t < 7.0 and age is not None]
    assert starved and max(starved) > scenario.epoch
    # once telemetry flows again the age snaps back to ~0
    healthy = [age for t, age in ages.items() if t >= 7.0]
    assert healthy and min(healthy) == pytest.approx(0.0)
    assert result.chaos.reports_dropped > 0


# --------------------------------------------------------- scoring units


def _record(label="wan:a<->b", kind="WanFault", start=10.0, end=20.0):
    return FaultRecord(index=0, kind=kind, label=label, fired_at=start,
                       resolved_at=end)


def _flat_samples(rate_hz=10, until=40.0, lat=0.1):
    return [(i / rate_hz, lat) for i in range(int(until * rate_hz))]


def test_resilience_detection_is_first_signal_after_injection():
    report = compute_resilience(
        [_record()], _flat_samples(), _flat_samples(),
        detection_signals=[5.0, 12.0, 15.0],
        faulted_egress_cost=2.0, baseline_egress_cost=1.0)
    episode = report.episodes[0]
    assert episode.detection_seconds == pytest.approx(2.0)   # 12.0 - 10.0
    assert report.egress_overhead_cost == pytest.approx(1.0)
    assert report.egress_overhead_ratio == pytest.approx(2.0)


def test_resilience_recovery_waits_for_latency_band():
    # latency 10x during [10, 25) even though the fault "ends" at 20
    samples = [(t, 1.0 if 10.0 <= t < 25.0 else 0.1)
               for t, _ in _flat_samples()]
    report = compute_resilience(
        [_record()], samples, _flat_samples(), detection_signals=[],
        faulted_egress_cost=0.0, baseline_egress_cost=0.0, window=2.0)
    episode = report.episodes[0]
    assert episode.detection_seconds is None
    assert episode.baseline_p95 == pytest.approx(0.1)
    # first clean window starts at 26 (the [24,26) window straddles the
    # tail of the degradation): recovery = 26 + 2 - 10
    assert episode.recovery_seconds == pytest.approx(18.0)
    assert episode.requests_degraded > 0


def test_resilience_counts_failed_requests():
    samples = _flat_samples()
    samples[120] = (12.0, None)
    samples[130] = (13.0, None)
    report = compute_resilience(
        [_record()], samples, _flat_samples(), detection_signals=[10.0],
        faulted_egress_cost=0.0, baseline_egress_cost=0.0)
    assert report.episodes[0].requests_failed == 2


def test_resilience_validates_band_and_window():
    with pytest.raises(ValueError):
        compute_resilience([], [], [], [], 0.0, 0.0, band=0.5)
    with pytest.raises(ValueError):
        compute_resilience([], [], [], [], 0.0, 0.0, window=0.0)


def test_fault_record_overlap_matches_alert_semantics():
    record = _record(start=10.0, end=20.0)
    assert record.overlaps(10.0) and record.overlaps(20.0)
    assert not record.overlaps(9.99) and not record.overlaps(20.01)
