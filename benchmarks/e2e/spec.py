"""The ledger's vocabulary: workloads, end-to-end metrics, per-layer metrics.

Single source of truth for names, units, directions and bounds;
``BENCHMARK.json`` is checked against it by the smoke test. ``exact`` marks
deterministic-per-seed readings that ``compare``/``selfcheck`` hold to zero
tolerance; ``moves`` records, before anything was measured, which end-to-end
metric on which workload a per-layer metric is expected to move (on every
other workload the prediction is *no change*).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["WORKLOADS", "END_TO_END", "PER_LAYER", "Metric", "exact_names"]

#: name -> one-line reason the workload exists
WORKLOADS: dict[str, str] = {
    "mesh_event": (
        "Fig. 6b data plane at event fidelity: engine, gateway/proxy, pools, "
        "WAN and telemetry carry the wall time; optimizer and fluid idle"),
    "fluid_day_1m": (
        "1M simulated RPS diurnal day, hybrid fidelity: the same pool/"
        "gateway/telemetry contracts driven in bulk by the fluid tick"),
    "ctl_steady_path": (
        "control plane only, path formulation at 48 clusters: the replay/"
        "warm-build/warm-solve reuse ladder under smoothly moving demand"),
    "ctl_churn_arc": (
        "control plane only, arc formulation with a replica change every "
        "epoch: every plan is a cold vectorized build plus a cold solve"),
    "closed_loop": (
        "every layer live at once: 24-cluster path-formulation controller "
        "driving a 1M RPS hybrid run with observability on"),
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: end-to-end only: share of the parent's median it may worsen by
    bound: float | None = None
    #: deterministic per seed: compared at zero tolerance
    exact: bool = False
    #: "<end-to-end metric> on <workload>" this reading should move
    moves: str = ""


#: what the driver gates: every workload reports every one, with --trace 0
END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("wall_s", "s", "lower", 0.25),
    Metric("latency_mean_ms", "ms", "lower", 0.08),
    Metric("peak_rss_mb", "MB", "lower", 0.20),
)


def _m(name: str, unit: str = "s", better: str = "lower",
       exact: bool = False, moves: str = "",
       bound: float | None = None) -> Metric:
    return Metric(name, unit, better, bound, exact, moves)


_MESH = "sim_req_per_s on mesh_event"
_FLUID = "sim_req_per_s on fluid_day_1m, closed_loop"
_STEADY = "plan_ms_p50 on ctl_steady_path"
_CHURN = "plan_ms_p50 on ctl_churn_arc"
_LOOP = "wall_s on closed_loop"

#: what --trace 1 reports. The first block is the workload-level readings
#: of the trace run's *untraced* round: end-to-end in nature, but only some
#: workloads have them, so the driver cannot gate them; their bounds are
#: what ``compare``/``selfcheck`` apply. The rest is one layer each, from
#: the traced round.
PER_LAYER: tuple[Metric, ...] = (
    _m("cold_plan_s", bound=0.25),
    _m("sim_req_per_s", "1/s", "higher", bound=0.25),
    _m("plan_ms_p50", "ms", bound=0.20),
    _m("plan_ms_p90", "ms", bound=0.25),
    _m("plan_pred_latency_ms", "ms", exact=True),
    _m("sim_latency_mean_ms", "ms", exact=True),
    _m("sim_latency_p99_ms", "ms", exact=True),
    _m("sim_egress_gb", "GB", exact=True),
    _m("failed_frac", "ratio", exact=True),

    _m("sim.engine.events", "count", exact=True, moves=_MESH),
    _m("sim.engine.events_per_req", "ratio", exact=True, moves=_MESH),
    _m("sim.engine.self_s", moves=_MESH),
    _m("sim.workload.arrivals", "count", exact=True, moves=_MESH),
    _m("sim.workload.self_s", moves=_MESH),
    _m("mesh.gateway.accept_calls", "count", exact=True, moves=_MESH),
    _m("mesh.gateway.bulk_calls", "count", exact=True,
       moves="sim_req_per_s on fluid_day_1m"),
    _m("mesh.gateway.self_s", moves=_MESH),
    _m("mesh.proxy.choose_calls", "count", exact=True, moves=_MESH),
    _m("mesh.proxy.self_s", moves=_MESH),
    _m("mesh.telemetry.spans", "count", exact=True, moves=_MESH),
    _m("mesh.telemetry.record_s", moves=_MESH),
    _m("mesh.telemetry.harvest_s", moves=_LOOP),
    _m("sim.service.submits", "count", exact=True, moves=_MESH),
    _m("sim.service.self_s", moves=_MESH),
    _m("sim.network.transfers", "count", exact=True, moves=_MESH),
    _m("sim.network.self_s", moves=_MESH),
    _m("sim.runner.self_s", moves=_MESH),
    _m("sim.fluid.ticks", "count", exact=True, moves=_FLUID),
    _m("sim.fluid.propagate_s", moves=_FLUID),
    _m("sim.fluid.routing_matrix_calls", "count", exact=True, moves=_FLUID),
    _m("sim.fluid.routing_matrix_s", moves=_FLUID),
    _m("sim.fluid.pool_update_s", moves=_FLUID),
    _m("sim.fluid.tick_self_s", moves=_FLUID),
    _m("core.controller.epochs", "count", exact=True, moves=_STEADY),
    _m("core.controller.fallbacks", "count", exact=True, moves=_STEADY),
    _m("core.controller.observe_s", moves=_STEADY),
    _m("core.controller.build_problem_s", moves=_STEADY),
    _m("core.controller.plan_self_s", moves=_STEADY),
    _m("core.optimizer.cold_builds", "count", exact=True, moves=_CHURN),
    _m("core.optimizer.warm_builds", "count", exact=True, moves=_STEADY),
    _m("core.optimizer.cold_solves", "count", exact=True, moves=_CHURN),
    _m("core.optimizer.warm_solves", "count", exact=True, moves=_STEADY),
    _m("core.optimizer.warm_rejects", "count", exact=True,
       moves="plan_ms_p90 on ctl_steady_path"),
    _m("core.optimizer.replays", "count", exact=True, moves=_STEADY),
    _m("core.optimizer.reuse_ratio", "ratio", "higher", exact=True,
       moves=_STEADY),
    _m("core.optimizer.lp_rows", "count", exact=True, moves=_CHURN),
    _m("core.optimizer.lp_cols", "count", exact=True, moves=_CHURN),
    _m("core.optimizer.lp_nnz", "count", exact=True, moves=_CHURN),
    _m("core.optimizer.candidates_s",
       moves="cold_plan_s on ctl_steady_path"),
    _m("core.optimizer.build_s",
       moves="cold_plan_s on ctl_steady_path, closed_loop; " + _CHURN),
    _m("core.optimizer.solve_s",
       moves="plan_ms_p50/p90 on ctl_churn_arc, ctl_steady_path"),
    _m("core.optimizer.highs_s",
       moves="plan_ms_p50/p90 on ctl_churn_arc, ctl_steady_path"),
    _m("core.optimizer.fingerprint_s", moves=_STEADY),
    _m("core.optimizer.extract_s", moves=_STEADY),
    _m("core.rules.rules_emitted", "count", exact=True, moves=_STEADY),
    _m("core.rules.extract_s", moves=_STEADY),
    _m("mesh.routing_table.rules_installed", "count", exact=True,
       moves=_STEADY),
    _m("mesh.routing_table.install_s", moves=_STEADY),
    _m("obs.scrape_samples", "count", exact=True, moves=_LOOP),
    _m("obs.scrape_s", moves=_LOOP),
    _m("obs.epoch_records_s", moves=_LOOP),
    _m("obs.collect_s", moves=_LOOP),
    _m("experiments.harness.self_s", moves=_LOOP),
    _m("bench.trace_overhead_frac", "ratio"),
    _m("bench.unattributed_s"),
)


def exact_names() -> frozenset[str]:
    return frozenset(m.name for m in PER_LAYER if m.exact)
