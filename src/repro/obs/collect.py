"""Metric collection: snapshot simulation/controller state into a registry.

Instrumentation here is *pull-based*: nothing in the data or control plane
calls the registry on its hot path. Instead, collectors read the counters
those components already maintain (engine event counts, pool depths,
gateway conservation counters, the egress ledger, solver cache stats) and
fold them into labeled metrics after — or between — runs. That keeps the
enabled-observability overhead near zero and the disabled case literally
zero.
"""

from __future__ import annotations

from typing import NamedTuple

from .metrics import MetricsRegistry
from .profiler import ControlPlaneProfiler

__all__ = ["STATE_METRICS", "StateMetric", "collect_controller_metrics",
           "collect_profiler_metrics", "collect_simulation_metrics",
           "walk_state"]


class StateMetric(NamedTuple):
    """One counter or gauge :func:`walk_state` reads off a simulation."""

    name: str
    #: "counter" or "gauge"
    kind: str
    help: str
    #: sampled into the time-series store at every scrape tick
    scraped: bool = True
    #: snapshotted into the metrics registry at the end of a run
    collected: bool = True


ENGINE_EVENTS = StateMetric("engine_events_total", "counter",
                            "events processed by the discrete-event engine")
ENGINE_PENDING = StateMetric("engine_pending_events", "gauge",
                             "heap depth at snapshot time")
ENGINE_TIME = StateMetric("engine_sim_time_seconds", "gauge",
                          "simulated clock at snapshot time", scraped=False)
POOL_QUEUE = StateMetric("pool_queue_depth", "gauge",
                         "jobs waiting for a replica")
POOL_BUSY = StateMetric("pool_busy_replicas", "gauge",
                        "replicas executing a job")
POOL_REPLICAS = StateMetric("pool_replicas", "gauge",
                            "provisioned replica count", scraped=False)
POOL_UTILIZATION = StateMetric("pool_utilization", "gauge",
                               "lifetime busy fraction per replica")
GATEWAY_ADMITTED = StateMetric("gateway_admitted_total", "counter",
                               "requests admitted at the ingress gateway")
GATEWAY_COMPLETED = StateMetric("gateway_completed_total", "counter",
                                "requests completed end-to-end")
GATEWAY_FAILED = StateMetric("gateway_failed_total", "counter",
                             "requests that exhausted retries")
GATEWAY_OPEN = StateMetric("gateway_open_requests", "gauge",
                           "requests admitted but not yet settled")
WAN_BYTES = StateMetric("wan_egress_bytes_total", "counter",
                        "bytes crossing the WAN per directed cluster pair")
#: the registry bills egress per source cluster, the store scrapes the total
WAN_COST_BY_SRC = StateMetric("wan_egress_cost_dollars_total", "counter",
                              "egress spend billed to the source cluster",
                              scraped=False)
WAN_COST = StateMetric("wan_egress_cost_dollars_total", "counter",
                       "egress spend across every source cluster",
                       collected=False)
CALLS_DROPPED = StateMetric("calls_dropped_total", "counter",
                            "calls lost to a service that failed in flight")
CALLS_TIMED_OUT = StateMetric("calls_timed_out_total", "counter",
                              "call attempts abandoned past their deadline")
CALLS_HEDGED = StateMetric("calls_hedged_total", "counter",
                           "duplicate calls launched by the hedging policy")

#: every metric :func:`walk_state` yields, in walk order
STATE_METRICS = (ENGINE_EVENTS, ENGINE_PENDING, ENGINE_TIME, POOL_QUEUE,
                 POOL_BUSY, POOL_REPLICAS, POOL_UTILIZATION,
                 GATEWAY_ADMITTED, GATEWAY_COMPLETED, GATEWAY_FAILED,
                 GATEWAY_OPEN, WAN_BYTES, WAN_COST_BY_SRC, WAN_COST,
                 CALLS_DROPPED, CALLS_TIMED_OUT, CALLS_HEDGED)


def walk_state(simulation):
    """One walk of a :class:`~repro.sim.runner.MeshSimulation`'s engine,
    pool, gateway, WAN-ledger and call counters: yields ``(metric,
    labels, value)`` for the end-of-run snapshot and each scrape alike."""
    sim = simulation.sim
    now = sim.now
    yield ENGINE_EVENTS, {}, sim.events_processed
    yield ENGINE_PENDING, {}, sim.pending_events
    yield ENGINE_TIME, {}, now

    for cluster_name in sorted(simulation.clusters):
        cluster = simulation.clusters[cluster_name]
        for service in sorted(cluster.pools):
            pool = cluster.pools[service]
            labels = {"service": service, "cluster": cluster_name}
            yield POOL_QUEUE, labels, pool.queue_length
            yield POOL_BUSY, labels, pool.busy_replicas
            yield POOL_REPLICAS, labels, pool.replicas
            if now > 0 and pool.replicas > 0:
                utilization = (pool.lifetime_busy_seconds
                               / (pool.replicas * now))
            else:
                utilization = 0.0
            yield POOL_UTILIZATION, labels, utilization

    for cluster_name in sorted(simulation.gateways):
        gateway = simulation.gateways[cluster_name]
        labels = {"cluster": cluster_name}
        yield GATEWAY_ADMITTED, labels, gateway.admitted_count
        yield GATEWAY_COMPLETED, labels, gateway.completed_count
        yield GATEWAY_FAILED, labels, gateway.failed_count
        yield GATEWAY_OPEN, labels, gateway.open_requests

    ledger = simulation.network.ledger
    for (src, dst) in sorted(ledger.bytes_by_pair):
        yield WAN_BYTES, {"src": src, "dst": dst}, ledger.bytes_by_pair[
            (src, dst)]
    for src in sorted(ledger.cost_by_src):
        yield WAN_COST_BY_SRC, {"src": src}, ledger.cost_by_src[src]
    yield WAN_COST, {}, ledger.total_cost

    yield CALLS_DROPPED, {}, simulation.dropped_calls
    yield CALLS_TIMED_OUT, {}, simulation.timed_out_calls
    yield CALLS_HEDGED, {}, simulation.hedged_calls


def collect_simulation_metrics(registry: MetricsRegistry,
                               simulation) -> None:
    """Snapshot a :class:`~repro.sim.runner.MeshSimulation` into metrics."""
    for metric, labels, value in walk_state(simulation):
        if not metric.collected:
            continue
        if metric.kind == "counter":
            registry.counter(metric.name, metric.help).inc(value, **labels)
        else:
            registry.gauge(metric.name, metric.help).set(value, **labels)

    latency = registry.histogram(
        "request_latency_seconds",
        "end-to-end request latency by traffic class")
    for cls, values in sorted(
            simulation.telemetry.latencies_by_class().items()):
        for value in values:
            latency.observe(value, traffic_class=cls)


def collect_controller_metrics(registry: MetricsRegistry,
                               controller) -> None:
    """Snapshot a :class:`GlobalController` (adaptive runs) into metrics."""
    if controller is None:
        return
    registry.counter(
        "controller_epochs_observed_total",
        "telemetry epochs folded into learned state").inc(
            controller.epochs_observed)
    epoch_solver = getattr(controller, "epoch_solver", None)
    if epoch_solver is not None:
        registry.counter(
            "optimizer_builds_total",
            "model assemblies over the run").inc(epoch_solver.builds)
        registry.counter(
            "optimizer_warm_builds_total",
            "assemblies that instantiated the previous epoch's "
            "structure").inc(
                epoch_solver.warm_builds)
        registry.counter(
            "optimizer_build_seconds_total",
            "wall-clock seconds spent assembling models").inc(
                epoch_solver.build_seconds)
        registry.counter(
            "optimizer_solves_total",
            "solver invocations (cold or warm)").inc(
                epoch_solver.solves)
        registry.counter(
            "optimizer_warm_solves_total",
            "hot starts from the previous epoch's HiGHS basis that ended "
            "optimal").inc(epoch_solver.warm_solves)
        registry.counter(
            "optimizer_warm_rejects_total",
            "hot starts that did not end optimal and were re-run "
            "cold").inc(epoch_solver.warm_rejects)
        registry.counter(
            "optimizer_cold_solves_total",
            "solves that assembled and solved the full model").inc(
                epoch_solver.solves - epoch_solver.warm_solves)
        registry.counter(
            "optimizer_solve_seconds_total",
            "wall-clock seconds spent in the solver").inc(
                epoch_solver.solve_seconds)
        candidates = getattr(epoch_solver, "last_candidate_stats", None)
        if candidates is not None:
            registry.gauge(
                "optimizer_path_candidates",
                "path variables in the most recent model").set(
                    candidates["paths"])
            registry.gauge(
                "optimizer_path_candidate_groups",
                "(class, ingress) groups in the most recent model").set(
                    candidates["groups"])
    result = controller.last_result
    if result is not None:
        registry.gauge(
            "solver_objective",
            "objective value of the most recent plan").set(result.objective)
        registry.gauge(
            "solver_wall_time_seconds",
            "wall-clock time of the most recent solve").set(
                result.solve_time)
        registry.gauge(
            "solver_variables",
            "decision variables in the most recent model").set(
                result.n_variables)
        registry.gauge(
            "solver_constraints",
            "rows in the most recent model").set(result.n_constraints)
        registry.gauge(
            "solver_total_demand_rps",
            "demand the most recent plan routed").set(result.total_demand)
        registry.gauge(
            "solver_build_time_seconds",
            "model assembly time of the most recent plan").set(
                result.build_time)
        registry.gauge(
            "solver_warm_start",
            "1 when the most recent solve was warm-started").set(
                float(result.warm_start))
        registry.gauge(
            "solver_warm_build",
            "1 when the most recent build reused cached structure").set(
                float(result.warm_build))


def collect_profiler_metrics(registry: MetricsRegistry,
                             profiler: ControlPlaneProfiler | None) -> None:
    """Fold control-plane wall-time sections into metrics."""
    if profiler is None:
        return
    for name in profiler.section_names():
        stats = profiler.stats(name)
        labels = {"section": name}
        registry.counter(
            "control_plane_section_runs_total",
            "times each profiled control-plane section executed").inc(
                stats.count, **labels)
        registry.counter(
            "control_plane_section_seconds_total",
            "wall-clock seconds spent per control-plane section").inc(
                stats.total, **labels)
        registry.gauge(
            "control_plane_section_max_seconds",
            "slowest single execution per section").set(
                stats.max, **labels)
