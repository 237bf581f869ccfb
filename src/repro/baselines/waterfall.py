"""The Waterfall algorithm: capacity-based global load balancing (§4).

This is the paper's state-of-the-art baseline, modelling Google Traffic
Director and Meta ServiceRouter: "each service has a predefined capacity,
which is in terms of requests (of any type) per second ... Requests beyond
this capacity are greedily offloaded to the nearest region with available
capacity."

Key properties reproduced faithfully:

* **static thresholds** — capacity is configured, not derived from live
  latency (Fig. 3's conservative/aggressive pathology);
* **greedy nearest-first spill** — each overloaded cluster fills the closest
  spare capacity first, with no global matching (§4.2);
* **single-hop** — the split at a service depends only on that service's
  replica pools; load arriving at children is whatever falls out (§4.3);
* **class-blind** — requests are interchangeable; every class at a source
  cluster gets the same split (§4.4, wildcard-class rules).

Offered load at non-root services is derived by cascading the ingress demand
down the union call graph in topological order — the steady state the
runtime converges to.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.rules import RoutingRule, RuleSet
from ..mesh.routing_table import WILDCARD_CLASS
from ..mesh.telemetry import ClusterEpochReport
from ..sim.apps import AppSpec
from ..sim.topology import DeploymentSpec
from ..sim.workload import DemandMatrix
from .base import PolicyContext

__all__ = ["WaterfallConfig", "WaterfallPolicy", "waterfall_split",
           "cascade_loads"]


@dataclass
class WaterfallConfig:
    """Static per-(service, cluster) capacity thresholds, requests/second."""

    capacities: dict[tuple[str, str], float]

    def __post_init__(self) -> None:
        for key, cap in self.capacities.items():
            if cap < 0:
                raise ValueError(f"negative capacity for {key}: {cap}")

    def capacity(self, service: str, cluster: str) -> float:
        return self.capacities.get((service, cluster), 0.0)

    @staticmethod
    def from_deployment(app: AppSpec, deployment: DeploymentSpec,
                        threshold_rho: float = 0.8) -> "WaterfallConfig":
        """Derive thresholds the way operators do: utilization targets.

        capacity = threshold_rho × replicas / mean service time, where the
        mean is across the classes touching the service — the "requests of
        any type per second" configuration the paper describes.
        """
        if not 0 < threshold_rho <= 1:
            raise ValueError(
                f"threshold_rho must be in (0, 1], got {threshold_rho}")
        mean_st: dict[str, float] = {}
        for service in app.services():
            times = [spec.exec_time_of(service)
                     for spec in app.classes.values()
                     if service in spec.services()]
            positive = [t for t in times if t > 0]
            mean_st[service] = (sum(positive) / len(positive)
                                if positive else 0.0)
        capacities = {}
        for cluster in deployment.clusters:
            for service, replicas in cluster.replicas.items():
                if replicas <= 0:
                    continue
                st = mean_st.get(service, 0.0)
                capacities[(service, cluster.name)] = (
                    threshold_rho * replicas / st if st > 0 else float("inf"))
        return WaterfallConfig(capacities)


def waterfall_split(loads: dict[str, float],
                    capacities: dict[str, float],
                    deployed: list[str],
                    proximity: dict[str, list[str]],
                    coordinated: bool = False,
                    ) -> dict[str, dict[str, float]]:
    """Greedy capacity-based split for one service.

    ``loads[src]`` is offered RPS originating at each cluster;
    ``capacities[c]`` the static threshold at each deployed cluster;
    ``proximity[src]`` every deployed cluster ordered nearest-first.
    Returns ``split[src][dst]`` fractions summing to 1 per loaded source.

    With ``coordinated=False`` (the default, matching the paper's §4.2
    observation) each overloaded source judges remote spare capacity
    *independently* — spare = capacity − that cluster's own offered load —
    so two overloaded clusters both dump on the same nearest neighbour.
    ``coordinated=True`` is the idealised variant where spills consume a
    shared spare-capacity pool (used by ablations).

    Excess that finds no spare stays local when possible, else goes to the
    nearest deployed cluster — the locality-failover behaviour built into
    these systems.
    """
    if not deployed:
        raise ValueError("service deployed nowhere")
    assigned: dict[str, dict[str, float]] = {
        src: {} for src, load in loads.items() if load > 0}
    shared_spare = {c: max(0.0, capacities.get(c, 0.0) - loads.get(c, 0.0))
                    for c in deployed}
    excess: dict[str, float] = {}
    for src, load in loads.items():
        if load <= 0:
            continue
        if src in deployed:
            local_keep = min(load, capacities.get(src, 0.0))
            if local_keep > 0:
                assigned[src][src] = local_keep
            excess[src] = load - local_keep
        else:
            excess[src] = load

    for src in sorted(excess, key=lambda s: (-excess[s], s)):
        remaining = excess[src]
        if remaining <= 0:
            continue
        spare = (shared_spare if coordinated
                 else {c: max(0.0, capacities.get(c, 0.0) - loads.get(c, 0.0))
                       for c in deployed})
        for dst in proximity[src]:
            if dst == src or remaining <= 0:
                continue
            take = min(remaining, spare.get(dst, 0.0))
            if take > 0:
                assigned[src][dst] = assigned[src].get(dst, 0.0) + take
                spare[dst] -= take
                remaining -= take
        if remaining > 0:
            # nowhere has spare capacity: overload locally if possible,
            # else dump on the nearest deployed cluster
            sink = src if src in deployed else proximity[src][0]
            assigned[src][sink] = assigned[src].get(sink, 0.0) + remaining

    split: dict[str, dict[str, float]] = {}
    for src, flows in assigned.items():
        total = sum(flows.values())
        split[src] = {dst: flow / total for dst, flow in flows.items()}
    return split


def _topological_order(app: AppSpec) -> list[str]:
    """The services of the union call graph, every caller before its callees.

    Kahn's algorithm with nodes and successors in first-insertion order, one
    generation after another — networkx's ``topological_sort`` order, which
    fixes the order :func:`cascade_loads` adds child loads in.
    """
    callees: dict[str, dict[str, None]] = {}
    for spec in app.classes.values():
        callees.setdefault(spec.root_service, {})
        for edge in spec.edges:
            callees.setdefault(edge.caller, {})[edge.callee] = None
            callees.setdefault(edge.callee, {})
    indegree = dict.fromkeys(callees, 0)
    for children in callees.values():
        for child in children:
            indegree[child] += 1
    order = [service for service, degree in indegree.items() if degree == 0]
    for service in order:   # grows while iterated: the next generation
        for child in callees[service]:
            indegree[child] -= 1
            if indegree[child] == 0:
                order.append(child)
    if len(order) < len(callees):
        raise ValueError(
            f"app {app.name!r}: union call graph has a cycle; waterfall "
            "cascade requires a DAG")
    return order


def cascade_loads(app: AppSpec, deployment: DeploymentSpec,
                  demand: DemandMatrix, config: WaterfallConfig,
                  coordinated: bool = False,
                  ) -> tuple[dict[str, dict[str, dict[str, float]]],
                             dict[str, dict[str, float]]]:
    """Propagate ingress demand down the call graph under waterfall splits.

    Returns ``(split, offered)``: per-service source→destination split
    fractions, and the per-service per-cluster offered load (RPS) that
    produced them.
    """
    order = _topological_order(app)
    clusters = deployment.cluster_names

    # per-class offered load at each service/cluster
    offered: dict[tuple[str, str], dict[str, float]] = {}
    for name, spec in app.classes.items():
        root = spec.root_service
        arriving = offered.setdefault((name, root), {})
        for cluster in clusters:
            rps = demand.rps(name, cluster)
            if rps > 0:
                arriving[cluster] = arriving.get(cluster, 0.0) + rps

    split: dict[str, dict[str, dict[str, float]]] = {}
    total_offered: dict[str, dict[str, float]] = {}
    for service in order:
        deployed = deployment.clusters_with(service)
        if not deployed:
            raise ValueError(f"service {service!r} deployed nowhere")
        loads = {c: 0.0 for c in clusters}
        for name in app.classes:
            for cluster, rps in offered.get((name, service), {}).items():
                loads[cluster] += rps
        total_offered[service] = dict(loads)
        proximity = {
            src: sorted(deployed,
                        key=lambda c: (deployment.latency.one_way(src, c), c))
            for src in clusters
        }
        capacities = {c: config.capacity(service, c) for c in deployed}
        service_split = waterfall_split(loads, capacities, deployed,
                                        proximity,
                                        coordinated=coordinated)
        # sources with no load still need a defined rule for the runtime
        for src in clusters:
            if src not in service_split:
                target = src if src in deployed else proximity[src][0]
                service_split[src] = {target: 1.0}
        split[service] = service_split

        # executions land where the split sends them; children inherit
        for name, spec in app.classes.items():
            arriving = offered.get((name, service), {})
            if not arriving:
                continue
            executions: dict[str, float] = {}
            for src, rps in arriving.items():
                for dst, fraction in service_split[src].items():
                    executions[dst] = executions.get(dst, 0.0) + rps * fraction
            for edge in spec.children_map().get(service, []):
                child = offered.setdefault((name, edge.callee), {})
                for dst, rate in executions.items():
                    child[dst] = (child.get(dst, 0.0)
                                  + rate * edge.calls_per_request)
    return split, total_offered


class WaterfallPolicy:
    """Traffic Director / ServiceRouter-style routing policy."""

    name = "waterfall"

    def __init__(self, config: WaterfallConfig, adaptive: bool = False,
                 coordinated: bool = False) -> None:
        self.config = config
        self.adaptive = adaptive
        self.coordinated = coordinated

    def compute_rules(self, ctx: PolicyContext) -> RuleSet:
        split, _ = cascade_loads(ctx.app, ctx.deployment, ctx.demand,
                                 self.config, coordinated=self.coordinated)
        rules = RuleSet()
        for service in sorted(split):
            for src in sorted(split[service]):
                rules.add(RoutingRule.make(service, WILDCARD_CLASS, src,
                                           split[service][src]))
        return rules

    def on_epoch(self, reports: list[ClusterEpochReport],
                 ctx: PolicyContext) -> RuleSet | None:
        """Adaptive mode: recompute the cascade from observed ingress."""
        if not self.adaptive:
            return None
        observed = DemandMatrix()
        for report in reports:
            for cls in ctx.app.classes:
                rps = report.ingress_rps(cls)
                if rps > 0:
                    observed.set(cls, report.cluster, rps)
        if observed.total_rps() <= 0:
            return None
        refreshed = PolicyContext(ctx.app, ctx.deployment, observed)
        return self.compute_rules(refreshed)
