"""Fluid-model evaluation: predict system behaviour from routing rules.

Given an application, deployment, demand, and a rule set, propagate demand
deterministically down every class's call tree (rates, not discrete
requests), yielding per-pool offered work, per-edge cross-cluster flows,
predicted mean latency (via the queueing models), and egress cost rate.

This is the analytic counterpart of a full simulation run — used by the
Fig. 3/Fig. 4 benches (which need many points quickly) and as a test oracle:
simulated means converge to fluid predictions as run length grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..core.latency.mm1 import PoolDelayModel
from ..core.rules import RuleSet
from ..mesh.routing_table import effective_weights, matched_weights
from ..sim.apps import AppSpec
from ..sim.topology import DeploymentSpec
from ..sim.workload import DemandMatrix

__all__ = ["FluidFlow", "FluidPrediction", "evaluate_rules"]


@dataclass(frozen=True)
class FluidFlow:
    """One (class, edge, src, dst) flow in the fluid solution."""

    traffic_class: str
    edge_index: int          # -1 = ingress hop
    src: str
    dst: str
    rate: float
    request_bytes: int
    response_bytes: int


@dataclass
class FluidPrediction:
    """Predicted steady-state behaviour under a rule set."""

    flows: list[FluidFlow] = field(default_factory=list)
    #: (service, cluster) → offered work, erlangs
    pool_work: dict[tuple[str, str], float] = field(default_factory=dict)
    pool_utilization: dict[tuple[str, str], float] = field(
        default_factory=dict)
    backlog: float = 0.0
    network_delay_rate: float = 0.0
    egress_cost_rate: float = 0.0
    egress_bytes_rate: float = 0.0
    total_demand: float = 0.0

    @property
    def stable(self) -> bool:
        """False when any pool is at or beyond capacity."""
        return math.isfinite(self.backlog)

    @property
    def mean_latency(self) -> float:
        """Predicted mean end-to-end latency, seconds (inf if unstable)."""
        if self.total_demand <= 0:
            return 0.0
        return (self.backlog + self.network_delay_rate) / self.total_demand

    def cross_cluster_rate(self) -> float:
        """Total requests/second crossing cluster boundaries."""
        return sum(f.rate for f in self.flows if f.src != f.dst)


class _RuleLookup:
    """Weights for (service, class, src): the split a proxy would apply."""

    def __init__(self, rules: RuleSet, deployment: DeploymentSpec) -> None:
        self._rules = rules.by_key()
        self._deployment = deployment

    def weights(self, service: str, traffic_class: str,
                src: str) -> dict[str, float]:
        deployed = self._deployment.clusters_with(service)
        if not deployed:
            raise ValueError(f"service {service!r} deployed nowhere")
        usable = effective_weights(
            matched_weights(self._rules, service, traffic_class, src),
            src, deployed, self._deployment.latency)
        total = sum(usable.values())
        return {c: w / total for c, w in usable.items()}


def evaluate_rules(app: AppSpec, deployment: DeploymentSpec,
                   demand: DemandMatrix, rules: RuleSet,
                   delay_model: str = "mmc") -> FluidPrediction:
    """Propagate demand through the rules and predict performance."""
    lookup = _RuleLookup(rules, deployment)
    prediction = FluidPrediction(total_demand=demand.total_rps())

    for cls_name, spec in sorted(app.classes.items()):
        # execution rate of each service at each cluster for this class
        exec_rate: dict[tuple[str, str], float] = {}
        # ingress hop
        for cluster in deployment.cluster_names:
            rps = demand.rps(cls_name, cluster)
            if rps <= 0:
                continue
            for dst, weight in lookup.weights(spec.root_service, cls_name,
                                              cluster).items():
                rate = rps * weight
                prediction.flows.append(FluidFlow(
                    cls_name, -1, cluster, dst, rate,
                    spec.ingress_request_bytes, spec.ingress_response_bytes))
                key = (spec.root_service, dst)
                exec_rate[key] = exec_rate.get(key, 0.0) + rate
        # walk the tree in BFS order (parents before children)
        for service in spec.services():
            for edge_index, edge in enumerate(spec.edges):
                if edge.caller != service:
                    continue
                for cluster in deployment.cluster_names:
                    origin = exec_rate.get((service, cluster), 0.0)
                    if origin <= 0:
                        continue
                    call_rate = origin * edge.calls_per_request
                    for dst, weight in lookup.weights(
                            edge.callee, cls_name, cluster).items():
                        rate = call_rate * weight
                        prediction.flows.append(FluidFlow(
                            cls_name, edge_index, cluster, dst, rate,
                            edge.request_bytes, edge.response_bytes))
                        key = (edge.callee, dst)
                        exec_rate[key] = exec_rate.get(key, 0.0) + rate
        # accumulate offered work
        for (service, cluster), rate in exec_rate.items():
            st = spec.exec_time_of(service)
            if st > 0:
                key = (service, cluster)
                prediction.pool_work[key] = (
                    prediction.pool_work.get(key, 0.0) + rate * st)

    # queueing backlog
    backlog = 0.0
    for (service, cluster), work in prediction.pool_work.items():
        replicas = deployment.replicas(service, cluster)
        if replicas <= 0:
            raise ValueError(
                f"flow routed to undeployed pool {service!r}@{cluster!r}")
        prediction.pool_utilization[(service, cluster)] = work / replicas
        model = PoolDelayModel(replicas, mode=delay_model)
        backlog += model.backlog(work)
    prediction.backlog = backlog

    # network delay and egress
    for flow in prediction.flows:
        prediction.network_delay_rate += (
            flow.rate * deployment.latency.rtt(flow.src, flow.dst))
        if flow.src != flow.dst:
            out_cost = deployment.pricing.per_byte(flow.src, flow.dst)
            back_cost = deployment.pricing.per_byte(flow.dst, flow.src)
            prediction.egress_cost_rate += flow.rate * (
                flow.request_bytes * out_cost
                + flow.response_bytes * back_cost)
            prediction.egress_bytes_rate += flow.rate * (
                flow.request_bytes + flow.response_bytes)
    return prediction
