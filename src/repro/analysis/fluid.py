"""Fluid-model evaluation: predict steady-state behaviour from routing rules.

Given an application, deployment, demand, and a rule set, propagate demand
deterministically down every class's call tree (rates, not discrete
requests), yielding per-pool offered work, cross-cluster flows, predicted
mean latency (via the queueing models), and egress cost rate.

The propagation is the fluid substrate's kernel,
:meth:`~repro.sim.fluid.flows.FlowModel.propagate`, run once on a routing
table holding the rules with every pool healthy. Only the pricing differs
from a tick: the tick caps a saturated pool's wait and sheds the excess,
while a steady-state prediction prices offered work with the uncapped
:class:`~repro.core.latency.mm1.PoolDelayModel`, so an overloaded pool
makes it unstable (infinite backlog).

This is the analytic counterpart of a full simulation run — used by the
Fig. 3/Fig. 4 benches (which need many points quickly) and as a test oracle:
simulated means converge to fluid predictions as run length grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.latency.mm1 import PoolDelayModel
from ..core.rules import RuleSet
from ..mesh.routing_table import RoutingTable
from ..sim.apps import AppSpec
from ..sim.fluid.flows import FlowModel, FluidTickSolution
from ..sim.topology import DeploymentSpec
from ..sim.workload import DemandMatrix, check_demand_names

__all__ = ["FluidPrediction", "evaluate_rules"]


@dataclass
class FluidPrediction:
    """Predicted steady-state behaviour under a rule set."""

    #: the kernel's flows: per-class and per-hop rates over the clusters
    solution: FluidTickSolution
    #: (service, cluster) → offered work, erlangs
    pool_work: dict[tuple[str, str], float]
    pool_utilization: dict[tuple[str, str], float]
    backlog: float
    network_delay_rate: float
    egress_cost_rate: float
    egress_bytes_rate: float
    total_demand: float

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
        return float(self.solution.hop_remote_rates.sum())


def evaluate_rules(app: AppSpec, deployment: DeploymentSpec,
                   demand: DemandMatrix, rules: RuleSet,
                   delay_model: str = "mmc") -> FluidPrediction:
    """Propagate demand through the rules and predict performance."""
    check_demand_names([(cls, cluster) for cls, cluster, _ in demand.items()],
                       app.classes, deployment.cluster_names)
    table = RoutingTable()
    rules.apply(table)
    replicas = {(service, spec.name): count for spec in deployment.clusters
                for service, count in spec.replicas.items()}
    solution = FlowModel(app, deployment, table, deployment.latency,
                         deployment.pricing).propagate(
        demand, {pool: (count, 1.0) for pool, count in replicas.items()})
    work = solution.pool_offered
    return FluidPrediction(
        solution=solution, pool_work=work,
        pool_utilization={pool: load / replicas[pool]
                          for pool, load in work.items()},
        backlog=sum((PoolDelayModel(replicas[pool], mode=delay_model)
                     .backlog(load) for pool, load in work.items()), 0.0),
        network_delay_rate=sum((state.network_delay_rate
                                for state in solution.per_class.values()),
                               0.0),
        egress_cost_rate=solution.egress_cost_rate,
        egress_bytes_rate=float(solution.egress_bytes.sum()),
        total_demand=demand.total_rps())
