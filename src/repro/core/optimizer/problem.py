"""TE problem description consumed by the Global Controller's optimizer.

A :class:`TEProblem` captures everything §3.3's formulation needs: for each
traffic class its load-to-latency inputs (per-service compute times), call
tree, and demand; plus clusters, replica placement, inter-cluster network
latency, and egress bandwidth prices.

Problems are built either from ground-truth specs (:meth:`TEProblem
.from_specs` — the oracle mode used by benchmarks) or by the Global
Controller from telemetry and fitted latency profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ...sim.apps import AppSpec, TrafficClassSpec
from ...sim.network import EgressPricing, LatencyMatrix
from ...sim.topology import DeploymentSpec
from ...sim.workload import DemandMatrix

__all__ = ["ClassWorkload", "TEProblem", "INGRESS_EDGE"]

#: edge index of the user → root pseudo-edge in flow keys and edge refs
INGRESS_EDGE = -1


@dataclass
class ClassWorkload:
    """One traffic class's structure and demand."""

    spec: TrafficClassSpec
    #: ingress demand per cluster, requests/second
    demand: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for cluster, rps in self.demand.items():
            if rps < 0:
                raise ValueError(
                    f"class {self.spec.name!r}: negative demand at "
                    f"{cluster!r}")

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def total_demand(self) -> float:
        return sum(self.demand.values())


@dataclass
class TEProblem:
    """A complete service-layer traffic engineering instance."""

    clusters: list[str]
    latency: LatencyMatrix
    pricing: EgressPricing
    #: (service, cluster) → replica count; absent/0 = not deployed
    replicas: dict[tuple[str, str], int]
    workloads: dict[str, ClassWorkload]
    #: utilization cap per pool — keeps the LP away from the delay pole
    rho_max: float = 0.95
    #: objective weight converting $/s of egress into latency-seconds/s;
    #: 0 optimizes latency only (§4.1: "if an administrator values cost over
    #: latency ... should reflect it")
    cost_weight: float = 0.0
    #: hard cap on egress spend in $/s (None = unconstrained) — the
    #: budget-style alternative to cost_weight; both can be combined
    egress_budget: float | None = None
    #: pool delay model: "mmc" (exact Erlang-C) or "mm1" (Kleinrock)
    delay_model: str = "mmc"

    def __post_init__(self) -> None:
        if not self.clusters:
            raise ValueError("need at least one cluster")
        if not 0 < self.rho_max < 1:
            raise ValueError(f"rho_max must be in (0, 1), got {self.rho_max}")
        # a NaN passes `< 0`; unchecked, a non-finite weight or budget
        # surfaces only inside HiGHS as an invalid objective or rhs
        if not (math.isfinite(self.cost_weight) and self.cost_weight >= 0):
            raise ValueError(f"cost_weight must be finite and >= 0, got "
                             f"{self.cost_weight}")
        if self.egress_budget is not None and not (
                math.isfinite(self.egress_budget) and self.egress_budget >= 0):
            raise ValueError(f"egress_budget must be finite and >= 0, got "
                             f"{self.egress_budget}")
        known = set(self.clusters)
        deployed = set()
        for (service, cluster), count in self.replicas.items():
            if cluster not in known:
                raise ValueError(
                    f"replicas for {service!r} reference unknown cluster "
                    f"{cluster!r}")
            if count < 0:
                raise ValueError(
                    f"negative replicas for {service!r}@{cluster!r}")
            if count > 0:
                deployed.add(service)
        for name, workload in self.workloads.items():
            if name != workload.name:
                raise ValueError(
                    f"workload keyed {name!r} is named {workload.name!r}")
            for cluster in workload.demand:
                if cluster not in known:
                    raise ValueError(
                        f"class {name!r} demand references unknown cluster "
                        f"{cluster!r}")
            for service in workload.spec.services():
                if service not in deployed:
                    raise ValueError(
                        f"class {name!r} uses service {service!r} which is "
                        "deployed nowhere")

    # ------------------------------------------------------------- helpers

    def deployed_in(self, service: str) -> list[str]:
        """Clusters running ``service``, in problem cluster order."""
        return [c for c in self.clusters
                if self.replicas.get((service, c), 0) > 0]

    def replica_count(self, service: str, cluster: str) -> int:
        return self.replicas.get((service, cluster), 0)

    def pools(self) -> list[tuple[str, str]]:
        """All deployed (service, cluster) pools touched by some workload."""
        used_services = {s for w in self.workloads.values()
                         for s in w.spec.services()}
        return [(service, cluster)
                for (service, cluster), count in sorted(self.replicas.items())
                if count > 0 and service in used_services]

    def total_demand(self) -> float:
        return sum(w.total_demand for w in self.workloads.values())

    def rtt(self, a: str, b: str) -> float:
        return self.latency.rtt(a, b)

    def transfer_cost(self, src: str, dst: str, nbytes: float) -> float:
        """Dollar cost of moving ``nbytes`` from src to dst."""
        return nbytes * self.pricing.per_byte(src, dst)

    # --------------------------------------------------------- constructors

    @staticmethod
    def from_specs(app: AppSpec, deployment: DeploymentSpec,
                   demand: DemandMatrix, rho_max: float = 0.95,
                   cost_weight: float = 0.0,
                   egress_budget: float | None = None,
                   delay_model: str = "mmc") -> "TEProblem":
        """Oracle-mode construction from ground-truth specs."""
        workloads = {}
        for name, spec in app.classes.items():
            per_cluster = {
                cluster: demand.rps(name, cluster)
                for cluster in deployment.cluster_names
                if demand.rps(name, cluster) > 0
            }
            workloads[name] = ClassWorkload(spec=spec, demand=per_cluster)
        replicas = {
            (service, cluster.name): count
            for cluster in deployment.clusters
            for service, count in cluster.replicas.items()
            if count > 0
        }
        return TEProblem(
            clusters=list(deployment.cluster_names),
            latency=deployment.latency,
            pricing=deployment.pricing,
            replicas=replicas,
            workloads=workloads,
            rho_max=rho_max,
            cost_weight=cost_weight,
            egress_budget=egress_budget,
            delay_model=delay_model,
        )
