"""Deployment topologies: clusters, replica placement, WAN latencies.

Includes the real GCP four-region topology from §4.2 of the paper — Oregon
(OR), Utah (UT), Iowa (IOW), South Carolina (SC) — with the measured median
inter-region VM-to-VM latencies: OR–UT 30 ms, UT–IOW 20 ms, IOW–SC 35 ms,
OR–SC 66 ms, OR–IOW 37 ms. The paper does not report UT–SC; we default it to
the UT–IOW–SC path (55 ms), configurable. Reported figures are treated as
RTTs (ping-style medians), so one-way delay is half.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .network import EgressPricing, LatencyMatrix

__all__ = ["ClusterSpec", "DeploymentSpec", "ReplicaMap",
           "gcp_four_region_latency",
           "two_region_latency", "GCP_REGIONS", "GCP_RTT_MS"]

GCP_REGIONS = ("OR", "UT", "IOW", "SC")

#: §4.2 measured RTTs in milliseconds; UT–SC estimated via IOW.
GCP_RTT_MS = {
    ("OR", "UT"): 30.0,
    ("UT", "IOW"): 20.0,
    ("IOW", "SC"): 35.0,
    ("OR", "SC"): 66.0,
    ("OR", "IOW"): 37.0,
    ("UT", "SC"): 55.0,
}


def gcp_four_region_latency(ut_sc_rtt_ms: float = 55.0) -> LatencyMatrix:
    """The §4.2 GCP topology as a latency matrix (one-way = RTT / 2)."""
    rtts = dict(GCP_RTT_MS)
    rtts[("UT", "SC")] = ut_sc_rtt_ms
    one_way = {pair: rtt / 2.0 for pair, rtt in rtts.items()}
    return LatencyMatrix.from_ms(GCP_REGIONS, one_way)


def two_region_latency(one_way_ms: float, west: str = "west",
                       east: str = "east") -> LatencyMatrix:
    """Two-cluster topology used in §4.1 (Fig. 4, Fig. 6a)."""
    return LatencyMatrix.from_ms((west, east), {(west, east): one_way_ms})


class ReplicaMap(dict):
    """service → replica count, notifying on every change.

    Placement is edited in place all over the tree (``fail_service``, the
    chaos layer, tests and benchmarks write ``spec.replicas[service]``
    directly), and proxies and the fluid model cache views derived from it.
    Every mutating ``dict`` method bumps the revision cell of each
    :class:`DeploymentSpec` holding this map, so those caches validate
    against :attr:`DeploymentSpec.revision` in O(1) and cannot miss a write.
    """

    #: revision cells of the deployments watching this map; the class
    #: default also covers the item writes pickle makes before any state
    _watchers: tuple[list[int], ...] = ()

    def _changed(self) -> None:
        for cell in self._watchers:
            cell[0] += 1

    def __setitem__(self, service: str, count: int) -> None:
        # an unchanged count is not a change: derived views stay valid
        if self.get(service) != count:
            super().__setitem__(service, count)
            self._changed()

    def __delitem__(self, service: str) -> None:
        super().__delitem__(service)
        self._changed()

    def __ior__(self, other):
        self.update(other)
        return self

    def clear(self) -> None:
        super().clear()
        self._changed()

    def pop(self, *args):
        value = super().pop(*args)
        self._changed()
        return value

    def popitem(self):
        item = super().popitem()
        self._changed()
        return item

    def setdefault(self, service: str, default=None):
        if service not in self:
            self[service] = default
        return self[service]

    def update(self, *args, **kwargs) -> None:
        super().update(*args, **kwargs)
        self._changed()


@dataclass(frozen=True)
class ClusterSpec:
    """Replica placement for one cluster: service → replica count.

    A service absent from ``replicas`` (or mapped to 0) is not deployed in
    this cluster — the partial-replication case of Fig. 1 / §4.3. The
    mapping is held as a :class:`ReplicaMap` (a copy of the ``dict``
    passed in), so in-place edits reach every deployment's revision.
    """

    name: str
    replicas: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for service, count in self.replicas.items():
            if count < 0:
                raise ValueError(
                    f"cluster {self.name!r}: negative replicas for {service!r}")
        if not isinstance(self.replicas, ReplicaMap):
            object.__setattr__(self, "replicas", ReplicaMap(self.replicas))

    def has(self, service: str) -> bool:
        return self.replicas.get(service, 0) > 0


@dataclass
class DeploymentSpec:
    """A full multi-cluster deployment: placement + network + pricing."""

    clusters: list[ClusterSpec]
    latency: LatencyMatrix
    pricing: EgressPricing = field(default_factory=EgressPricing)

    def __post_init__(self) -> None:
        names = [c.name for c in self.clusters]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate cluster names: {names}")
        unknown = set(names) - set(self.latency.clusters)
        if unknown:
            raise ValueError(
                f"clusters {sorted(unknown)} missing from the latency matrix")
        self._revision = [0]
        for spec in self.clusters:
            spec.replicas._watchers += (self._revision,)

    @property
    def revision(self) -> int:
        """Monotone count of replica-placement changes in any cluster.

        Bumped by every write that changes a ``spec.replicas`` entry,
        however it is made; consumers caching a view of the placement
        (compiled proxy routes, the fluid routing plan) compare it in O(1).
        """
        return self._revision[0]

    @property
    def cluster_names(self) -> list[str]:
        return [c.name for c in self.clusters]

    def cluster(self, name: str) -> ClusterSpec:
        for spec in self.clusters:
            if spec.name == name:
                return spec
        raise KeyError(f"no cluster named {name!r}")

    def replicas(self, service: str, cluster: str) -> int:
        return self.cluster(cluster).replicas.get(service, 0)

    def clusters_with(self, service: str) -> list[str]:
        """Clusters where ``service`` is deployed, in declaration order."""
        return [c.name for c in self.clusters if c.has(service)]

    def services(self) -> list[str]:
        """Union of deployed services, stable order."""
        seen: dict[str, None] = {}
        for spec in self.clusters:
            for service, count in spec.replicas.items():
                if count > 0:
                    seen.setdefault(service)
        return list(seen)

    @staticmethod
    def uniform(app_services: list[str], cluster_names: list[str],
                replicas: int, latency: LatencyMatrix,
                pricing: EgressPricing | None = None) -> "DeploymentSpec":
        """Deploy every service with the same replica count everywhere."""
        clusters = [
            ClusterSpec(name, {s: replicas for s in app_services})
            for name in cluster_names
        ]
        return DeploymentSpec(clusters, latency, pricing or EgressPricing())
