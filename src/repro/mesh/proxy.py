"""SLATE-proxy: the data-plane element (§3.1).

One proxy object per cluster stands in for the per-instance sidecars (all
sidecars in a cluster hold identical rules, so one router per cluster is
behaviourally equivalent and cheaper to simulate). Its two jobs mirror the
paper's: *telemetry* (delegated to :class:`~repro.mesh.telemetry
.ProxyTelemetry`) and *request routing policy enforcement* — per-request,
per-class weighted cluster selection from the rules the controllers push.

When no rule matches, the proxy applies the mesh default the paper's survey
found in production: serve locally, failing over to the nearest cluster that
has the service (Istio locality failover).
"""

from __future__ import annotations

import numpy as np

from ..sim.network import LatencyMatrix
from ..sim.topology import DeploymentSpec
from .affinity import weighted_rendezvous
from .loadbalancer import WeightedRandomSelector
from .routing_table import RoutingTable, effective_weights
from .telemetry import ProxyTelemetry

__all__ = ["SlateProxy", "RoutingError"]


class RoutingError(RuntimeError):
    """No destination cluster can serve a call."""


class SlateProxy:
    """Outbound router + telemetry reporter for one cluster.

    A routing decision only changes when the routing table, the replica
    placement or the latency matrix does, so each ``(service, class,
    exclude)`` is compiled once into a route — a fixed destination, or the
    usable rule weights ready to draw from — and reused until one of
    ``table.version``, ``latency.revision`` or ``deployment.revision``
    moves; the call after any such change compiles afresh.
    """

    def __init__(self, cluster: str, table: RoutingTable,
                 deployment: DeploymentSpec, latency: LatencyMatrix,
                 rng: np.random.Generator,
                 trace_sample_rate: float = 0.0) -> None:
        self.cluster = cluster
        self._table = table
        self._deployment = deployment
        self._latency = latency
        self._selector = WeightedRandomSelector(rng)
        #: (service, class, exclude) -> (fixed destination, None, None) or
        #: (None, weighted choice, usable weights); valid for _signature
        self._routes: dict[tuple, tuple] = {}
        self._signature: tuple | None = None
        #: routes compiled so far — a deterministic work counter: at most
        #: one per distinct (service, class, exclude) per routing change
        self.route_compiles = 0
        self.telemetry = ProxyTelemetry(cluster,
                                        trace_sample_rate=trace_sample_rate,
                                        rng=rng)

    def choose_cluster(self, service: str, traffic_class: str,
                       exclude: str | None = None,
                       affinity_key: int | None = None) -> str:
        """Pick the destination cluster for one call to ``service``.

        Order of precedence:

        1. an installed rule for (service, class, this cluster) — weights are
           first restricted to clusters where the service is actually
           deployed, guarding against rules that outlive a decommission;
        2. the local cluster, if it runs the service;
        3. locality failover: the nearest cluster running the service.

        ``exclude`` removes one cluster from consideration (retrying after
        a timeout there) unless it is the only option left. With
        ``affinity_key`` set, rule weights are realised by weighted
        rendezvous hashing on the key instead of per-request sampling: the
        same key always lands on the same cluster while the key population
        still splits by the weights (cache/data locality, §5).
        """
        signature = (self._table.version, self._latency.revision,
                     self._deployment.revision)
        if signature != self._signature:
            self._routes.clear()
            self._signature = signature
        key = (service, traffic_class, exclude)
        route = self._routes.get(key)
        if route is None:
            route = self._routes[key] = self._compile(*key)
        fixed, choice, usable = route
        if fixed is not None:
            return fixed
        if affinity_key is not None:
            return weighted_rendezvous(affinity_key, usable)
        return self._selector.draw(choice)

    def _compile(self, service: str, traffic_class: str,
                 exclude: str | None) -> tuple:
        deployed = self._deployment.clusters_with(service)
        if not deployed:
            raise RoutingError(
                f"service {service!r} is not deployed in any cluster")
        if exclude is not None and len(deployed) > 1:
            deployed = [c for c in deployed if c != exclude]
        usable = effective_weights(
            self._table.weights_for(service, traffic_class, self.cluster),
            self.cluster, deployed, self._latency)
        choice = self._selector.compile(usable)
        route = ((None, choice, usable) if len(usable) > 1
                 else (choice[0][0], None, None))
        self.route_compiles += 1
        return route

    def __repr__(self) -> str:
        return f"SlateProxy(cluster={self.cluster!r})"
