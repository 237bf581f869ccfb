"""Runtime cluster: instantiated replica pools for one region.

A :class:`Cluster` is the live counterpart of a
:class:`~repro.sim.topology.ClusterSpec`: it owns one
:class:`~repro.sim.service.Pool` per deployed service. The mesh layer
(:mod:`repro.mesh`) attaches proxies and a gateway on top.
"""

from __future__ import annotations

from typing import Callable

from .engine import Simulator
from .service import Pool, PoolStats, ReplicaPool
from .topology import ClusterSpec

__all__ = ["Cluster", "PoolFactory"]

#: builds a service queue: (sim, service, cluster, replicas) -> pool
PoolFactory = Callable[[Simulator, str, str, int], Pool]


def _default_factory(sim: Simulator, service: str, cluster: str,
                     replicas: int) -> ReplicaPool:
    return ReplicaPool(sim, service, cluster, replicas)


class Cluster:
    """Live replica pools for one cluster.

    ``pool_factory`` selects the service model: the default central-queue
    :class:`~repro.sim.service.ReplicaPool`, or a
    :class:`~repro.sim.replicas.ReplicaSet` for per-replica queues behind
    an intra-cluster balancer.
    """

    def __init__(self, sim: Simulator, spec: ClusterSpec,
                 pool_factory: PoolFactory | None = None) -> None:
        self._sim = sim
        self.name = spec.name
        self._factory = pool_factory or _default_factory
        self.pools: dict[str, Pool] = {}
        for service, count in spec.replicas.items():
            if count > 0:
                self.deploy(service, count)

    def deploy(self, service: str, replicas: int) -> Pool:
        """Add (or resize) a service in this cluster."""
        pool = self.pools.get(service)
        if pool is None:
            pool = self._factory(self._sim, service, self.name, replicas)
            self.pools[service] = pool
        else:
            pool.resize(replicas)
        return pool

    def degrade(self, service: str, factor: float) -> None:
        """Apply a service-time multiplier to one service's pool.

        ``factor > 1`` models slow replicas (noisy neighbour, failing disk);
        restore health with ``degrade(service, 1.0)``.
        """
        self.pool(service).degrade(factor)

    def crash_replicas(self, service: str, count: int) -> int:
        """Abruptly remove up to ``count`` replicas; returns how many died.

        A crash never takes out the last replica — model a full wipe with
        :meth:`repro.sim.runner.MeshSimulation.fail_service` instead. The
        return value is what a later recovery should add back.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        pool = self.pool(service)
        died = min(count, pool.replicas - 1)
        if died > 0:
            pool.resize(pool.replicas - died)
        return died

    def undeploy(self, service: str) -> None:
        """Remove a service (models decommissioning / failure, §2).

        In-flight jobs are abandoned with the pool: the runner discards
        the completion of any job whose pool is no longer the live one, so
        the caller is responsible for quiescing traffic first.
        """
        self.pools.pop(service, None)

    def has(self, service: str) -> bool:
        return service in self.pools

    def pool(self, service: str) -> Pool:
        try:
            return self.pools[service]
        except KeyError:
            raise KeyError(
                f"service {service!r} is not deployed in cluster "
                f"{self.name!r}") from None

    def harvest_stats(self) -> dict[str, PoolStats]:
        """Collect and reset per-service stats for this cluster."""
        return {service: pool.harvest()
                for service, pool in self.pools.items()}

    def __repr__(self) -> str:
        return f"Cluster({self.name!r}, services={sorted(self.pools)})"
