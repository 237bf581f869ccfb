"""Per-replica service model: individual servers behind an intra-cluster LB.

:class:`~repro.sim.service.ReplicaPool` models a (service, cluster) as one
FIFO queue with c servers — the idealized central-queue abstraction. Real
meshes don't have a central queue: each replica has its own, and the
sidecar picks a replica per request with round-robin, least-outstanding
requests, or consistent hashing (§2). :class:`ReplicaSet` models exactly
that: one single-server FIFO queue per replica, a pluggable balancer
choosing among them.

The two models share an interface, so :class:`~repro.sim.runner
.MeshSimulation` can run on either (``service_model="pool" | "replicas"``).
Queueing-wise the central queue is the optimistic bound; per-replica
round-robin has the heaviest tail (it queues behind busy replicas while
others idle), with least-outstanding in between — a classic result the
intra-LB benchmark reproduces.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Protocol

from .engine import Simulator
from .service import Pool, PoolStats

__all__ = ["Replica", "ReplicaBalancer", "ReplicaSet"]


class ReplicaBalancer(Protocol):
    """Picks one replica for a request (mesh.loadbalancer implements it)."""

    def pick(self, endpoints, key: str | None = None): ...


class Replica:
    """A single-server FIFO queue: one service instance."""

    __slots__ = ("name", "_sim", "_queue", "_busy", "outstanding",
                 "draining", "_lifetime_busy", "_last_change",
                 "completions", "queue_wait_seconds")

    def __init__(self, sim: Simulator, name: str) -> None:
        self.name = name
        self._sim = sim
        self._queue: deque[tuple[float, Callable, Callable | None,
                                 float]] = deque()
        self._busy = False
        #: jobs queued or running here (what least-outstanding inspects)
        self.outstanding = 0
        #: a draining replica finishes its work but receives no new jobs
        self.draining = False
        self._lifetime_busy = 0.0
        self._last_change = sim.now
        self.completions = 0
        self.queue_wait_seconds = 0.0

    def submit(self, work_time: float, on_complete: Callable[[float], None],
               on_start: Callable[[float], None] | None = None) -> None:
        if self.draining:
            raise RuntimeError(f"replica {self.name} is draining")
        self.outstanding += 1
        if self._busy:
            self._queue.append((work_time, on_complete, on_start,
                                self._sim.now))
        else:
            self._start(work_time, on_complete, on_start, self._sim.now)

    def _accumulate(self) -> None:
        now = self._sim.now
        if self._busy:
            self._lifetime_busy += now - self._last_change
        self._last_change = now

    def _start(self, work_time: float, on_complete, on_start,
               enqueue_time: float) -> None:
        self._accumulate()
        self._busy = True
        now = self._sim.now
        self.queue_wait_seconds += now - enqueue_time
        if on_start is not None:
            on_start(now)
        self._sim.schedule(work_time, self._finish, on_complete)

    def _finish(self, on_complete) -> None:
        self._accumulate()
        self._busy = False
        self.outstanding -= 1
        self.completions += 1
        if self._queue:
            self._start(*self._queue.popleft())
        on_complete(self._sim.now)

    @property
    def idle(self) -> bool:
        return not self._busy and not self._queue

    @property
    def lifetime_busy_seconds(self) -> float:
        extra = (self._sim.now - self._last_change) if self._busy else 0.0
        return self._lifetime_busy + extra


class ReplicaSet(Pool):
    """A set of independent replicas behind an intra-cluster balancer.

    A :class:`~repro.sim.service.Pool` (``tests/test_pool_contract.py``), so
    the runner, telemetry, and autoscaler work unchanged. The slowdown
    stretches jobs as they are submitted.
    """

    def __init__(self, sim: Simulator, service: str, cluster: str,
                 replicas: int, balancer: ReplicaBalancer) -> None:
        super().__init__(sim, service, cluster, replicas)
        self._balancer = balancer
        self._replicas: list[Replica] = []
        self._next_index = 0
        for _ in range(replicas):
            self._add_replica()
        self._harvested_busy = 0.0
        #: drained by a shrink, still finishing the work they hold
        self._retired: list[Replica] = []
        #: lifetime busy seconds of retired replicas already let go
        self._retired_busy = 0.0

    def _add_replica(self) -> None:
        name = f"{self.service}@{self.cluster}#{self._next_index}"
        self._next_index += 1
        self._replicas.append(Replica(self._sim, name))

    # ---------------------------------------------------- pool interface

    @property
    def replicas(self) -> int:
        return len(self._replicas)

    @property
    def busy_replicas(self) -> int:
        return sum(1 for r in self._replicas if not r.idle)

    @property
    def queue_length(self) -> int:
        return sum(max(0, r.outstanding - 1) for r in self._replicas)

    @property
    def in_flight(self) -> int:
        return sum(r.outstanding for r in self._replicas)

    def submit(self, work_time: float,
               on_complete: Callable[[float], None],
               on_start: Callable[[float], None] | None = None,
               key: str | None = None) -> None:
        """Route one job to a replica chosen by the balancer."""
        if work_time < 0:
            raise ValueError(f"work_time must be >= 0, got {work_time}")
        self._stats.arrivals += 1
        replica = self._balancer.pick(self._replicas, key=key)
        replica.submit(work_time * self._slowdown, on_complete, on_start)

    def resize(self, replicas: int) -> None:
        """Grow by adding replicas; shrink by draining the least loaded."""
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        while len(self._replicas) < replicas:
            self._add_replica()
        if len(self._replicas) > replicas:
            by_load = sorted(self._replicas, key=lambda r: r.outstanding)
            to_remove = by_load[:len(self._replicas) - replicas]
            for replica in to_remove:
                replica.draining = True
                self._replicas.remove(replica)
                self._retired.append(replica)

    def harvest(self) -> PoolStats:
        """Aggregate window stats across replicas (per-replica utilization).

        Work finished on a draining replica counts like any other; once a
        retired replica is idle and harvested it is let go.
        """
        now = self._sim.now
        stats = self._stats
        stats.window_seconds = now - self._window_start
        lifetime = self.lifetime_busy_seconds
        window_busy = lifetime - self._harvested_busy
        self._harvested_busy = lifetime
        for replica in self._replicas + self._retired:
            stats.completions += replica.completions
            stats.queue_wait_seconds += replica.queue_wait_seconds
            replica.completions = 0
            replica.queue_wait_seconds = 0.0
        draining = []
        for replica in self._retired:
            if replica.idle:
                self._retired_busy += replica.lifetime_busy_seconds
            else:
                draining.append(replica)
        self._retired = draining
        if self._replicas:
            stats.busy_seconds = window_busy / len(self._replicas)
        self._stats = PoolStats()
        self._window_start = now
        return stats

    @property
    def lifetime_busy_seconds(self) -> float:
        return (sum(r.lifetime_busy_seconds for r in self._replicas)
                + sum(r.lifetime_busy_seconds for r in self._retired)
                + self._retired_busy)

    def __repr__(self) -> str:
        return (f"ReplicaSet({self.service}@{self.cluster}, "
                f"replicas={len(self._replicas)}, "
                f"in_flight={self.in_flight})")
