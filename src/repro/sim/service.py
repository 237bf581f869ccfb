"""Service replica pools.

Each (service, cluster) pair is modelled as a pool of ``replicas`` identical
servers fed by one FIFO queue — the standard abstraction for a Kubernetes
Deployment behind a ClusterIP service. Requests wait for a free replica,
occupy it for their compute time, then release it. Under Poisson arrivals and
exponential service times this is an M/M/c queue, which is exactly the
"variation of a M/M/1 queuing model" load-to-latency behaviour the paper's
Global Controller assumes (§3.3 "Latency Modeling").

The pool does not know about traffic classes or call graphs; callers pass the
compute time for each job. Downstream calls happen *between* compute phases
and are orchestrated by :mod:`repro.sim.runner`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from ..devtools.invariants import check_pool_depths, invariants_enabled
from .engine import Simulator

__all__ = ["Pool", "ReplicaPool", "PoolStats"]


@dataclass
class PoolStats:
    """Counters accumulated by a :class:`Pool` over a window."""

    arrivals: int = 0
    completions: int = 0
    busy_seconds: float = 0.0
    window_seconds: float = 0.0
    queue_wait_seconds: float = 0.0

    @property
    def utilization(self) -> float:
        """Mean fraction of replica capacity busy over the window.

        Normalised per replica by the caller (see ``Pool.harvest``).
        """
        if self.window_seconds <= 0:
            return 0.0
        return self.busy_seconds / self.window_seconds

    @property
    def mean_queue_wait(self) -> float:
        """Mean seconds completed jobs spent queueing."""
        if self.completions == 0:
            return 0.0
        return self.queue_wait_seconds / self.completions


class Pool:
    """What every (service, cluster) pool shares, whatever its queue model.

    :class:`ReplicaPool`, :class:`~repro.sim.replicas.ReplicaSet` and
    :class:`~repro.sim.fluid.pool.FluidPool` add ``submit``, ``resize``, the
    occupancy reads and ``lifetime_busy_seconds``;
    ``tests/test_pool_contract.py`` states the contract for all three.
    """

    def __init__(self, sim: Simulator, service: str, cluster: str,
                 replicas: int) -> None:
        if replicas < 1:
            raise ValueError(f"{service}@{cluster}: replicas must be >= 1, "
                             f"got {replicas}")
        self._sim = sim
        self.service = service
        self.cluster = cluster
        self._slowdown = 1.0
        self._window_start = sim.now
        self._stats = PoolStats()

    @property
    def slowdown(self) -> float:
        """Service-time multiplier for a degraded ("slow replica") pool.

        1.0 (the default) leaves compute times untouched bit-for-bit; the
        chaos layer sets a factor > 1 on inject and restores 1.0 on
        recover. Each pool applies it to jobs it has not started yet.
        """
        return self._slowdown

    def degrade(self, factor: float) -> None:
        """Set the service-time multiplier (chaos slow-replica fault)."""
        if factor <= 0:
            raise ValueError(f"slowdown factor must be > 0, got {factor}")
        self._slowdown = factor

    def harvest(self) -> PoolStats:
        """Return stats for the window since the last harvest and reset.

        ``busy_seconds`` (integrated up to now by the pool's own
        ``_accumulate_busy``) is normalised by the replica count so that
        ``stats.utilization`` is a 0..1 per-replica utilization.
        """
        self._accumulate_busy()
        now = self._sim.now
        stats = self._stats
        stats.window_seconds = now - self._window_start
        stats.busy_seconds /= self.replicas
        self._stats = PoolStats()
        self._window_start = now
        return stats


class _Job:
    __slots__ = ("work_time", "on_start", "on_complete", "enqueue_time")

    def __init__(self, work_time: float,
                 on_start: Callable[[float], None] | None,
                 on_complete: Callable[[float], None],
                 enqueue_time: float) -> None:
        self.work_time = work_time
        self.on_start = on_start
        self.on_complete = on_complete
        self.enqueue_time = enqueue_time


class ReplicaPool(Pool):
    """A FIFO multi-server queue for one service in one cluster.

    The slowdown applies when a replica *starts* a job, so jobs already
    running keep their original finish times.
    """

    def __init__(self, sim: Simulator, service: str, cluster: str,
                 replicas: int) -> None:
        super().__init__(sim, service, cluster, replicas)
        self._replicas = replicas
        self._busy = 0
        self._queue: deque[_Job] = deque()
        # busy-time integration
        self._lifetime_busy = 0.0
        self._last_change = sim.now
        self._debug_invariants = invariants_enabled()

    # ------------------------------------------------------------------ API

    @property
    def replicas(self) -> int:
        return self._replicas

    @property
    def busy_replicas(self) -> int:
        return self._busy

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    @property
    def in_flight(self) -> int:
        """Jobs occupying a replica plus jobs queued."""
        return self._busy + len(self._queue)

    @property
    def lifetime_busy_seconds(self) -> float:
        """Monotone replica-busy-seconds since construction.

        Unlike :meth:`harvest` this never resets, so independent observers
        (e.g. the autoscaler) can difference it over their own windows
        without disturbing telemetry.
        """
        # include the un-flushed segment since the last state change
        return (self._lifetime_busy
                + self._busy * (self._sim.now - self._last_change))

    def submit(self, work_time: float,
               on_complete: Callable[[float], None],
               on_start: Callable[[float], None] | None = None) -> None:
        """Enqueue a job needing ``work_time`` seconds of one replica.

        ``on_start(now)`` fires when a replica picks the job up;
        ``on_complete(now)`` fires when its compute finishes.
        """
        if work_time < 0:
            raise ValueError(f"work_time must be >= 0, got {work_time}")
        self._stats.arrivals += 1
        job = _Job(work_time, on_start, on_complete, self._sim.now)
        if self._busy < self._replicas:
            self._start(job)
        else:
            self._queue.append(job)

    def resize(self, replicas: int) -> None:
        """Change pool size (models an autoscaler action).

        Shrinking never pre-empts running jobs; extra busy replicas drain
        naturally and queued jobs start only once ``busy < replicas``.
        """
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self._accumulate_busy()
        self._replicas = replicas
        self._drain_queue()

    # ------------------------------------------------------------- internal

    def _accumulate_busy(self) -> None:
        now = self._sim.now
        elapsed_busy = self._busy * (now - self._last_change)
        self._stats.busy_seconds += elapsed_busy
        self._lifetime_busy += elapsed_busy
        self._last_change = now

    def _start(self, job: _Job) -> None:
        self._accumulate_busy()
        self._busy += 1
        now = self._sim.now
        self._stats.queue_wait_seconds += now - job.enqueue_time
        if job.on_start is not None:
            job.on_start(now)
        # multiplying by the default 1.0 is bit-exact, so healthy runs are
        # byte-identical to the pre-slowdown implementation
        self._sim.schedule(job.work_time * self._slowdown, self._finish, job)

    def _finish(self, job: _Job) -> None:
        self._accumulate_busy()
        self._busy -= 1
        self._stats.completions += 1
        if self._debug_invariants:
            check_pool_depths(self)
        self._drain_queue()
        job.on_complete(self._sim.now)

    def _drain_queue(self) -> None:
        while self._queue and self._busy < self._replicas:
            self._start(self._queue.popleft())

    def __repr__(self) -> str:
        return (f"ReplicaPool({self.service}@{self.cluster}, "
                f"replicas={self._replicas}, busy={self._busy}, "
                f"queued={len(self._queue)})")
