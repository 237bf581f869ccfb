"""A replica pool backed by fluid state instead of per-job events.

:class:`FluidPool` is a :class:`~repro.sim.service.Pool`: the runner,
scrape loop, autoscaler, and chaos layer use it through the interface they
use on the event pools (``submit``/``harvest``/``resize``/``degrade`` plus
the occupancy properties; ``tests/test_pool_contract.py`` holds all three
to it), but its occupancy is *set* each tick by the
:class:`~repro.sim.fluid.substrate.FluidSubstrate` from the M/M/c solution
rather than integrated per job. That keeps every observer — pool gauges in
the metrics registry, utilization-driven autoscaling, epoch pool stats —
reading fluid state through the interface it already reads pools today.

``submit`` serves the hybrid mode's sampled event-level slice: instead of
waiting in a real FIFO (there is none), the job draws an M/M/c-consistent
queueing wait from the pool's *current* offered load — zero with
probability ``1 - ErlangC(c, a)``, else exponential with the conditional
wait rate ``(c - a) / mean_service_time``. Draws come from a named
registry stream (``fluid/wait/{service}/{cluster}``) so hybrid runs are a
pure function of the seed.
"""

from __future__ import annotations

from typing import Callable

from ...devtools.invariants import check_pool_depths, invariants_enabled
from ..service import Pool
from .flows import UTILIZATION_CAP, fast_erlang_c

__all__ = ["FluidPool"]


class FluidPool(Pool):
    """One (service, cluster) pool whose occupancy is fluid state; its
    slowdown stretches service times from the next tick on."""

    def __init__(self, sim, service: str, cluster: str, replicas: int,
                 rng=None) -> None:
        super().__init__(sim, service, cluster, replicas)
        self._replicas = replicas
        self._rng = rng
        # fluid state, written by FluidSubstrate once per tick
        self._offered = 0.0        # erlangs currently offered
        self._arrival_rate = 0.0   # requests/second
        self._mean_wait = 0.0      # M/M/c mean queueing wait, seconds
        self._queue_estimate = 0.0
        # the sampled slice's wait distribution, solved once per distinct
        # (replicas, offered, arrival rate) rather than once per draw
        self._wait_law_state: tuple[int, float, float] | None = None
        self._wait_law: tuple[float, float] | None = None
        self._last_update = sim.now
        self._lifetime_busy = 0.0
        self._debug_invariants = invariants_enabled()

    # ----------------------------------------------------- pool interface

    @property
    def replicas(self) -> int:
        return self._replicas

    @property
    def busy_replicas(self) -> int:
        return int(round(min(self._offered, float(self._replicas))))

    @property
    def queue_length(self) -> int:
        return int(round(self._queue_estimate))

    @property
    def in_flight(self) -> int:
        return self.busy_replicas + self.queue_length

    def resize(self, replicas: int) -> None:
        """Autoscaler/chaos resize; takes effect on the next tick's solve."""
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self._accumulate_busy()
        self._replicas = replicas

    @property
    def lifetime_busy_seconds(self) -> float:
        busy = min(self._offered, float(self._replicas))
        return self._lifetime_busy + busy * (self._sim.now - self._last_update)

    def submit(self, work_time: float,
               on_complete: Callable[[float], None],
               on_start: Callable[[float], None] | None = None) -> None:
        """Run one *sampled* job against the fluid queue state.

        The job does not occupy a replica — its share of occupancy is
        already inside the offered load the substrate computed from full
        demand — it only experiences a statistically consistent wait, then
        its compute time (slowdown applied as in the event pool).
        """
        if work_time < 0:
            raise ValueError(f"work_time must be >= 0, got {work_time}")
        self._stats.arrivals += 1
        wait = self._draw_wait()
        self._stats.queue_wait_seconds += wait

        if wait > 0:
            self._sim.schedule(wait, self._start, work_time, on_complete,
                               on_start)
        else:
            self._start(work_time, on_complete, on_start)

    def _start(self, work_time: float, on_complete: Callable[[float], None],
               on_start: Callable[[float], None] | None) -> None:
        if on_start is not None:
            on_start(self._sim.now)
        self._sim.schedule(work_time * self._slowdown, self._finish,
                           on_complete)

    def _finish(self, on_complete: Callable[[float], None]) -> None:
        self._stats.completions += 1
        on_complete(self._sim.now)

    # ------------------------------------------------------- fluid updates

    def fluid_update(self, offered: float, arrival_rate: float,
                     mean_wait: float, dt: float, jobs: int) -> None:
        """Substrate tick: integrate the elapsed interval, set new state.

        ``jobs`` is the integerized count of bulk requests that traversed
        this pool over the interval; they are accounted as arrivals *and*
        completions (bulk flow is steady within a tick), each charged the
        mean wait so harvested ``mean_queue_wait`` matches the model.
        """
        self._accumulate_busy()
        self._offered = offered
        self._arrival_rate = arrival_rate
        self._mean_wait = mean_wait
        # Little's law: mean queue length = arrival rate x mean wait
        self._queue_estimate = arrival_rate * mean_wait
        if jobs:
            self._stats.arrivals += jobs
            self._stats.completions += jobs
            self._stats.queue_wait_seconds += jobs * mean_wait
        if self._debug_invariants:
            check_pool_depths(self)

    def _accumulate_busy(self) -> None:
        now = self._sim.now
        busy = min(self._offered, float(self._replicas))
        elapsed_busy = busy * (now - self._last_update)
        self._stats.busy_seconds += elapsed_busy
        self._lifetime_busy += elapsed_busy
        self._last_update = now

    def _draw_wait(self) -> float:
        if self._rng is None:
            return 0.0
        state = (self._replicas, self._offered, self._arrival_rate)
        if state != self._wait_law_state:
            self._wait_law_state = state
            self._wait_law = self._solve_wait_law(*state)
        if self._wait_law is None:
            return 0.0
        wait_probability, mean_wait_if_queued = self._wait_law
        if float(self._rng.random()) >= wait_probability:
            return 0.0
        return float(self._rng.exponential(mean_wait_if_queued))

    @staticmethod
    def _solve_wait_law(servers: int, offered: float,
                        arrival: float) -> tuple[float, float] | None:
        """(P[wait > 0], mean wait given one) of the M/M/c queue; None
        for an idle pool, which draws nothing."""
        if offered <= 0 or arrival <= 0:
            return None
        effective = min(offered, UTILIZATION_CAP * servers)
        mean_service = offered / arrival
        rate = (servers - effective) / mean_service
        return fast_erlang_c(servers, effective), 1.0 / rate

    def __repr__(self) -> str:
        return (f"FluidPool({self.service}@{self.cluster}, "
                f"replicas={self._replicas}, offered={self._offered:.1f})")
