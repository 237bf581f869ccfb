"""The fluid substrate: bulk traffic as flow rates on a periodic tick.

:class:`FluidSubstrate` replaces per-request arrival events with a tick
loop: every ``tick`` seconds it reads the live demand timeline, routing
table, deployment, and pool state, solves the class call trees with
:class:`~repro.sim.fluid.flows.FlowModel`, and applies the solution as
*bulk* accounting against the exact same objects the event path mutates —
gateway conservation counters, :class:`~repro.mesh.telemetry.ProxyTelemetry`
epoch windows, :class:`~repro.mesh.telemetry.RunTelemetry` lifetime
counters, the egress ledger, and the pools. Downstream consumers (scrape
loop, SLO alerts, epoch control loop, decision log) are untouched: they
keep reading the interfaces they read today.

Conservation is exact, not approximate: every fractional rate is
integerized through a deterministic carry accumulator, every admitted bulk
request is settled (completion or failure) by a credit event scheduled at
``now + predicted mean latency``, so at quiesce each gateway satisfies
``admitted == completed + failed`` and the drain/conservation invariants
run unchanged.

Scheduling uses :meth:`~repro.sim.engine.Simulator.schedule_periodic`
(pre-scheduled ticks, so ``run_until_idle`` can drain) plus one final tick
at the timeline end to flush the partial interval.
"""

from __future__ import annotations

import numpy as np

from ...devtools import invariants
from .flows import FlowModel, FluidTickSolution

__all__ = ["FluidSubstrate"]


class FluidSubstrate:
    """Bulk-traffic driver for one :class:`MeshSimulation` run."""

    def __init__(self, simulation, timeline, tick: float = 0.1,
                 bulk_fraction: float = 1.0) -> None:
        if tick <= 0:
            raise ValueError(f"tick must be > 0, got {tick}")
        if not 0.0 <= bulk_fraction <= 1.0:
            raise ValueError(
                f"bulk_fraction must be in [0, 1], got {bulk_fraction}")
        self._mesh = simulation
        self._sim = simulation.sim
        self._timeline = timeline
        self.tick = tick
        #: share of demand carried as bulk flow (the rest runs through the
        #: event path as the hybrid mode's sampled slice)
        self.bulk_fraction = bulk_fraction
        self.model = FlowModel(simulation.app, simulation.deployment,
                               simulation.table, simulation.network.latency,
                               simulation.network.pricing)
        #: the most recent tick's solution, for observers and tests
        self.last_solution: FluidTickSolution | None = None
        self.ticks = 0
        self._last_tick = 0.0
        # deterministic carry registers: fractional-rate remainders that
        # roll into the next tick so integer counts conserve exactly. The
        # array registers take the shape of the solution array they
        # integrate on the first tick (rows are classes or hops, both fixed
        # by the app for the life of the run)
        self._carry_pool: dict[tuple[str, str], float] = {}
        self._carry: dict[str, np.ndarray] = {}
        #: the hop list the window bookkeeping below was derived from
        self._hops: tuple[tuple[str, str], ...] | None = None
        self._window_order = np.zeros(0, dtype=np.intp)
        self._hop_exec_time: list[float] = []
        self._debug_invariants = invariants.invariants_enabled()

    def install(self, duration: float) -> None:
        """Pre-schedule the tick train plus a final flush at ``duration``."""
        self._sim.schedule_periodic(self.tick, self._on_tick, duration)
        self._sim.schedule_at(duration, self._on_tick)

    # ------------------------------------------------------------ tick body

    def _on_tick(self) -> None:
        now = self._sim.now
        if self._debug_invariants:
            invariants.check_fluid_tick(self._last_tick, now)
        dt = now - self._last_tick
        if dt <= 0:
            return
        demand = self._timeline.demand_at(self._last_tick)
        pool_state: dict[tuple[str, str], tuple[int, float]] = {}
        for cluster_name in sorted(self._mesh.clusters):
            cluster = self._mesh.clusters[cluster_name]
            for service in sorted(cluster.pools):
                pool = cluster.pools[service]
                pool_state[(service, cluster_name)] = (pool.replicas,
                                                       pool.slowdown)
        solution = self.model.propagate(demand, pool_state)
        self.last_solution = solution
        if self._debug_invariants:
            for state in solution.per_class.values():
                invariants.check_fluid_rates(state.traffic_class,
                                             state.demand)
                for rates in state.exec_rates.values():
                    invariants.check_fluid_rates(state.traffic_class, rates)
        self._apply_pools(solution, pool_state, dt)
        self._apply_admissions(solution, dt)
        self._apply_windows(solution, pool_state, dt)
        self._apply_egress(solution, dt)
        self._last_tick = now
        self.ticks += 1

    def _apply_pools(self, solution: FluidTickSolution, pool_state,
                     dt: float) -> None:
        for key in sorted(pool_state):
            service, cluster_name = key
            pool = self._mesh.clusters[cluster_name].pools[service]
            arrival = solution.pool_arrival.get(key, 0.0)
            carry = (self._carry_pool.get(key, 0.0)
                     + arrival * self.bulk_fraction * dt)
            jobs = int(carry)
            self._carry_pool[key] = carry - jobs
            pool.fluid_update(solution.pool_offered.get(key, 0.0), arrival,
                              solution.pool_wait.get(key, 0.0), dt, jobs)

    def _register(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        carry = self._carry.get(name)
        if carry is None:
            carry = self._carry[name] = np.zeros(shape)
        return carry

    def _spill(self, register: str, rates: np.ndarray,
               dt: float) -> np.ndarray:
        """Integrate ``rates`` over the tick into the named carry register
        and return the whole counts that spill out of it."""
        carry = self._register(register, rates.shape)
        carry += rates * self.bulk_fraction * dt
        counts = carry.astype(np.int64)
        carry -= counts
        return counts

    def _apply_admissions(self, solution: FluidTickSolution,
                          dt: float) -> None:
        states = [solution.per_class[name] for name in solution.classes]
        counts = self._spill("admit", solution.demand, dt)
        fail_carry = self._register("fail", counts.shape)
        fail_carry += counts * np.array(
            [state.failure_fraction for state in states])[:, None]
        failures = np.minimum(counts, fail_carry.astype(np.int64))
        fail_carry -= failures
        rows, columns = np.nonzero(counts)
        for row, column, count, failed in zip(
                rows.tolist(), columns.tolist(),
                counts[rows, columns].tolist(),
                failures[rows, columns].tolist()):
            cls_name = solution.classes[row]
            gateway = self._mesh.gateways[solution.clusters[column]]
            gateway.admit_bulk(cls_name, count)
            # the credit event settles this tick's cohort after its
            # predicted latency, so open_requests drains to zero and
            # request conservation holds exactly at quiesce
            self._sim.schedule(states[row].mean_latency,
                               gateway.settle_bulk, cls_name,
                               count - failed, failed)

    def _apply_windows(self, solution: FluidTickSolution, pool_state,
                       dt: float) -> None:
        hops = solution.hops
        if hops is not self._hops:
            # telemetry windows fill in (class, service) order
            self._hops = hops
            self._window_order = np.array(
                sorted(range(len(hops)), key=hops.__getitem__),
                dtype=np.intp)
            self._hop_exec_time = [
                self._mesh.app.traffic_class(cls_name).exec_time_of(service)
                for cls_name, service in hops]
        order = self._window_order
        counts = self._spill("window", solution.hop_exec_rates[order], dt)
        remote_counts = self._spill("remote",
                                    solution.hop_remote_rates[order], dt)
        rows, columns = np.nonzero(counts | remote_counts)
        for hop, column, count, remote_count in zip(
                order[rows].tolist(), columns.tolist(),
                counts[rows, columns].tolist(),
                remote_counts[rows, columns].tolist()):
            cls_name, service = hops[hop]
            cluster_name = solution.clusters[column]
            pool_key = (service, cluster_name)
            wait = solution.pool_wait.get(pool_key, 0.0)
            entry = pool_state.get(pool_key)
            slowdown = entry[1] if entry is not None else 1.0
            effective_exec = self._hop_exec_time[hop] * slowdown
            self._mesh.proxies[cluster_name].telemetry.observe_bulk(
                service, cls_name, completions=count,
                latency_sum=count * (wait + effective_exec),
                exec_sum=count * effective_exec,
                queue_wait_sum=count * wait,
                remote_arrivals=remote_count)

    def _apply_egress(self, solution: FluidTickSolution, dt: float) -> None:
        network = self._mesh.network
        counts = self._spill("bytes", solution.egress_bytes, dt)
        rows, columns = np.nonzero(counts)
        for row, column, nbytes in zip(rows.tolist(), columns.tolist(),
                                       counts[rows, columns].tolist()):
            src, dst = solution.clusters[row], solution.clusters[column]
            network.ledger.record(
                src, dst, nbytes,
                nbytes * network.pricing.per_byte(src, dst))

    def __repr__(self) -> str:
        return (f"FluidSubstrate(tick={self.tick}, "
                f"bulk_fraction={self.bulk_fraction}, ticks={self.ticks})")
