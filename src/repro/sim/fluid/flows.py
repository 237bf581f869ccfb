"""Vectorized fluid-flow propagation over the live routing table.

The fluid substrate treats traffic as *rates*, not requests: per traffic
class, ingress demand is a vector over clusters, each routing decision is
an n x n row-stochastic split matrix built from the same precedence
chain :class:`~repro.mesh.proxy.SlateProxy` applies per request (installed
rule restricted to deployed clusters, else local, else nearest deployed),
and one tick of propagation pushes demand down every class's call tree.
The cost of a tick is therefore independent of RPS — the property that
lets a laptop drive millions of simulated users per second. The same
kernel is the steady-state evaluator:
:func:`~repro.analysis.fluid.evaluate_rules` is one ``propagate`` on a
table holding a rule set, with every pool healthy.

Everything a tick needs that only moves when *routing* moves — the call
trees flattened to hops, one split matrix per hop, RTTs, the partition
mask — is compiled into a routing plan at most once per (routing-table
version, latency revision, deployment revision), checked once per tick.
A tick is then a fixed number of array operations per call-tree depth:
all hops at one depth, across every class, are one stacked product.
Batching leaves the arithmetic alone — each number is produced by the
same floating-point operations in the same order as a hop-by-hop walk
(``tests/test_fluid_tick_golden.py`` holds it to exact equality).

Queueing behaviour comes from the same M/M/c relations the Global
Controller assumes (:mod:`repro.core.latency.mm1`): per (service, cluster)
pool the tick computes offered erlangs, the Erlang-C wait, and — beyond
``UTILIZATION_CAP`` — the excess work that a saturated pool sheds as
failures. WAN propagation and egress billing reuse
:class:`~repro.sim.network.LatencyMatrix` / ``EgressPricing`` verbatim, so
chaos latency overrides and partitions take effect on the next tick.

Approximations (documented, and bounded by the parity tests in
``tests/test_hybrid_fidelity.py``): downstream demand of requests that
later fail is still propagated (their upstream work really ran), and
failures are attributed to ingress clusters proportionally per class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ...core.latency.mm1 import erlang_c
from ...devtools import invariants
from ...mesh.routing_table import effective_weights

__all__ = ["UTILIZATION_CAP", "ClassFlowState", "FluidTickSolution",
           "FlowModel", "fast_erlang_c"]

#: fraction of pool capacity the fluid model lets bulk traffic occupy; the
#: remainder of an overloaded pool's offered work is shed as failures so
#: waits (and completion-credit delays) stay finite
UTILIZATION_CAP = 0.999

#: below this many servers the exact O(c) scalar recurrence is used; above
#: it the numpy series form (same quantity, vectorized) takes over
_VECTOR_ERLANG_THRESHOLD = 512


def _erlang_c_series(servers: int, offered: np.ndarray) -> np.ndarray:
    """Erlang-C of ``servers``-replica pools at each ``0 < offered < servers``.

    A numpy cumulative-product evaluation of the inverse-Erlang-B series
    ``1/B = sum_j c!/((c-j)! a^j)``, one row per pool. Intermediate
    overflow to ``inf`` only happens when a pool is so underloaded that C
    is indistinguishable from 0, which is what that row evaluates to.
    """
    factors = ((servers - np.arange(servers, dtype=np.float64))
               / offered[:, None])
    with np.errstate(over="ignore"):
        blocking = 1.0 / (1.0 + np.cumprod(factors, axis=1).sum(axis=1))
    rho = offered / servers
    return blocking / (1.0 - rho + rho * blocking)


def fast_erlang_c(servers: int, offered: float) -> float:
    """Erlang-C that stays cheap for planet-scale pools.

    Identical contract to :func:`~repro.core.latency.mm1.erlang_c`; for
    pools past ``_VECTOR_ERLANG_THRESHOLD`` replicas the O(c) Python
    recurrence is replaced by :func:`_erlang_c_series`.
    """
    if servers <= _VECTOR_ERLANG_THRESHOLD:
        return erlang_c(servers, offered)
    if offered < 0:
        raise ValueError(f"offered load must be >= 0, got {offered}")
    if offered == 0:
        return 0.0
    if offered >= servers:
        return 1.0
    return float(_erlang_c_series(servers, np.array([offered]))[0])


def _wait_probabilities(servers: np.ndarray,
                        offered: np.ndarray) -> np.ndarray:
    """:func:`fast_erlang_c` per pool, given ``0 < offered < servers``.

    Pools of equal size share one series evaluation, so a uniformly
    provisioned fleet costs one batch of array operations per tick.
    """
    out = np.empty(len(offered))
    for count in np.unique(servers).tolist():
        rows = np.flatnonzero(servers == count)
        if count <= _VECTOR_ERLANG_THRESHOLD:
            out[rows] = [erlang_c(count, load)
                         for load in offered[rows].tolist()]
        else:
            out[rows] = _erlang_c_series(count, offered[rows])
    return out


@dataclass
class ClassFlowState:
    """One traffic class's flows for one tick, as numpy rates."""

    traffic_class: str
    #: ingress demand per cluster (requests/second), cluster order of the
    #: owning :class:`FlowModel`
    demand: np.ndarray
    #: service -> execution rate per cluster (requests/second)
    exec_rates: dict[str, np.ndarray] = field(default_factory=dict)
    #: service -> arrivals from *other* clusters per cluster
    remote_rates: dict[str, np.ndarray] = field(default_factory=dict)
    #: sum over flows of rate x rtt (latency-seconds per second on the WAN)
    network_delay_rate: float = 0.0
    #: requests/second lost to partitions and saturated pools
    failed_rate: float = 0.0
    #: predicted mean end-to-end latency of completing requests, seconds
    mean_latency: float = 0.0

    @property
    def total_demand(self) -> float:
        return float(self.demand.sum())

    @property
    def failure_fraction(self) -> float:
        """Fraction of this class's demand that will fail, clamped to 1."""
        total = self.total_demand
        if total <= 0:
            return 0.0
        return min(1.0, self.failed_rate / total)


@dataclass
class FluidTickSolution:
    """Everything one tick of propagation derived from the routing state."""

    clusters: tuple[str, ...]
    per_class: dict[str, ClassFlowState]
    #: (service, cluster) -> arrival rate, requests/second (all classes)
    pool_arrival: dict[tuple[str, str], float]
    #: (service, cluster) -> offered work, erlangs (slowdown included)
    pool_offered: dict[tuple[str, str], float]
    #: (service, cluster) -> mean M/M/c queueing wait, seconds (finite)
    pool_wait: dict[tuple[str, str], float]
    #: bytes/second leaving row cluster toward column cluster
    egress_bytes: np.ndarray
    #: dollars/second of egress across all pairs
    egress_cost_rate: float
    #: the array form of ``per_class``, for consumers that integrate every
    #: flow each tick: traffic classes (sorted) indexing ``demand`` rows,
    #: and one (class, service) hop per row of ``hop_exec_rates`` /
    #: ``hop_remote_rates`` — classes sorted, services in call-tree order;
    #: the ``per_class`` rate vectors are views of these rows
    classes: tuple[str, ...]
    demand: np.ndarray
    hops: tuple[tuple[str, str], ...]
    hop_exec_rates: np.ndarray
    hop_remote_rates: np.ndarray


class _Hop(NamedTuple):
    """One (class, service) node of a call tree, with its inbound edge."""

    traffic_class: str
    service: str
    class_row: int
    #: where this hop's calls originate: the class's demand row at the
    #: root, the caller's hop row below it
    origin: int
    depth: int
    #: calls per origin request (1.0 at the root: demand arrives as is)
    calls: float
    request_bytes: int
    response_bytes: int
    exec_time: float


def _call_tree_hops(spec, class_row: int, first_row: int) -> list[_Hop]:
    """``spec``'s call tree as hops, root first, in breadth-first order.

    The order a hop-by-hop walk visits them in, and — trees having one
    caller per service — one hop per service the class touches.
    ``first_row`` is the row the root will occupy among all hops.
    """
    hops = [_Hop(spec.name, spec.root_service, class_row, class_row, 0, 1.0,
                 spec.ingress_request_bytes, spec.ingress_response_bytes,
                 spec.exec_time_of(spec.root_service))]
    row_of = {spec.root_service: 0}
    children = spec.children_map()
    for service in spec.services():
        caller = row_of[service]
        for edge in children.get(service, []):
            row_of[edge.callee] = len(hops)
            hops.append(_Hop(
                spec.name, edge.callee, class_row, first_row + caller,
                hops[caller].depth + 1, edge.calls_per_request,
                edge.request_bytes, edge.response_bytes,
                spec.exec_time_of(edge.callee)))
    return hops


@dataclass(frozen=True)
class _Level:
    """Every hop at one call-tree depth, across all classes, stacked."""

    #: rows of the plan's hop arrays
    hops: np.ndarray
    #: where each hop's calls originate: demand rows (class index) at
    #: depth 0, the caller's hop row below
    origins: np.ndarray
    #: calls per origin request, as a column (1.0 at depth 0)
    calls: np.ndarray
    #: one split matrix per hop, (k, n, n)
    matrices: np.ndarray
    #: the hops (positions in this level) that can bill egress — some
    #: split weight leaves the source cluster and the call carries bytes —
    #: their rows in the tick's egress terms, and their byte sizes
    billed: np.ndarray
    egress_rows: np.ndarray
    request_bytes: np.ndarray
    response_bytes: np.ndarray


@dataclass(frozen=True)
class _RoutingPlan:
    """What a tick needs that only changes when routing does."""

    signature: tuple
    classes: tuple[str, ...]
    class_row: dict[str, int]
    #: sorted, so (service row, cluster column) order is sorted pool order
    services: tuple[str, ...]
    service_row: dict[str, int]
    #: (class, service) per hop: classes sorted, each class's call tree in
    #: breadth-first order — a function of the app alone, so hop rows mean
    #: the same thing in every plan one model compiles
    hops: tuple[tuple[str, str], ...]
    hop_class: np.ndarray
    hop_service: np.ndarray
    #: ``hop_class`` repeated per cluster: the class of each entry of a
    #: flattened (hops x clusters) array
    cell_class: np.ndarray
    #: per-hop exec time as a column
    exec_time: np.ndarray
    #: hops whose service no cluster deploys; a live flow reaching one is
    #: an error (their split matrices are all zero)
    stranded: np.ndarray
    levels: tuple[_Level, ...]
    #: hops that can bill egress, over all levels
    n_billed: int
    rtt: np.ndarray
    #: 1.0 where a partition severs the pair; None without partitions
    severed: np.ndarray | None


class FlowModel:
    """Compiles routing into a plan and propagates demand through it."""

    def __init__(self, app, deployment, table, latency, pricing) -> None:
        self._app = app
        self._deployment = deployment
        self._table = table
        self._latency = latency
        self._pricing = pricing
        self.clusters: tuple[str, ...] = tuple(sorted(deployment.cluster_names))
        self._index = {name: i for i, name in enumerate(self.clusters)}
        n = len(self.clusters)
        self._price = np.array(
            [[pricing.per_byte(a, b) for b in self.clusters]
             for a in self.clusters])
        self._off_diagonal = 1.0 - np.eye(n)
        self._plan: _RoutingPlan | None = None
        #: the previous tick's (plan, demand entries, pool state, solution)
        self._solved: tuple | None = None
        #: routing plans compiled so far — a deterministic work counter:
        #: one per tick that found the routing table, the latency matrix
        #: or the deployment changed since the previous tick
        self.compiles = 0
        self._debug_invariants = invariants.invariants_enabled()

    # ------------------------------------------------------------ compiling

    def _current_plan(self) -> _RoutingPlan:
        signature = (self._table.version, self._latency.revision,
                     self._deployment.revision)
        if self._plan is None or self._plan.signature != signature:
            self._plan = self._compile(signature)
        return self._plan

    def _compile(self, signature: tuple) -> _RoutingPlan:
        self.compiles += 1
        n = len(self.clusters)
        classes = tuple(sorted(self._app.classes))
        hops: list[_Hop] = []
        for row, cls_name in enumerate(classes):
            hops += _call_tree_hops(self._app.classes[cls_name], row,
                                    first_row=len(hops))
        services = tuple(sorted({hop.service for hop in hops}))
        service_row = {name: i for i, name in enumerate(services)}
        deployed = {service: bool(self._deployment.clusters_with(service))
                    for service in services}

        def column(field: str, dtype) -> np.ndarray:
            return np.array([getattr(hop, field) for hop in hops],
                            dtype=dtype)

        depth = column("depth", np.intp)
        origin = column("origin", np.intp)
        calls = column("calls", np.float64)
        request_bytes = column("request_bytes", np.float64)
        response_bytes = column("response_bytes", np.float64)
        matrices = np.array([
            self.routing_matrix(hop.service, hop.traffic_class)
            if deployed[hop.service] else np.zeros((n, n))
            for hop in hops]).reshape(-1, n, n)
        bills = ((matrices * self._off_diagonal).any(axis=(1, 2))
                 & ((request_bytes > 0) | (response_bytes > 0)))
        # egress terms are summed in hop order, whatever the depth
        egress_row = np.cumsum(bills) - 1
        levels = []
        for level_depth in range(int(depth.max(initial=-1)) + 1):
            rows = np.flatnonzero(depth == level_depth)
            billed = np.flatnonzero(bills[rows])
            levels.append(_Level(
                hops=rows, origins=origin[rows], calls=calls[rows, None],
                matrices=matrices[rows], billed=billed,
                egress_rows=egress_row[rows[billed]],
                request_bytes=request_bytes[rows[billed], None, None],
                response_bytes=response_bytes[rows[billed], None, None]))

        severed = None
        if self._latency.has_partitions:
            severed = np.array(
                [[1.0 if self._latency.is_partitioned(a, b) else 0.0
                  for b in self.clusters] for a in self.clusters])
        hop_class = column("class_row", np.intp)
        return _RoutingPlan(
            signature=signature, classes=classes,
            class_row={name: i for i, name in enumerate(classes)},
            services=services, service_row=service_row,
            hops=tuple((hop.traffic_class, hop.service) for hop in hops),
            hop_class=hop_class,
            hop_service=np.array([service_row[hop.service] for hop in hops],
                                 dtype=np.intp),
            cell_class=np.repeat(hop_class, n),
            exec_time=column("exec_time", np.float64)[:, None],
            stranded=np.array([row for row, hop in enumerate(hops)
                               if not deployed[hop.service]], dtype=np.intp),
            levels=tuple(levels), n_billed=int(bills.sum()),
            rtt=np.array([[self._latency.rtt(a, b) for b in self.clusters]
                          for a in self.clusters]),
            severed=severed)

    def routing_matrix(self, service: str, traffic_class: str) -> np.ndarray:
        """The n x n split matrix for one (service, class); row = source.

        Row ``i`` is the probability split a proxy at cluster ``i`` applies
        to a call of ``service`` — the exact fallback chain of
        :meth:`~repro.mesh.proxy.SlateProxy.choose_cluster`. Every row sums
        to 1 (checked under ``REPRO_DEBUG_INVARIANTS``). Built from the
        live table on every call; the tick reads the copies its routing
        plan stacked when it was compiled.
        """
        deployed = self._deployment.clusters_with(service)
        if not deployed:
            raise ValueError(f"service {service!r} is not deployed anywhere")
        n = len(self.clusters)
        matrix = np.zeros((n, n))
        for i, src in enumerate(self.clusters):
            usable = effective_weights(
                self._table.weights_for(service, traffic_class, src),
                src, deployed, self._latency)
            total = sum(usable.values())
            for cluster, weight in usable.items():
                matrix[i, self._index[cluster]] = weight / total
        if self._debug_invariants:
            invariants.check_routing_matrix(service, traffic_class, matrix)
        return matrix

    # ---------------------------------------------------------- propagation

    def propagate(self, demand,
                  pool_state: dict[tuple[str, str], tuple[int, float]],
                  ) -> FluidTickSolution:
        """One tick's steady-state flows for ``demand``.

        ``pool_state`` maps (service, cluster) to the live (replicas,
        slowdown) of that pool — read from the mesh each tick so chaos
        degradation and autoscaler resizes shape the very next solution
        (neither touches the routing plan). A tick whose plan, demand and
        pool state all equal the previous tick's gets the previous
        solution back: treat solutions as read-only.
        """
        plan = self._current_plan()
        entries = demand.items()
        if self._solved is not None:
            # the solution is a function of exactly these three inputs, and
            # demand is piecewise constant between timeline keyframes
            solved_plan, solved_entries, solved_pools, solution = self._solved
            if (solved_plan is plan and solved_entries == entries
                    and solved_pools == pool_state):
                return solution
        solution = self._solve(plan, entries, pool_state)
        self._solved = (plan, entries, dict(pool_state), solution)
        return solution

    def _solve(self, plan: _RoutingPlan, entries, pool_state,
               ) -> FluidTickSolution:
        """Push sorted demand ``entries`` through ``plan``, depth by depth.

        Sums that feed results accumulate in hop order (``np.add.at`` is
        unbuffered and sequential), which is the order a class-by-class,
        hop-by-hop walk of the call trees would add them in.
        """
        n = len(self.clusters)
        n_hops = len(plan.hops)
        n_classes = len(plan.classes)

        rates = np.zeros((n_classes, n))
        for cls_name, cluster, rps in entries:
            row = plan.class_row.get(cls_name)
            column = self._index.get(cluster)
            if row is not None and column is not None:
                rates[row, column] = rps

        exec_rates = np.zeros((n_hops, n))
        remote_rates = np.zeros((n_hops, n))
        live = np.zeros(n_hops, dtype=bool)
        wan_delay = np.zeros(n_hops)
        lost = np.zeros(n_hops)
        egress_terms = np.zeros((plan.n_billed, n, n))
        source = rates
        for level in plan.levels:
            origin = source[level.origins] * level.calls
            source = exec_rates
            width = len(level.hops)
            flows = origin[:, :, None] * level.matrices
            if plan.severed is not None:
                cut = flows * plan.severed
                lost[level.hops] = cut.reshape(width, -1).sum(axis=1)
                flows -= cut
            wan_delay[level.hops] = (
                (flows * plan.rtt).reshape(width, -1).sum(axis=1))
            crossing = flows[level.billed] * self._off_diagonal
            egress_terms[level.egress_rows] = (
                crossing * level.request_bytes
                + crossing.transpose(0, 2, 1) * level.response_bytes)
            arrivals = flows.sum(axis=1)
            live[level.hops] = origin.sum(axis=1) > 0
            exec_rates[level.hops] = arrivals
            remote_rates[level.hops] = (
                arrivals - flows.diagonal(axis1=1, axis2=2))
        if live[plan.stranded].any():
            hop = int(plan.stranded[np.argmax(live[plan.stranded])])
            raise ValueError(
                f"service {plan.hops[hop][1]!r} is not deployed anywhere")
        egress_bytes = egress_terms.sum(axis=0)

        # pool state as (services x clusters) arrays; 0 replicas = no pool
        shape = (len(plan.services), n)
        replicas = np.zeros(shape, dtype=np.int64)
        slowdown = np.ones(shape)
        for (service, cluster), (count, factor) in pool_state.items():
            row = plan.service_row.get(service)
            column = self._index.get(cluster)
            if row is not None and column is not None:
                replicas[row, column] = count
                slowdown[row, column] = factor
        hop_slowdown = slowdown[plan.hop_service]
        arrival = np.zeros(shape)
        offered = np.zeros(shape)
        np.add.at(arrival, plan.hop_service, exec_rates)
        np.add.at(offered, plan.hop_service,
                  exec_rates * plan.exec_time * hop_slowdown)

        failed = np.zeros(n_classes)
        np.add.at(failed, plan.hop_class, lost)
        wait = self._solve_pools(plan, exec_rates, replicas, slowdown,
                                 arrival, offered, failed)

        # mean e2e latency per class: pool sojourns plus WAN round trips
        sojourn = wait[plan.hop_service] + plan.exec_time * hop_slowdown
        latency_rate = np.zeros(n_classes)
        np.add.at(latency_rate, plan.cell_class,
                  (exec_rates * sojourn).ravel())
        delay_rate = np.zeros(n_classes)
        np.add.at(delay_rate, plan.hop_class, wan_delay)
        totals = rates.sum(axis=1)
        mean_latency = np.divide(latency_rate + delay_rate, totals,
                                 out=np.zeros(n_classes), where=totals > 0)

        per_class = {
            cls_name: ClassFlowState(cls_name, rates[row],
                                     network_delay_rate=delay,
                                     failed_rate=loss, mean_latency=latency)
            for row, (cls_name, delay, loss, latency) in enumerate(zip(
                plan.classes, delay_rate.tolist(), failed.tolist(),
                mean_latency.tolist()))}
        for hop in np.flatnonzero(live).tolist():
            cls_name, service = plan.hops[hop]
            state = per_class[cls_name]
            state.exec_rates[service] = exec_rates[hop]
            state.remote_rates[service] = remote_rates[hop]
        loaded = offered > 0
        return FluidTickSolution(
            clusters=self.clusters, per_class=per_class,
            pool_arrival=self._pool_dict(plan, arrival, arrival > 0),
            pool_offered=self._pool_dict(plan, offered, loaded),
            pool_wait=self._pool_dict(plan, wait, loaded),
            egress_bytes=egress_bytes,
            egress_cost_rate=float((egress_bytes * self._price).sum()),
            classes=plan.classes, demand=rates, hops=plan.hops,
            hop_exec_rates=exec_rates, hop_remote_rates=remote_rates)

    def _pool_dict(self, plan: _RoutingPlan, values: np.ndarray,
                   mask: np.ndarray) -> dict[tuple[str, str], float]:
        rows, columns = np.nonzero(mask)
        return {(plan.services[row], self.clusters[column]): value
                for row, column, value in zip(rows.tolist(), columns.tolist(),
                                              values[mask].tolist())}

    def _solve_pools(self, plan: _RoutingPlan, exec_rates, replicas,
                     slowdown, arrival, offered, failed) -> np.ndarray:
        """M/M/c waits per pool, shedding over-capacity work as failures.

        Returns the (services x clusters) mean waits; adds each class's
        share of shed work to ``failed`` in place.
        """
        loaded = offered > 0
        if (loaded & (replicas < 1)).any():
            row, column = np.argwhere(loaded & (replicas < 1))[0]
            raise ValueError(
                "flow routed to undeployed pool "
                f"{plan.services[row]!r}@{self.clusters[column]!r}")
        capacity = UTILIZATION_CAP * replicas
        effective = np.minimum(offered, capacity)
        wait = np.zeros(offered.shape)
        wait[loaded] = (
            _wait_probabilities(replicas[loaded], effective[loaded])
            * (offered[loaded] / arrival[loaded])
            / (replicas[loaded] - effective[loaded]))
        # saturated pools, in sorted (service, cluster) order: each class
        # loses the requests its share of the excess work stands for
        for row, column in np.argwhere(offered > capacity).tolist():
            callers = np.flatnonzero(plan.hop_service == row)
            callers = callers[(exec_rates[callers, column] > 0)
                              & (plan.exec_time[callers, 0] > 0)]
            service_time = plan.exec_time[callers, 0]
            share = (exec_rates[callers, column] * service_time
                     * slowdown[row, column] / offered[row, column])
            excess = offered[row, column] - capacity[row, column]
            failed[plan.hop_class[callers]] += (
                excess * share / (service_time * slowdown[row, column]))
        return wait
