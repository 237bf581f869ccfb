"""Vectorized arc LP assembly: numpy block construction + structure reuse.

A per-variable builder — one python dict per constraint row, one list
append per variable — is fine at two clusters and hopeless at a hundred
(GATE's observation: TE model *assembly* dominates once the solver is
fast). This module assembles the model with numpy index arithmetic:

* columns are laid out in contiguous **blocks**, one per (class, edge),
  ``column = block.start + src_index * n_dst + dst_index`` — sorted class
  → edge order → source order → destination order;
* every constraint family (demand, conservation, the pool block,
  egress budget) is emitted as stacked COO triplets and converted to
  canonical CSR once;
* the pool block — one load column per pool, its capacity as a column
  bound, two-entry delay chords — is :func:`_pool_block`, the one the
  path emitter calls too.

``tests/golden/arc_models.json`` freezes, byte for byte, the dense models
of the per-variable reference builder this module replaced; with each
load column substituted back into its rows this builder's models must
match them, so scalar float expressions keep that builder's operation
order.

**Structure reuse** is the second win: across adaptive epochs demand
*values* and replica *counts* move — the row/column layout and the
objective depend on demand only through its sparsity pattern, and on
counts only through which pools are deployed. Every cold build exposes
its :class:`~repro.core.optimizer.model.ModelStructure` snapshot as
``model.snapshot``, which turns the next epoch's build into "copy b_eq,
scatter new demand, refresh per-block flow bounds, rewrite the pools
whose count moved", orders of magnitude cheaper than any cold build.
:func:`structure_key` names what a snapshot depends on; the
:class:`~repro.core.optimizer.warm.EpochSolver` keeps the previous
epoch's snapshot, of this builder or the path builder, under it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import (CountSlots, CsrMatrix, LinearModel, ModelStructure,
                    RouteVar, class_edges, pool_segments_for)
from .piecewise import DEFAULT_KNOT_FRACTIONS, Segment
from .problem import INGRESS_EDGE, TEProblem, class_signature
from .tables import ModelTables

__all__ = ["build_model_vectorized", "structure_key"]


@dataclass(frozen=True)
class _Block:
    """One (class, edge) column block: src-major × dst-minor layout."""

    traffic_class: str
    edge_index: int
    start: int
    n_src: int
    n_dst: int
    #: source/destination cluster names in column order
    src_names: tuple[str, ...]
    dst_names: tuple[str, ...]
    #: indices into problem.clusters (for latency/price matrix gathers)
    src_ids: np.ndarray
    dst_ids: np.ndarray
    #: executions of the caller per ingress request × calls_per_request;
    #: flow bound = total_demand * execs * cpr (ingress: total_demand)
    execs: float
    calls_per_request: float

    @property
    def size(self) -> int:
        return self.n_src * self.n_dst

    @property
    def stop(self) -> int:
        return self.start + self.size

    def flow_bound(self, total_demand: float) -> float:
        # this op order is frozen in tests/golden/arc_models.json
        if self.edge_index == INGRESS_EDGE:
            return total_demand
        return total_demand * self.execs * self.calls_per_request


def structure_key(problem: TEProblem,
                  knot_fractions=DEFAULT_KNOT_FRACTIONS) -> tuple:
    """Everything the model depends on *except* demand values and replica
    counts.

    Two problems with equal keys (and the same latency/pricing objects at
    the same revision — checked separately by
    :meth:`~repro.core.optimizer.tables.StructureTables.matches`, since
    comparing their content is too expensive) produce models
    that differ only in ``b_eq`` demand entries, flow upper bounds and the
    entries each pool's count decides (its load cap and delay chords).
    Placement keys on *which* pools are deployed — a count above 0 — so a
    count change is warm and a deployment change is a miss.
    """
    cluster_index = {name: i for i, name in enumerate(problem.clusters)}
    classes = []
    for name in sorted(problem.workloads):
        workload = problem.workloads[name]
        classes.append((
            name,
            class_signature(workload.spec),
            # demand *pattern*: which clusters have positive ingress, in
            # problem cluster order
            tuple(sorted((c for c, rps in workload.demand.items()
                          if rps > 0), key=cluster_index.__getitem__)),
        ))
    return (
        tuple(problem.clusters),
        tuple(sorted(pool for pool, count in problem.replicas.items()
                     if count > 0)),
        problem.rho_max,
        problem.cost_weight,
        problem.egress_budget,
        problem.delay_model,
        tuple(knot_fractions),
        tuple(classes),
    )


# --------------------------------------------------------------------------
# cold vectorized build
# --------------------------------------------------------------------------

def _cluster_matrices(problem: TEProblem) -> tuple[np.ndarray, np.ndarray]:
    """Dense rtt and per-byte-price gather tables over problem.clusters."""
    names = problem.clusters
    n = len(names)
    rtt = np.empty((n, n))
    price = np.empty((n, n))
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            rtt[i, j] = problem.rtt(a, b)
            price[i, j] = problem.pricing.per_byte(a, b)
    return rtt, price


def _layout_blocks(problem: TEProblem) -> tuple[list[_Block], list[RouteVar]]:
    cluster_id = {name: i for i, name in enumerate(problem.clusters)}
    blocks: list[_Block] = []
    route_vars: list[RouteVar] = []
    next_col = 0
    for name in sorted(problem.workloads):
        workload = problem.workloads[name]
        execs = workload.spec.executions_per_request()
        for edge in class_edges(problem, name):
            destinations = problem.deployed_in(edge.callee)
            if not destinations:
                raise ValueError(
                    f"class {name!r}: service {edge.callee!r} deployed "
                    "nowhere")
            if edge.edge_index == INGRESS_EDGE:
                sources = [c for c in problem.clusters
                           if workload.demand.get(c, 0) > 0]
                edge_execs = 1.0
            else:
                sources = problem.deployed_in(edge.caller)
                edge_execs = execs[edge.caller]
            block = _Block(
                traffic_class=name,
                edge_index=edge.edge_index,
                start=next_col,
                n_src=len(sources),
                n_dst=len(destinations),
                src_names=tuple(sources),
                dst_names=tuple(destinations),
                src_ids=np.array([cluster_id[c] for c in sources],
                                 dtype=np.intp),
                dst_ids=np.array([cluster_id[c] for c in destinations],
                                 dtype=np.intp),
                execs=edge_execs,
                calls_per_request=edge.calls_per_request,
            )
            blocks.append(block)
            route_vars.extend(RouteVar(edge, src, dst)
                              for src in sources for dst in destinations)
            next_col += block.size
    return blocks, route_vars


class _Coo:
    """Accumulates COO triplets as numpy chunks; one concatenate at the end."""

    def __init__(self) -> None:
        self.rows: list[np.ndarray] = []
        self.cols: list[np.ndarray] = []
        self.data: list[np.ndarray] = []
        self.rhs: list[float] = []
        self.n_rows = 0

    def add_rows(self, rows: np.ndarray, cols: np.ndarray,
                 data: np.ndarray) -> None:
        """Append pre-offset entries (row indices relative to 0)."""
        self.rows.append(rows + self.n_rows)
        self.cols.append(cols)
        self.data.append(data)

    def finish_rows(self, rhs_values) -> None:
        """Declare len(rhs_values) rows complete (entries already added)."""
        self.rhs.extend(rhs_values)
        self.n_rows += len(rhs_values)

    def matrix(self, n_cols: int) -> tuple[CsrMatrix, np.ndarray]:
        if self.rows:
            rows = np.concatenate(self.rows)
            cols = np.concatenate(self.cols)
            data = np.concatenate(self.data)
            # build canonical CSR directly: no (row, col) pair is emitted
            # twice by construction, so sorting by (row, col) is all the
            # canonicalization sum_duplicates/sort_indices would do
            order = np.lexsort((cols, rows))
            rows = rows[order]
            cols = cols[order]
            data = data[order]
            counts = np.bincount(rows, minlength=self.n_rows)
        else:
            cols = np.empty(0, dtype=np.intp)
            data = np.empty(0)
            counts = np.zeros(self.n_rows, dtype=np.intp)
        # match scipy's COO->CSR index-dtype choice so fingerprints agree
        # with tests/golden/arc_models.json byte for byte
        maxval = max(self.n_rows, n_cols, len(data))
        idx_dtype = np.int32 if maxval < np.iinfo(np.int32).max else np.int64
        indptr = np.empty(self.n_rows + 1, dtype=idx_dtype)
        indptr[0] = 0
        np.cumsum(counts, out=indptr[1:])
        matrix = CsrMatrix(data, cols.astype(idx_dtype), indptr,
                           (self.n_rows, n_cols))
        return matrix, np.array(self.rhs, dtype=float)


@dataclass(frozen=True)
class _PoolBlock:
    """Where :func:`_pool_block` put each pool."""

    #: (service, cluster) → epigraph column t
    pool_columns: dict[tuple[str, str], int]
    #: (service, cluster) → load column L
    load_columns: dict[tuple[str, str], int]
    pool_segments: dict[tuple[str, str], list[Segment]]
    #: (service, cluster) → its delay-chord rows in ``a_ub``
    chord_rows: dict[tuple[str, str], np.ndarray]

    def count_slots(self, a_ub: CsrMatrix) -> dict:
        """Each pool's :class:`CountSlots` in the canonical ``a_ub``.

        Every chord row is exactly ``(t, L)`` with ``t``'s column below
        ``L``'s, so each slope on ``L`` sits one past its row's start.
        """
        pools = list(self.chord_rows)
        if not pools:
            return {}
        rows = np.concatenate([self.chord_rows[pool] for pool in pools])
        sizes = [len(self.chord_rows[pool]) for pool in pools]
        starts = a_ub.indptr[rows]
        loads = np.repeat([self.load_columns[pool] for pool in pools], sizes)
        assert (a_ub.indptr[rows + 1] - starts == 2).all() and (
            a_ub.indices[starts + 1] == loads).all(), "chord row not (t, L)"
        positions = np.split(starts + 1, np.cumsum(sizes[:-1]))
        return {pool: CountSlots(self.load_columns[pool],
                                 self.chord_rows[pool], at)
                for pool, at in zip(pools, positions)}


def _pool_block(problem: TEProblem, pools: list, n_flows: int, work,
                knot_fractions, objective: np.ndarray, upper: np.ndarray,
                eq: _Coo, ub: _Coo) -> _PoolBlock:
    """Emit every pool's capacity and delay block — the one both
    formulations share.

    The columns after the ``n_flows`` flow columns run t | L: per pool an
    epigraph column ``t`` (objective weight 1) and a load column ``L``,
    the pool's offered work in erlangs. ``L`` has one ``a_eq`` row
    ``Σ work·x − L = 0`` and the load cap ``rho_max · replicas`` as its
    upper bound, and every delay segment reads it as the two-entry row
    ``slope·L − t ≤ −intercept`` — so the non-zeros grow with the flow
    columns' hops, not with hops × segments. A pool no flow reaches has
    ``L = 0`` and ``t`` pinned at the zero-load backlog by its chords.

    ``work`` holds the load rows' flow entries as (pool index, flow
    column, work per unit flow) array triplets.
    """
    n_pools = len(pools)
    pool_columns = {pool: n_flows + i for i, pool in enumerate(pools)}
    load_columns = {pool: n_flows + n_pools + i
                    for i, pool in enumerate(pools)}
    objective[n_flows:n_flows + n_pools] = 1.0
    for pool_ids, cols, coefs in work:
        eq.add_rows(pool_ids, cols, coefs)
    span = np.arange(n_pools, dtype=np.intp)
    eq.add_rows(span, n_flows + n_pools + span, np.full(n_pools, -1.0))
    eq.finish_rows(np.zeros(n_pools))

    pool_segments: dict[tuple[str, str], list[Segment]] = {}
    chord_rows: dict[tuple[str, str], np.ndarray] = {}
    for pool in pools:
        replicas = problem.replica_count(*pool)
        a_max = problem.rho_max * replicas
        segments = pool_segments_for(replicas, problem.delay_model, a_max,
                                     knot_fractions)
        pool_segments[pool] = segments
        upper[load_columns[pool]] = a_max
        n_seg = len(segments)
        seg_data = np.empty((n_seg, 2))
        seg_data[:, 0] = [segment.slope for segment in segments]
        seg_data[:, 1] = -1.0
        chord_rows[pool] = np.arange(ub.n_rows, ub.n_rows + n_seg)
        ub.add_rows(np.repeat(np.arange(n_seg, dtype=np.intp), 2),
                    np.tile(np.array([load_columns[pool],
                                      pool_columns[pool]], dtype=np.intp),
                            n_seg),
                    seg_data.ravel())
        ub.finish_rows([-segment.intercept for segment in segments])
    return _PoolBlock(pool_columns, load_columns, pool_segments, chord_rows)


def build_model_vectorized(problem: TEProblem,
                           knot_fractions=DEFAULT_KNOT_FRACTIONS,
                           ) -> LinearModel:
    """Assemble the LP with numpy block operations, with its snapshot.

    Produces the models ``tests/golden/arc_models.json`` freezes, once
    each pool's load column is substituted back into its rows (same
    canonical fingerprint).
    """
    blocks, route_vars = _layout_blocks(problem)
    block_of = {(b.traffic_class, b.edge_index): b for b in blocks}
    n_routes = sum(b.size for b in blocks)

    # columns: routes | t (epigraph) per pool | L (load) per pool
    pools = problem.pools()
    n = n_routes + 2 * len(pools)

    objective = np.zeros(n)
    upper = np.full(n, np.inf)
    for block in blocks:
        workload = problem.workloads[block.traffic_class]
        upper[block.start:block.stop] = block.flow_bound(
            workload.total_demand)

    rtt, price = _cluster_matrices(problem)

    # flow objective + egress coefficients, one gather per block
    egress_cols: list[np.ndarray] = []
    egress_vals: list[np.ndarray] = []
    for block in blocks:
        if not block.size:
            continue
        src = np.repeat(block.src_ids, block.n_dst)
        dst = np.tile(block.dst_ids, block.n_src)
        edge = route_vars[block.start].edge
        egress = (edge.request_bytes * price[src, dst]
                  + edge.response_bytes * price[dst, src])
        objective[block.start:block.stop] = (
            rtt[src, dst] + problem.cost_weight * egress)
        positive = np.flatnonzero(egress > 0)
        if positive.size:
            egress_cols.append(block.start + positive)
            egress_vals.append(egress[positive])

    # ------------------------------------------------- demand satisfaction
    eq = _Coo()
    demand_rows: list[int] = []
    demand_slots: list[tuple[str, str]] = []
    for name in sorted(problem.workloads):
        workload = problem.workloads[name]
        block = block_of[(name, INGRESS_EDGE)]
        src_pos = {c: i for i, c in enumerate(block.src_names)}
        demanded = [(cluster, rps)
                    for cluster, rps in sorted(workload.demand.items())
                    if rps > 0]
        if not demanded:
            continue
        n_demand = len(demanded)
        starts = np.array(
            [block.start + src_pos[cluster] * block.n_dst
             for cluster, _ in demanded], dtype=np.intp)
        cols = (starts[:, None]
                + np.arange(block.n_dst, dtype=np.intp)[None, :]).ravel()
        eq.add_rows(np.repeat(np.arange(n_demand, dtype=np.intp),
                              block.n_dst),
                    cols, np.ones(n_demand * block.n_dst))
        demand_rows.extend(range(eq.n_rows, eq.n_rows + n_demand))
        demand_slots.extend((name, cluster) for cluster, _ in demanded)
        eq.finish_rows([rps for _, rps in demanded])

    # ------------------------------------------------------- conservation
    for name in sorted(problem.workloads):
        workload = problem.workloads[name]
        edges = class_edges(problem, name)
        incoming = {edge.callee: edge for edge in edges}
        for edge in edges:
            if edge.edge_index == INGRESS_EDGE:
                continue
            block = block_of[(name, edge.edge_index)]
            parent = block_of[(name, incoming[edge.caller].edge_index)]
            n_src = block.n_src          # == parent.n_dst
            if not n_src:
                continue
            span = np.arange(n_src, dtype=np.intp)
            eq.add_rows(
                np.repeat(span, block.n_dst),
                block.start + np.arange(block.size, dtype=np.intp),
                np.ones(block.size))
            if parent.n_src:
                origin_cols = (parent.start
                               + np.arange(parent.n_src, dtype=np.intp)
                               * parent.n_dst)
                eq.add_rows(
                    np.repeat(span, parent.n_src),
                    (origin_cols[None, :] + span[:, None]).ravel(),
                    np.full(n_src * parent.n_src, -edge.calls_per_request))
            eq.finish_rows(np.zeros(n_src))

    # ------------------------------------------- per-pool workload & delay
    # offered work a[s,c] = Σ_k st[k,s] · exec_rate[k,s,c] (erlangs): every
    # flow column into (s, c) carries st[k,s] of it per unit
    pool_index = {pool: i for i, pool in enumerate(pools)}
    work = []
    for name in sorted(problem.workloads):
        workload = problem.workloads[name]
        edges = class_edges(problem, name)
        incoming = {edge.callee: edge for edge in edges}
        for service in workload.spec.services():
            st = workload.spec.exec_time_of(service)
            if st <= 0:
                continue
            block = block_of[(name, incoming[service].edge_index)]
            if not block.n_src:
                continue
            dst_pools = np.array([pool_index[(service, dst)]
                                  for dst in block.dst_names], dtype=np.intp)
            work.append((np.tile(dst_pools, block.n_src),
                         block.start + np.arange(block.size, dtype=np.intp),
                         np.full(block.size, st)))

    ub = _Coo()
    pool_block = _pool_block(problem, pools, n_routes, work, knot_fractions,
                             objective, upper, eq, ub)

    # ------------------------------------------------ egress budget ($/s)
    if problem.egress_budget is not None and egress_cols:
        cols = np.concatenate(egress_cols)
        ub.add_rows(np.zeros(len(cols), dtype=np.intp), cols,
                    np.concatenate(egress_vals))
        ub.finish_rows([problem.egress_budget])

    a_eq, b_eq = eq.matrix(n)
    a_ub, b_ub = ub.matrix(n)
    model = LinearModel(
        objective=objective,
        a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq,
        upper_bounds=upper,
        route_vars=route_vars,
        route_columns=list(range(n_routes)),
        pool_columns=pool_block.pool_columns,
        pool_segments=pool_block.pool_segments,
        problem=problem,
        tables=ModelTables(problem, pools, route_vars),
        load_columns=pool_block.load_columns,
    )
    return replace(model, snapshot=ModelStructure(
        model, np.array(demand_rows, dtype=np.intp), demand_slots,
        pool_block.count_slots(a_ub), tuple(knot_fractions), blocks=blocks))
