"""Vectorized arc LP assembly: numpy block construction + structure reuse.

A per-variable builder — one python dict per constraint row, one list
append per variable — is fine at two clusters and hopeless at a hundred
(GATE's observation: TE model *assembly* dominates once the solver is
fast). This module assembles the model with numpy index arithmetic:

* columns are laid out in contiguous **blocks**, one per (class, edge),
  ``column = block.start + src_index * n_dst + dst_index`` — sorted class
  → edge order → source order → destination order;
* every constraint family (demand, conservation, capacity, epigraph,
  egress budget) is emitted as stacked COO triplets and converted to
  canonical CSR once.

The models it must emit are frozen, byte for byte, in
``tests/golden/arc_models.json`` (written by the per-variable reference
builder this module replaced), so scalar float expressions keep that
builder's operation order: a moved fingerprint breaks solver-cache replay
and the warm-start path.

**Structure reuse** is the second win: across adaptive epochs demand
*values* and replica *counts* move — the row/column layout and the
objective depend on demand only through its sparsity pattern, and on
counts only through which pools are deployed. A
:class:`~repro.core.optimizer.model.ModelStructure` snapshot turns the next
epoch's build into "copy b_eq, scatter new demand, refresh per-block flow
bounds, rewrite the pools whose count moved", which is orders of magnitude
cheaper than any cold build.
:class:`StructureCache` keys snapshots — this builder's and the path
builder's alike — by the structural fingerprint of the problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .cache import BoundedLRU
from .model import (CountSlots, LinearModel, ModelStructure, RouteVar,
                    class_edges, pool_segments_for)
from .piecewise import DEFAULT_KNOT_FRACTIONS, Segment
from .problem import INGRESS_EDGE, TEProblem
from .tables import ModelTables

__all__ = ["build_model_vectorized", "StructureCache", "structure_key",
           "DEFAULT_STRUCTURE_CACHE_SIZE"]

#: adaptive controllers alternate between a handful of demand sparsity
#: patterns (classes appearing/disappearing); a small LRU covers them
DEFAULT_STRUCTURE_CACHE_SIZE = 8


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

    Two problems with equal keys (and identical latency/pricing objects —
    checked separately by :meth:`StructureCache.lookup`) produce models
    that differ only in ``b_eq`` demand entries, flow upper bounds and the
    entries each pool's count decides (its load cap and delay chords).
    Placement keys on *which* pools are deployed — a count above 0 — so a
    count change is warm and a deployment change is a miss.
    """
    cluster_index = {name: i for i, name in enumerate(problem.clusters)}
    classes = []
    for name in sorted(problem.workloads):
        workload = problem.workloads[name]
        spec = workload.spec
        classes.append((
            name,
            spec.root_service,
            spec.ingress_request_bytes,
            spec.ingress_response_bytes,
            tuple((e.caller, e.callee, e.calls_per_request,
                   e.request_bytes, e.response_bytes) for e in spec.edges),
            tuple(sorted(spec.exec_time.items())),
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


class StructureCache(BoundedLRU):
    """Bounded LRU cache of demand- and count-independent model structures.

    One cache holds the snapshots of both formulations (their keys never
    collide). Composes with — does not replace — the content-addressed
    :class:`~repro.core.optimizer.cache.SolverCache`: this cache makes
    *builds* cheap when only demand values or replica counts moved; the
    solver cache skips
    the *solve* when nothing moved at all.
    """

    def __init__(self, maxsize: int = DEFAULT_STRUCTURE_CACHE_SIZE) -> None:
        super().__init__(maxsize)

    def lookup(self, key: tuple, problem: TEProblem) -> ModelStructure | None:
        """The snapshot under ``key``, unless the WAN geometry moved since
        it was built (structural equality of latency/pricing content is too
        expensive to verify, so a snapshot only serves the exact objects at
        the revision it was built on) — that is a miss."""
        return self._lookup(
            key, lambda entry: entry.model.tables.structure.matches(problem))

    def store(self, key: tuple, structure: ModelStructure) -> None:
        self._store(key, structure)


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

    def matrix(self, n_cols: int) -> tuple[sparse.csr_matrix, np.ndarray]:
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
        matrix = sparse.csr_matrix(
            (data, cols.astype(idx_dtype), indptr),
            shape=(self.n_rows, n_cols))
        return matrix, np.array(self.rhs, dtype=float)


def build_model_vectorized(problem: TEProblem,
                           knot_fractions=DEFAULT_KNOT_FRACTIONS,
                           structure_cache: StructureCache | None = None,
                           ) -> LinearModel:
    """Assemble the LP with numpy block operations.

    Produces the models ``tests/golden/arc_models.json`` freezes (same
    canonical fingerprint, same solver input). With ``structure_cache``,
    builds whose structural key was seen before skip assembly entirely and
    rescatter demand into the cached matrices.
    """
    key = None
    if structure_cache is not None:
        key = structure_key(problem, knot_fractions)
        structure = structure_cache.lookup(key, problem)
        if structure is not None:
            return structure.instantiate(problem)

    blocks, route_vars = _layout_blocks(problem)
    block_of = {(b.traffic_class, b.edge_index): b for b in blocks}
    n_routes = sum(b.size for b in blocks)

    pools = problem.pools()
    pool_columns = {pool: n_routes + i for i, pool in enumerate(pools)}
    n = n_routes + len(pools)

    objective = np.zeros(n)
    upper = np.empty(n)
    for block in blocks:
        workload = problem.workloads[block.traffic_class]
        upper[block.start:block.stop] = block.flow_bound(
            workload.total_demand)
    upper[n_routes:] = np.inf

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
    # offered work a[s,c] = Σ_k st[k,s] · exec_rate[k,s,c] (erlangs)
    pool_entries: dict[tuple[str, str], list[tuple[np.ndarray, float]]] = {
        pool: [] for pool in pool_columns
    }
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
            src_strides = (block.start
                           + np.arange(block.n_src, dtype=np.intp)
                           * block.n_dst)
            for dst_pos, dst in enumerate(block.dst_names):
                pool_entries[(service, dst)].append(
                    (src_strides + dst_pos, st))

    ub = _Coo()
    pool_segments: dict[tuple[str, str], list[Segment]] = {}
    # pool → (capacity row, flow columns, their work), located once a_ub
    # is canonical
    count_rows: dict[tuple[str, str], tuple] = {}
    for service, cluster in pools:
        t_col = pool_columns[(service, cluster)]
        objective[t_col] = 1.0
        replicas = problem.replica_count(service, cluster)
        a_max = problem.rho_max * replicas
        segments = pool_segments_for(replicas, problem.delay_model, a_max,
                                     knot_fractions)
        pool_segments[(service, cluster)] = segments
        entries = pool_entries[(service, cluster)]
        if not entries:
            # no work expression: t is pushed only by its objective weight
            # toward max(intercepts), so pin it at the zero-load backlog
            ub.add_rows(np.zeros(1, dtype=np.intp),
                        np.array([t_col], dtype=np.intp),
                        np.full(1, -1.0))
            ub.finish_rows([0.0])
            continue
        cols = np.concatenate([c for c, _ in entries])
        work = np.concatenate([np.full(len(c), st) for c, st in entries])
        m = len(cols)
        n_seg = len(segments)
        # one batched emit per pool: the capacity row (work <= a_max)
        # followed by every epigraph row (slope·work - t <= -intercept)
        slopes = np.array([segment.slope for segment in segments])
        seg_data = np.empty((n_seg, m + 1))
        seg_data[:, :m] = slopes[:, None] * work[None, :]
        seg_data[:, m] = -1.0
        seg_cols = np.tile(np.append(cols, t_col), n_seg)
        count_rows[(service, cluster)] = (ub.n_rows, cols, work)
        ub.add_rows(np.zeros(m, dtype=np.intp), cols, work)
        ub.add_rows(
            1 + np.repeat(np.arange(n_seg, dtype=np.intp), m + 1),
            seg_cols, seg_data.ravel())
        ub.finish_rows(
            [a_max] + [-segment.intercept for segment in segments])

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
        pool_columns=pool_columns,
        pool_segments=pool_segments,
        problem=problem,
        tables=ModelTables(problem, pool_columns, a_ub, a_eq, route_vars),
    )
    if key is not None:
        counts = {}
        for pool, (cap_row, cols, work) in count_rows.items():
            n_seg = len(pool_segments[pool])
            counts[pool] = CountSlots.locate(
                a_ub, ("b_ub", cap_row),
                np.arange(cap_row + 1, cap_row + 1 + n_seg), cols, work)
        structure_cache.store(key, ModelStructure(
            model, np.array(demand_rows, dtype=np.intp), demand_slots,
            counts, tuple(knot_fractions), blocks=blocks))
    return model
