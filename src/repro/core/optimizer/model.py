"""LP formulation of the SLATE request-routing problem (§3.3).

Decision variables are per-class, per-call-tree-edge flow rates between
cluster pairs: ``x[k, e, i, j]`` = requests/second of class ``k`` on edge
``e`` issued from cluster ``i`` and served in cluster ``j``. A pseudo-edge
represents ingress (user → root service). Per-pool epigraph variables
``t[s, c]`` linearise the convex queueing backlog.

Objective (all terms in latency-seconds per second, i.e. mean outstanding
requests — by Little's law, with fixed demand, minimizing it minimizes mean
end-to-end latency):

* ``Σ t[s,c]`` — queueing + service backlog per pool,
* ``Σ x · rtt(i, j)`` — WAN request+response crossings,
* ``α · Σ x · (bytes · price)`` — egress cost, converted by ``cost_weight``.

Constraints: demand satisfaction, per-(class, edge, source) flow
conservation down the call tree, per-pool utilization caps, and the epigraph
family. The paper calls its program mixed-integer; this is its LP, whose
fractional splits are exactly what the data plane executes — a split cap
earns nothing on the paper's instances (docs/formulation.md, "Why the
program is an LP").
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse

from ..latency.mm1 import PoolDelayModel
from .piecewise import DEFAULT_KNOT_FRACTIONS, Segment, linearize_convex
from .problem import INGRESS_EDGE, TEProblem
from .tables import ModelTables

__all__ = ["EdgeRef", "RouteVar", "LinearModel", "ModelStructure",
           "build_model", "build_model_loop", "class_edges",
           "pool_segments_for"]

#: memoized piecewise linearizations — Erlang-C evaluation at the knots
#: dominates build cost, and uniform fleets share a handful of
#: (replicas, mode, load-cap) combinations across hundreds of pools
_SEGMENTS_MEMO: dict[tuple, list[Segment]] = {}
_SEGMENTS_MEMO_MAX = 4096


def pool_segments_for(replicas: int, mode: str, a_max: float,
                      knot_fractions) -> list[Segment]:
    """Chord segments for one pool's delay model, memoized by content.

    ``linearize_convex`` is deterministic, so memoization cannot change
    any model — it only skips recomputing identical Erlang-C chords.
    """
    key = (replicas, mode, a_max, tuple(knot_fractions))
    segments = _SEGMENTS_MEMO.get(key)
    if segments is None:
        delay_model = PoolDelayModel(replicas, mode=mode)
        segments = linearize_convex(delay_model.backlog, a_max,
                                    knot_fractions)
        if len(_SEGMENTS_MEMO) >= _SEGMENTS_MEMO_MAX:
            _SEGMENTS_MEMO.clear()
        _SEGMENTS_MEMO[key] = segments
    return segments


@dataclass(frozen=True)
class EdgeRef:
    """One call-tree edge of one class, as the model sees it."""

    traffic_class: str
    edge_index: int          # INGRESS_EDGE or index into spec.edges
    caller: str | None       # None for ingress
    callee: str
    calls_per_request: float
    request_bytes: int
    response_bytes: int


@dataclass(frozen=True)
class RouteVar:
    """Identity of one flow variable."""

    edge: EdgeRef
    src: str
    dst: str


@dataclass
class LinearModel:
    """Assembled LP ready for HiGHS.

    Both formulations emit this one model. They differ in what a flow
    column *is*: a :class:`RouteVar` (one arc of one call-tree edge) or a
    :class:`~repro.core.optimizer.paths.CandidateEmbedding` (one end-to-end
    embedding of a class's call tree, feeding every edge it crosses).
    """

    objective: np.ndarray
    a_ub: sparse.csr_matrix
    b_ub: np.ndarray
    a_eq: sparse.csr_matrix
    b_eq: np.ndarray
    upper_bounds: np.ndarray
    #: identity of each flow column: RouteVar (arc) or CandidateEmbedding
    route_vars: list
    #: column of each flow variable (same order as route_vars)
    route_columns: list[int]
    #: (service, cluster) → epigraph column
    pool_columns: dict[tuple[str, str], int]
    #: (service, cluster) → piecewise segments used
    pool_segments: dict[tuple[str, str], list[Segment]]
    problem: TEProblem
    #: demand-independent lookups, shared with the cached structure
    tables: ModelTables
    #: (service, cluster) → load column L, the pool's offered work in
    #: erlangs (path "latency" objective; the arc LP has none)
    load_columns: dict[tuple[str, str], int] = field(default_factory=dict)
    #: per path column, the flow keys one unit of it feeds and the call
    #: multiplier of each: the ingress hop (× 1.0) first, then the
    #: call-tree edges. None for the arc model, whose columns are their
    #: own single hop (see :meth:`hops`)
    route_hops: list[tuple] | None = None

    @property
    def n_variables(self) -> int:
        return len(self.objective)

    def hops(self, index: int) -> tuple:
        """``(flow key, multiplier)`` of every (class, edge, src, dst) arc
        one unit of flow column ``route_vars[index]`` feeds."""
        if self.route_hops is not None:
            return self.route_hops[index]
        var = self.route_vars[index]
        return (((var.edge.traffic_class, var.edge.edge_index,
                  var.src, var.dst), 1.0),)


@dataclass
class ModelStructure:
    """Demand-independent snapshot of an assembled LP: the cold-built
    model itself plus where demand lands in it.

    Across adaptive epochs only demand *values* move; the constraint
    matrices, objective and column layout depend on demand only through
    its sparsity pattern (part of the cache key). A warm rebuild
    (:meth:`instantiate`) is therefore the cold model with a fresh copy of
    ``b_eq``, which carries demand — and, for the arc formulation, of the
    flow bounds that scale with it. Everything else is *shared* between
    the snapshot and every model instantiated from it, which is what lets
    the warm-start solver recognise "same structure, new demand" by the
    identity of ``tables``.
    """

    model: LinearModel
    #: positions of the demand rows in ``b_eq``
    demand_rows: np.ndarray
    #: demand fill order: (class, cluster) per demand row
    demand_slots: list[tuple[str, str]]
    #: arc only: the (class, edge) column blocks, whose flow upper bounds
    #: are a multiple of the class's total demand (``start``, ``stop``,
    #: ``traffic_class``, ``flow_bound(total_demand)``)
    blocks: Sequence = ()

    def instantiate(self, problem: TEProblem) -> LinearModel:
        """Warm rebuild: scatter the new demand into the cached model."""
        model = self.model
        b_eq = model.b_eq.copy()
        b_eq[self.demand_rows] = [problem.workloads[name].demand[cluster]
                                  for name, cluster in self.demand_slots]
        moved = {"b_eq": b_eq}
        if self.blocks:
            upper = model.upper_bounds.copy()
            for block in self.blocks:
                upper[block.start:block.stop] = block.flow_bound(
                    problem.workloads[block.traffic_class].total_demand)
            moved["upper_bounds"] = upper
        return replace(model, problem=problem, **moved)


def class_edges(problem: TEProblem, name: str) -> list[EdgeRef]:
    """The ingress pseudo-edge plus the class's call-tree edges."""
    spec = problem.workloads[name].spec
    refs = [EdgeRef(name, INGRESS_EDGE, None, spec.root_service, 1.0,
                    spec.ingress_request_bytes, spec.ingress_response_bytes)]
    refs.extend(
        EdgeRef(name, index, edge.caller, edge.callee, edge.calls_per_request,
                edge.request_bytes, edge.response_bytes)
        for index, edge in enumerate(spec.edges)
    )
    return refs


def _edge_sources(problem: TEProblem, workload, edge: EdgeRef) -> list[str]:
    if edge.edge_index == INGRESS_EDGE:
        return [c for c in problem.clusters if workload.demand.get(c, 0) > 0]
    return problem.deployed_in(edge.caller)


def _edge_flow_bound(problem: TEProblem, workload, edge: EdgeRef) -> float:
    """Upper bound on total flow along one class edge."""
    if edge.edge_index == INGRESS_EDGE:
        return workload.total_demand
    execs = workload.spec.executions_per_request()
    return (workload.total_demand * execs[edge.caller]
            * edge.calls_per_request)


def build_model(problem: TEProblem, knot_fractions=DEFAULT_KNOT_FRACTIONS,
                structure_cache=None) -> LinearModel:
    """Assemble the LP for ``problem`` (numpy block construction).

    ``structure_cache`` (a :class:`~repro.core.optimizer.vectorized
    .StructureCache`) lets repeated LP builds that differ only in demand
    values reuse the assembled matrices. :func:`build_model_loop` is the
    per-variable reference this is tested against, byte for byte.
    """
    from .vectorized import build_model_vectorized
    return build_model_vectorized(problem, knot_fractions=knot_fractions,
                                  structure_cache=structure_cache)


def build_model_loop(problem: TEProblem,
                     knot_fractions=DEFAULT_KNOT_FRACTIONS) -> LinearModel:
    """Reference per-variable assembly (the pre-vectorization builder).

    Kept as the executable specification the vectorized builder is tested
    against: simple enough to audit row by row, far too slow past a few
    dozen clusters.
    """
    # ------------------------------------------------------------- columns
    route_vars: list[RouteVar] = []
    route_columns: list[int] = []
    var_col: dict[tuple[str, int, str, str], int] = {}
    upper: list[float] = []
    next_col = 0
    for name in sorted(problem.workloads):
        workload = problem.workloads[name]
        for edge in class_edges(problem, name):
            destinations = problem.deployed_in(edge.callee)
            if not destinations:
                raise ValueError(
                    f"class {name!r}: service {edge.callee!r} deployed "
                    "nowhere")
            bound = _edge_flow_bound(problem, workload, edge)
            for src in _edge_sources(problem, workload, edge):
                for dst in destinations:
                    var_col[(name, edge.edge_index, src, dst)] = next_col
                    route_vars.append(RouteVar(edge, src, dst))
                    route_columns.append(next_col)
                    upper.append(bound)
                    next_col += 1

    pool_columns: dict[tuple[str, str], int] = {}
    for service, cluster in problem.pools():
        pool_columns[(service, cluster)] = next_col
        upper.append(np.inf)
        next_col += 1

    n = next_col
    objective = np.zeros(n)

    eq_rows: list[tuple[dict[int, float], float]] = []
    ub_rows: list[tuple[dict[int, float], float]] = []

    # ------------------------------------------------- demand satisfaction
    for name in sorted(problem.workloads):
        workload = problem.workloads[name]
        spec = workload.spec
        root_dsts = problem.deployed_in(spec.root_service)
        for cluster, rps in sorted(workload.demand.items()):
            if rps <= 0:
                continue
            row = {var_col[(name, INGRESS_EDGE, cluster, dst)]: 1.0
                   for dst in root_dsts}
            eq_rows.append((row, rps))

    # ------------------------------------------------------- conservation
    # incoming edge of each service in each class (trees: unique)
    for name in sorted(problem.workloads):
        workload = problem.workloads[name]
        edges = class_edges(problem, name)
        incoming = {edge.callee: edge for edge in edges}
        for edge in edges:
            if edge.edge_index == INGRESS_EDGE:
                continue
            parent_edge = incoming[edge.caller]
            parent_sources = _edge_sources(problem, workload, parent_edge)
            for src in problem.deployed_in(edge.caller):
                row: dict[int, float] = {}
                for dst in problem.deployed_in(edge.callee):
                    col = var_col[(name, edge.edge_index, src, dst)]
                    row[col] = row.get(col, 0.0) + 1.0
                for origin in parent_sources:
                    col = var_col[(name, parent_edge.edge_index, origin, src)]
                    row[col] = row.get(col, 0.0) - edge.calls_per_request
                eq_rows.append((row, 0.0))

    # ------------------------------------------- per-pool workload & delay
    # offered work a[s,c] = Σ_k st[k,s] · exec_rate[k,s,c] (erlangs)
    work_expr: dict[tuple[str, str], dict[int, float]] = {
        pool: {} for pool in pool_columns
    }
    for name in sorted(problem.workloads):
        workload = problem.workloads[name]
        edges = class_edges(problem, name)
        incoming = {edge.callee: edge for edge in edges}
        for service in workload.spec.services():
            st = workload.spec.exec_time_of(service)
            if st <= 0:
                continue
            edge = incoming[service]
            for src in _edge_sources(problem, workload, edge):
                for dst in problem.deployed_in(service):
                    col = var_col[(name, edge.edge_index, src, dst)]
                    expr = work_expr[(service, dst)]
                    expr[col] = expr.get(col, 0.0) + st

    pool_segments: dict[tuple[str, str], list[Segment]] = {}
    for (service, cluster), t_col in pool_columns.items():
        expr = work_expr[(service, cluster)]
        replicas = problem.replica_count(service, cluster)
        a_max = problem.rho_max * replicas
        # capacity: a <= rho_max * replicas
        if expr:
            ub_rows.append((dict(expr), a_max))
        # epigraph: slope·a - t <= -intercept
        segments = pool_segments_for(replicas, problem.delay_model, a_max,
                                     knot_fractions)
        pool_segments[(service, cluster)] = segments
        objective[t_col] = 1.0
        if expr:
            for segment in segments:
                row = {col: segment.slope * coeff
                       for col, coeff in expr.items()}
                row[t_col] = row.get(t_col, 0.0) - 1.0
                ub_rows.append((row, -segment.intercept))
        # with no work expression, t is only pushed by its objective weight
        # toward max(intercepts); pin it at the zero-load backlog (0)
        else:
            ub_rows.append(({t_col: -1.0}, 0.0))

    # ------------------------------------------------- objective for flows
    egress_coeffs: dict[int, float] = {}
    for var, col in zip(route_vars, route_columns):
        edge = var.edge
        net_delay = problem.rtt(var.src, var.dst)
        egress = (problem.transfer_cost(var.src, var.dst, edge.request_bytes)
                  + problem.transfer_cost(var.dst, var.src,
                                          edge.response_bytes))
        objective[col] = net_delay + problem.cost_weight * egress
        if egress > 0:
            egress_coeffs[col] = egress

    # ------------------------------------------------ egress budget ($/s)
    if problem.egress_budget is not None and egress_coeffs:
        ub_rows.append((dict(egress_coeffs), problem.egress_budget))

    a_eq, b_eq = _assemble(eq_rows, n)
    a_ub, b_ub = _assemble(ub_rows, n)
    return LinearModel(
        objective=objective,
        a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq,
        upper_bounds=np.array(upper),
        route_vars=route_vars,
        route_columns=route_columns,
        pool_columns=pool_columns,
        pool_segments=pool_segments,
        problem=problem,
        tables=ModelTables(problem, pool_columns, a_ub, a_eq),
    )


def _assemble(rows: list[tuple[dict[int, float], float]],
              n_cols: int) -> tuple[sparse.csr_matrix, np.ndarray]:
    data: list[float] = []
    row_idx: list[int] = []
    col_idx: list[int] = []
    rhs = np.zeros(len(rows))
    for r, (row, bound) in enumerate(rows):
        rhs[r] = bound
        for col, coeff in row.items():
            row_idx.append(r)
            col_idx.append(col)
            data.append(coeff)
    matrix = sparse.csr_matrix(
        (data, (row_idx, col_idx)), shape=(len(rows), n_cols))
    # canonical form (sorted, deduplicated indices) so the solver input —
    # and therefore the solution — is bitwise independent of assembly order
    matrix.sum_duplicates()
    matrix.sort_indices()
    return matrix, rhs
