"""LP formulation of the SLATE request-routing problem (§3.3).

Decision variables are per-class, per-call-tree-edge flow rates between
cluster pairs: ``x[k, e, i, j]`` = requests/second of class ``k`` on edge
``e`` issued from cluster ``i`` and served in cluster ``j``. A pseudo-edge
represents ingress (user → root service). Per pool, a load column
``L[s, c]`` carries the offered work in erlangs and an epigraph column
``t[s, c]`` linearises the convex queueing backlog.

Objective (all terms in latency-seconds per second, i.e. mean outstanding
requests — by Little's law, with fixed demand, minimizing it minimizes mean
end-to-end latency):

* ``Σ t[s,c]`` — queueing + service backlog per pool,
* ``Σ x · rtt(i, j)`` — WAN request+response crossings,
* ``α · Σ x · (bytes · price)`` — egress cost, converted by ``cost_weight``.

Constraints: demand satisfaction, per-(class, edge, source) flow
conservation down the call tree, per pool ``Σ work · x − L = 0`` with the
utilization cap as ``L``'s upper bound, and the epigraph family
``slope · L − t ≤ −intercept``. The paper calls its program
mixed-integer; this is its LP, whose fractional splits are exactly what
the data plane executes — a split cap earns nothing on the paper's
instances (docs/formulation.md, "Why the program is an LP").
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from ..latency.mm1 import PoolDelayModel
from .piecewise import DEFAULT_KNOT_FRACTIONS, Segment, linearize_convex
from .problem import INGRESS_EDGE, TEProblem
from .tables import ModelTables

__all__ = ["CsrMatrix", "EdgeRef", "RouteVar", "LinearModel", "CountSlots",
           "ModelStructure", "build_model", "class_edges",
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


@dataclass(frozen=True, eq=False)
class CsrMatrix:
    """A constraint matrix in canonical compressed sparse row form.

    Row ``r``'s entries are ``data[indptr[r]:indptr[r + 1]]`` at columns
    ``indices[...]``, strictly ascending within the row, with no duplicate
    and the index dtype scipy's ``csr_matrix`` would choose — the arrays
    a ``csr_matrix`` holds, and all the library reads of one. The
    builders emit this form directly, so no run imports ``scipy.sparse``
    (about 300 modules) to hold four arrays.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        """Stored entries."""
        return int(self.indptr[-1])


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

    @property
    def flow_key(self) -> tuple[str, int, str, str]:
        """The (class, edge index, src, dst) arc this column is."""
        return (self.edge.traffic_class, self.edge.edge_index, self.src,
                self.dst)


@dataclass
class LinearModel:
    """Assembled LP ready for HiGHS.

    Both formulations emit this one model. They differ in what a flow
    column *is*: a :class:`RouteVar` (one arc of one call-tree edge) or a
    :class:`~repro.core.optimizer.paths.CandidateEmbedding` (one end-to-end
    embedding of a class's call tree, feeding every edge it crosses).
    """

    objective: np.ndarray
    a_ub: CsrMatrix
    b_ub: np.ndarray
    a_eq: CsrMatrix
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
    #: demand-independent lookups, shared with the structure snapshot
    tables: ModelTables
    #: (service, cluster) → load column L, the pool's offered work in
    #: erlangs
    load_columns: dict[tuple[str, str], int]
    #: per path column, the flow keys one unit of it feeds and the call
    #: multiplier of each: the ingress hop (× 1.0) first, then the
    #: call-tree edges. None for the arc model, whose columns are their
    #: own single hop (see :meth:`hops`)
    route_hops: list[tuple] | None = None
    #: the :class:`ModelStructure` of the cold build this model is, or was
    #: instantiated from (its own ``model`` carries none)
    snapshot: ModelStructure | None = None

    @property
    def n_variables(self) -> int:
        return len(self.objective)

    def hops(self, index: int) -> tuple:
        """``(flow key, multiplier)`` of every (class, edge, src, dst) arc
        one unit of flow column ``route_vars[index]`` feeds."""
        if self.route_hops is not None:
            return self.route_hops[index]
        return ((self.route_vars[index].flow_key, 1.0),)


@dataclass(frozen=True)
class CountSlots:
    """Where one pool's replica count lands in a cold-built model.

    The count sets the pool's load cap ``a_max = rho_max · replicas`` (the
    upper bound of its load column ``L``) and its delay chords
    ``slope · L − t ≤ −intercept``; these are the entries
    :meth:`ModelStructure.instantiate` rewrites when it moves.
    """

    #: the pool's load column ``L``, bounded above by ``a_max``
    load_column: int
    #: the chord rows in segment order; each one's rhs is −intercept
    rows: np.ndarray
    #: per chord row, the position in ``a_ub.data`` of its slope on ``L``
    positions: np.ndarray


@dataclass
class ModelStructure:
    """Demand- and count-independent snapshot of an assembled LP: the
    cold-built model itself plus where demand and replica counts land in it.

    Every cold build exposes its snapshot as ``model.snapshot``. Across
    adaptive epochs demand *values* and replica *counts* move; the
    constraint matrices' sparsity, the objective and the column layout
    depend on them only through which clusters see demand and which pools
    are deployed (both part of
    :func:`~repro.core.optimizer.vectorized.structure_key`). A warm rebuild
    (:meth:`instantiate`) is therefore the cold model with a fresh copy of
    ``b_eq``, which carries demand — and, for the arc formulation, of the
    flow bounds that scale with it — plus, for the pools whose count moved,
    fresh copies of the arrays their :class:`CountSlots` point into. A
    count change is warm; a deployment change is a new structure.
    Everything else is *shared* between the snapshot and every model
    instantiated from it, which is what lets the warm-start solver
    recognise "same structure" by the identity of ``tables.structure``.
    """

    model: LinearModel
    #: positions of the demand rows in ``b_eq``
    demand_rows: np.ndarray
    #: demand fill order: (class, cluster) per demand row
    demand_slots: list[tuple[str, str]]
    #: pool → where its replica count lands
    counts: dict[tuple[str, str], CountSlots]
    #: the chord knots the cold build linearised with
    knot_fractions: tuple[float, ...]
    #: arc only: the (class, edge) column blocks, whose flow upper bounds
    #: are a multiple of the class's total demand (``start``, ``stop``,
    #: ``traffic_class``, ``flow_bound(total_demand)``)
    blocks: Sequence = ()

    def instantiate(self, problem: TEProblem) -> LinearModel:
        """Warm rebuild: scatter the new demand, and rewrite the pools
        whose replica count moved, into the snapshot's model."""
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
        recounted = [pool for pool, replicas, *_ in model.tables.pools
                     if problem.replica_count(*pool) != replicas]
        if recounted:
            self._recount(problem, recounted, moved)
        return replace(model, problem=problem, snapshot=self, **moved)

    def _recount(self, problem: TEProblem, pools: list[tuple[str, str]],
                 moved: dict) -> None:
        """Write ``pools``' new counts into fresh ``a_ub.data``, ``b_ub``
        and bounds (``a_ub`` shares the snapshot's ``indices`` and
        ``indptr``), with the same expressions the cold build evaluates."""
        model = self.model
        data = model.a_ub.data.copy()
        b_ub = model.b_ub.copy()
        upper = moved.get("upper_bounds")
        if upper is None:
            upper = model.upper_bounds.copy()
        pool_segments = dict(model.pool_segments)
        for pool in pools:
            replicas = problem.replica_count(*pool)
            a_max = problem.rho_max * replicas
            segments = pool_segments_for(replicas, problem.delay_model,
                                         a_max, self.knot_fractions)
            pool_segments[pool] = segments
            slots = self.counts[pool]
            upper[slots.load_column] = a_max
            data[slots.positions] = [segment.slope for segment in segments]
            b_ub[slots.rows] = [-segment.intercept for segment in segments]
        moved.update(a_ub=replace(model.a_ub, data=data), b_ub=b_ub,
                     upper_bounds=upper, pool_segments=pool_segments,
                     tables=model.tables.recount(problem))


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


def build_model(problem: TEProblem,
                knot_fractions=DEFAULT_KNOT_FRACTIONS) -> LinearModel:
    """Assemble the LP for ``problem`` (numpy block construction), cold.

    The model carries its :class:`ModelStructure` as ``model.snapshot``,
    which later epochs of the same structure instantiate instead of
    building. ``tests/golden/arc_models.json`` holds, byte for byte, the
    models it must emit once each pool's load column is substituted back
    into its rows.
    """
    from .vectorized import build_model_vectorized
    return build_model_vectorized(problem, knot_fractions=knot_fractions)
