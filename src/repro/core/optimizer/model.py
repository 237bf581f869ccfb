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

__all__ = ["EdgeRef", "RouteVar", "LinearModel", "CountSlots",
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
        return ((self.route_vars[index].flow_key, 1.0),)


@dataclass(frozen=True)
class CountSlots:
    """Where one pool's replica count lands in a cold-built model.

    The count sets the pool's load cap ``a_max = rho_max · replicas`` and
    its delay chords ``slope · work − t ≤ −intercept``; these are the
    entries :meth:`ModelStructure.instantiate` rewrites when it moves.
    """

    #: where ``a_max`` goes: ``("b_ub", capacity row)`` (arc) or
    #: ``("upper_bounds", load column L)`` (path)
    capacity: tuple[str, int]
    #: the chord rows in segment order; each one's rhs is −intercept
    rows: np.ndarray
    #: per chord row, the positions in ``a_ub.data`` its slope multiplies
    positions: np.ndarray
    #: what the slope multiplies at each position: the offered work of one
    #: unit of each flow column (arc), or 1 for the load column (path)
    work: np.ndarray

    @classmethod
    def locate(cls, a_ub: sparse.csr_matrix, capacity: tuple[str, int],
               rows: np.ndarray, columns: np.ndarray,
               work: np.ndarray) -> CountSlots:
        """The slots of a pool whose chord ``rows`` (one sparsity pattern)
        hold ``slope · work`` in ``columns``."""
        first = a_ub.indptr[rows[0]]
        offsets = np.searchsorted(
            a_ub.indices[first:a_ub.indptr[rows[0] + 1]], columns)
        return cls(capacity, rows, a_ub.indptr[rows][:, None] + offsets,
                   work)


@dataclass
class ModelStructure:
    """Demand- and count-independent snapshot of an assembled LP: the
    cold-built model itself plus where demand and replica counts land in it.

    Across adaptive epochs demand *values* and replica *counts* move; the
    constraint matrices' sparsity, the objective and the column layout
    depend on them only through which clusters see demand and which pools
    are deployed (both part of the cache key). A warm rebuild
    (:meth:`instantiate`) is therefore the cold model with a fresh copy of
    ``b_eq``, which carries demand — and, for the arc formulation, of the
    flow bounds that scale with it — plus, for the pools whose count moved,
    fresh copies of the arrays their :class:`CountSlots` point into. A
    count change is warm; a deployment change is a miss. Everything else
    is *shared* between the snapshot and every model instantiated from it,
    which is what lets the warm-start solver recognise "same structure" by
    the identity of ``tables.structure``.
    """

    model: LinearModel
    #: positions of the demand rows in ``b_eq``
    demand_rows: np.ndarray
    #: demand fill order: (class, cluster) per demand row
    demand_slots: list[tuple[str, str]]
    #: pool → where its replica count lands (a pool whose count touches
    #: no coefficient — an arc pool without a work expression — has none)
    counts: dict[tuple[str, str], CountSlots]
    #: the chord knots the cold build linearised with
    knot_fractions: tuple[float, ...]
    #: arc only: the (class, edge) column blocks, whose flow upper bounds
    #: are a multiple of the class's total demand (``start``, ``stop``,
    #: ``traffic_class``, ``flow_bound(total_demand)``)
    blocks: Sequence = ()

    def instantiate(self, problem: TEProblem) -> LinearModel:
        """Warm rebuild: scatter the new demand, and rewrite the pools
        whose replica count moved, into the cached model."""
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
        return replace(model, problem=problem, **moved)

    def _recount(self, problem: TEProblem, pools: list[tuple[str, str]],
                 moved: dict) -> None:
        """Write ``pools``' new counts into fresh ``a_ub.data``, ``b_ub``
        and bounds (``a_ub`` shares the snapshot's ``indices`` and
        ``indptr``), with the same expressions the cold build evaluates."""
        model = self.model
        data = model.a_ub.data.copy()
        upper = moved.get("upper_bounds")
        arrays = {"b_ub": model.b_ub.copy(),
                  "upper_bounds": (model.upper_bounds.copy() if upper is None
                                   else upper)}
        pool_segments = dict(model.pool_segments)
        for pool in pools:
            replicas = problem.replica_count(*pool)
            a_max = problem.rho_max * replicas
            segments = pool_segments_for(replicas, problem.delay_model,
                                         a_max, self.knot_fractions)
            pool_segments[pool] = segments
            slots = self.counts.get(pool)
            if slots is None:
                continue
            target, index = slots.capacity
            arrays[target][index] = a_max
            slopes = np.array([segment.slope for segment in segments])
            data[slots.positions] = slopes[:, None] * slots.work[None, :]
            arrays["b_ub"][slots.rows] = [-segment.intercept
                                          for segment in segments]
        a_ub = sparse.csr_matrix((data, model.a_ub.indices,
                                  model.a_ub.indptr), shape=model.a_ub.shape)
        moved.update(arrays, a_ub=a_ub, pool_segments=pool_segments,
                     tables=model.tables.recount(problem, a_ub))


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


def build_model(problem: TEProblem, knot_fractions=DEFAULT_KNOT_FRACTIONS,
                structure_cache=None) -> LinearModel:
    """Assemble the LP for ``problem`` (numpy block construction).

    ``structure_cache`` (a :class:`~repro.core.optimizer.vectorized
    .StructureCache`) lets repeated LP builds that differ only in demand
    values reuse the assembled matrices. ``tests/golden/arc_models.json``
    holds the models it must emit, byte for byte.
    """
    from .vectorized import build_model_vectorized
    return build_model_vectorized(problem, knot_fractions=knot_fractions,
                                  structure_cache=structure_cache)
