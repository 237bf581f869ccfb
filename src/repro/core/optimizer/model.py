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
           "build_model", "class_edges", "pool_segments_for"]

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
