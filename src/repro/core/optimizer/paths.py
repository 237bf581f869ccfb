"""Path-based k-best formulation: tractability at planet scale (§5).

The arc formulation's variable count is Σ_classes Σ_edges |src|·|dst| —
quadratic in clusters — which is what makes 100 clusters × 1000 classes
(~10⁷ variables) hopeless no matter how fast assembly is. The hypergiant
TE literature's answer is to decide among *candidate paths* instead of
arcs: enumerate the k best end-to-end embeddings of each class's call
tree per ingress, and let the LP split traffic across those candidates
only. Variables collapse to k per (class, ingress) — linear in demand
entries, independent of cluster count.

An **embedding** assigns every service of a class's call tree to one
cluster; its unit latency/egress per ingress request are fixed scalars
(WAN rtt and transfer cost summed over the tree with the call-multiplier
on each edge), so path enumeration is pure geometry and the LP only
balances queueing against those precomputed path costs.

The objective is the arc model's, in path space: minimize backlog
epigraph + Σ y·(rtt + α·egress) (same units, same pools, and the same
pool block: each pool's offered work is one *load column*
``L = Σ work·y`` that the capacity cap bounds and every delay chord
reads, so the LP's non-zeros grow with the paths' hops, not with
hops × chords).

Candidate generation is beam search down the call tree (BFS order, so a
service's caller is always embedded first), with the candidate clusters
per hop optionally pruned to the ``prune_limit`` nearest deployed
clusters (:func:`candidate_clusters`). ``k`` and ``prune_limit`` are the
optimizer's one speed/quality dial: both shrink the LP while every
candidate stays a real embedding on the real topology, so the plan's
latency and egress are exact for the routes it keeps
(docs/formulation.md, "Acceleration: candidate pruning", has the
measured frontier). Everything is deterministic: ties break on the
assignment tuple.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from ...sim.network import LatencyMatrix
from .model import LinearModel, ModelStructure, class_edges
from .piecewise import DEFAULT_KNOT_FRACTIONS
from .problem import INGRESS_EDGE, TEProblem
from .result import extract_result
from .tables import ModelTables
from .vectorized import _Coo, _pool_block

__all__ = ["CandidateEmbedding", "PlanGeometry", "candidate_clusters",
           "candidate_paths", "build_path_model", "extract_path_result"]

#: the one extractor, under the name the e2e tracer patches: a path
#: column's hops are ``LinearModel.route_hops``, nothing else differs
extract_path_result = extract_result


@dataclass(frozen=True)
class CandidateEmbedding:
    """One candidate end-to-end embedding of a class's call tree.

    ``assignment`` maps every service to its serving cluster, in the call
    tree's BFS order. ``unit_latency``/``unit_egress`` are per ingress
    request (call multipliers folded in); ``score`` is the ranking key
    ``unit_latency + cost_weight · unit_egress``.
    """

    traffic_class: str
    ingress: str
    assignment: tuple[tuple[str, str], ...]
    unit_latency: float
    unit_egress: float
    score: float


# --------------------------------------------------------------------------
# candidate enumeration
# --------------------------------------------------------------------------

def candidate_clusters(latency: LatencyMatrix, deployed: list[str],
                       anchor: str, limit: int | None) -> list[str]:
    """The ``limit`` deployed clusters nearest ``anchor``, by one-way delay.

    The pruning primitive behind candidate enumeration: it ranks one
    service's deployment sites around one anchor, so it can run per hop
    of the beam search. Deterministic: ties break on cluster name.
    ``limit=None`` disables pruning.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if limit is None or limit >= len(deployed):
        return list(deployed)
    ranked = sorted(deployed,
                    key=lambda c: (latency.one_way(anchor, c), c))
    return ranked[:limit]


def _stratified_beam(frontier: list, beam: int) -> list:
    """Prune ``frontier`` to ``beam`` entries, round-robin per cluster.

    Plain top-``beam`` truncation collapses the frontier onto the handful
    of clusters nearest the hot ingresses, and at planet scale that makes
    every surviving embedding share the same bottleneck pools (the LP
    goes infeasible even though fleet capacity is ample). Stratifying the
    cut by the current hop's cluster keeps the best partial for *each*
    reachable cluster before admitting anyone's second best.
    """
    if len(frontier) <= beam:
        return frontier
    by_cluster: dict[str, list] = {}
    for entry in frontier:
        by_cluster.setdefault(entry[3][-1][1], []).append(entry)
    groups = sorted(by_cluster.values(), key=lambda g: (g[0][0], g[0][3]))
    kept: list = []
    rank = 0
    while len(kept) < beam:
        admitted = False
        for group in groups:
            if rank < len(group):
                kept.append(group[rank])
                admitted = True
                if len(kept) == beam:
                    break
        if not admitted:
            break
        rank += 1
    kept.sort(key=lambda p: (p[0], p[3]))
    return kept


class PlanGeometry:
    """Per-build memo of the geometry candidate enumeration keeps asking for.

    One cold build enumerates candidates for every (class, ingress) pair,
    and the beam asks the same few questions each time: which clusters
    run a service, which of them are nearest some anchor, what RTT and
    egress price a call to each of those costs, what a class's call tree
    looks like. The answers depend only on the problem, so they are
    computed once per build; every value is the one the unmemoised call
    returns. Valid for one problem at one latency revision, i.e. for the
    build that made it.
    """

    def __init__(self, problem: TEProblem) -> None:
        self.problem = problem
        self._deployed: dict[str, list[str]] = {}
        self._nearest: dict[tuple, list[str]] = {}
        self._hops: dict[tuple, list[tuple[str, float, float]]] = {}
        self._classes: dict[str, tuple] = {}

    def deployed(self, service: str) -> list[str]:
        clusters = self._deployed.get(service)
        if clusters is None:
            clusters = self._deployed[service] = (
                self.problem.deployed_in(service))
        return clusters

    def nearest(self, service: str, anchor: str,
                limit: int | None) -> list[str]:
        """``service``'s deployment sites nearest ``anchor``, pruned."""
        key = (service, anchor, limit)
        ranked = self._nearest.get(key)
        if ranked is None:
            ranked = self._nearest[key] = candidate_clusters(
                self.problem.latency, self.deployed(service), anchor, limit)
        return ranked

    def hops(self, service: str, edge, anchor: str,
             limit: int | None) -> list[tuple[str, float, float]]:
        """``(cluster, rtt, egress $ per call)`` of serving ``edge`` from
        ``anchor`` in each of ``service``'s nearest deployment sites."""
        key = (service, edge.request_bytes, edge.response_bytes, anchor,
               limit)
        hops = self._hops.get(key)
        if hops is None:
            problem = self.problem
            hops = self._hops[key] = [
                (cluster, problem.rtt(anchor, cluster),
                 problem.transfer_cost(anchor, cluster, edge.request_bytes)
                 + problem.transfer_cost(cluster, anchor,
                                         edge.response_bytes))
                for cluster in self.nearest(service, anchor, limit)]
        return hops

    def call_tree(self, name: str) -> tuple:
        """``(executions per request, service → incoming edge, services in
        BFS order)`` of class ``name``."""
        tree = self._classes.get(name)
        if tree is None:
            spec = self.problem.workloads[name].spec
            tree = self._classes[name] = (
                spec.executions_per_request(),
                {edge.callee: edge
                 for edge in class_edges(self.problem, name)},
                spec.services())   # BFS, root first: callers before callees
        return tree


def _penalized_walk(geometry: PlanGeometry, name: str, ingress: str,
                    prune_limit, pool_use) -> tuple:
    """One greedy embedding that avoids already-used pools.

    The service-layer analogue of link-disjoint k-shortest paths: each
    hop picks the deployed cluster minimizing ``(times this pool already
    appears in chosen embeddings, hop score, cluster name)``. Pool reuse
    only steers the *choice*; the returned score/latency/egress are the
    true unpenalized values, so the LP sees honest coefficients.
    """
    execs, incoming, order = geometry.call_tree(name)
    cost_weight = geometry.problem.cost_weight
    score = lat = egress = 0.0
    assign: tuple = ()
    placed: dict[str, str] = {}
    for position, service in enumerate(order):
        edge = incoming[service]
        if not position:
            mult, caller_cluster = 1.0, ingress
        else:
            mult = execs[edge.caller] * edge.calls_per_request
            caller_cluster = placed[edge.caller]
        best = None
        for cluster, rtt, call_egress in geometry.hops(
                service, edge, caller_cluster, prune_limit):
            hop_lat = mult * rtt
            hop_egress = mult * call_egress
            hop_score = hop_lat + cost_weight * hop_egress
            key = (pool_use[(service, cluster)], hop_score, cluster)
            if best is None or key < best[0]:
                best = (key, cluster, hop_lat, hop_egress, hop_score)
        _, cluster, hop_lat, hop_egress, hop_score = best
        assign += ((service, cluster),)
        placed[service] = cluster
        lat += hop_lat
        egress += hop_egress
        score += hop_score
    return (score, lat, egress, assign)


def candidate_paths(problem: TEProblem, name: str, ingress: str,
                    k: int = 4, prune_limit: int | None = None,
                    geometry: PlanGeometry | None = None
                    ) -> list[CandidateEmbedding]:
    """k best embeddings of class ``name``'s call tree from ``ingress``.

    Beam search over services in BFS order; each hop considers the
    caller's deployed clusters, pruned to the ``prune_limit`` nearest the
    caller's assigned cluster. A beam of ``max(4k, 8)`` partials bounds
    the frontier, so the result is the exact k best only when the beam is
    wide enough — the LP is correct for *any* candidate set, the beam only
    trades path quality for enumeration time.

    Slot 1 is the beam's best embedding; the remaining slots alternate
    penalized greedy walks (:func:`_penalized_walk`) with ranked beam
    entries. The walks actively avoid pools the chosen embeddings
    already use, so the candidate set spreads across clusters instead of
    stacking k near-duplicates of the shortest path — which is what
    keeps sparse planet-scale instances feasible at small ``k``.

    ``geometry`` is ``problem``'s :class:`PlanGeometry` when the caller
    enumerates many (class, ingress) pairs of one problem; the candidates
    are the same with or without it.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    beam = max(4 * k, 8)
    if geometry is None:
        geometry = PlanGeometry(problem)
    cost_weight = problem.cost_weight
    execs, incoming, order = geometry.call_tree(name)

    root = order[0]
    root_edge = incoming[root]
    partials: list[tuple[float, float, float, tuple]] = []
    if not geometry.deployed(root):
        raise ValueError(
            f"class {name!r}: service {root!r} deployed nowhere")
    for cluster, lat, egress in geometry.hops(root, root_edge, ingress,
                                              prune_limit):
        score = lat + cost_weight * egress
        partials.append((score, lat, egress, ((root, cluster),)))
    partials.sort(key=lambda p: (p[0], p[3]))
    partials = partials[:beam]

    for service in order[1:]:
        edge = incoming[service]
        mult = execs[edge.caller] * edge.calls_per_request
        if not geometry.deployed(service):
            raise ValueError(
                f"class {name!r}: service {service!r} deployed nowhere")
        # assignments are in BFS order, so the caller sits at a fixed slot
        caller_slot = order.index(edge.caller)
        frontier: list[tuple[float, float, float, tuple]] = []
        for score, lat, egress, assign in partials:
            caller_cluster = assign[caller_slot][1]
            for cluster, rtt, call_egress in geometry.hops(
                    service, edge, caller_cluster, prune_limit):
                hop_lat = mult * rtt
                hop_egress = mult * call_egress
                frontier.append((
                    score + hop_lat + cost_weight * hop_egress,
                    lat + hop_lat, egress + hop_egress,
                    assign + ((service, cluster),)))
        frontier.sort(key=lambda p: (p[0], p[3]))
        partials = _stratified_beam(frontier, beam)

    chosen: list = [partials[0]]
    seen = {partials[0][3]}
    pool_use: Counter = Counter(partials[0][3])
    beam_rest = iter(partials[1:])
    while len(chosen) < k:
        walked = _penalized_walk(geometry, name, ingress, prune_limit,
                                 pool_use)
        if walked[3] not in seen:
            entry = walked
        else:
            # the walk converged onto an embedding we already hold (all
            # diversity this instance offers is exhausted) — fall back to
            # the best-ranked unchosen beam entry
            entry = next((e for e in beam_rest if e[3] not in seen), None)
            if entry is None:
                break
        chosen.append(entry)
        seen.add(entry[3])
        pool_use.update(entry[3])
    chosen.sort(key=lambda p: (p[0], p[3]))

    return [CandidateEmbedding(name, ingress, assign, lat, egress, score)
            for score, lat, egress, assign in chosen]


# --------------------------------------------------------------------------
# model assembly
# --------------------------------------------------------------------------

def build_path_model(problem: TEProblem, k: int = 4,
                     prune_limit: int | None = None,
                     knot_fractions=DEFAULT_KNOT_FRACTIONS) -> LinearModel:
    """Assemble the path-formulation LP for ``problem``, cold.

    The flow columns (``route_vars``) are the candidate embeddings; the
    columns run paths | t | L, with ``pool_columns`` naming each pool's
    epigraph column ``t`` and ``load_columns`` its load column ``L``.

    The model carries its snapshot as ``model.snapshot``: instantiating it
    for a problem that differs only in demand values and replica counts
    skips candidate enumeration and matrix assembly entirely.
    """
    # -------------------------------------------------- candidate paths
    geometry = PlanGeometry(problem)
    path_vars: list[CandidateEmbedding] = []
    groups: list[tuple[str, str, int, int]] = []
    for name in sorted(problem.workloads):
        workload = problem.workloads[name]
        for ingress in sorted(c for c in problem.clusters
                              if workload.demand.get(c, 0) > 0):
            paths = candidate_paths(problem, name, ingress, k=k,
                                    prune_limit=prune_limit,
                                    geometry=geometry)
            if not paths:
                raise ValueError(
                    f"class {name!r}: no candidate paths from {ingress!r}")
            groups.append((name, ingress, len(path_vars), len(paths)))
            path_vars.extend(paths)

    # columns: paths | t (epigraph) per pool | L (load) per pool
    n_paths = len(path_vars)
    pools = list(problem.pools())
    n = n_paths + 2 * len(pools)

    objective = np.zeros(n)
    objective[:n_paths] = [path.score for path in path_vars]
    upper = np.full(n, np.inf)

    # per-pool offered work per unit path flow: execs[s] · st[s]
    pool_index = {pool: i for i, pool in enumerate(pools)}
    work_pools: list[int] = []
    work_cols: list[int] = []
    work_vals: list[float] = []
    for j, path in enumerate(path_vars):
        spec = problem.workloads[path.traffic_class].spec
        execs = geometry.call_tree(path.traffic_class)[0]
        for service, cluster in path.assignment:
            st = spec.exec_time_of(service)
            if st > 0:
                work_pools.append(pool_index[(service, cluster)])
                work_cols.append(j)
                work_vals.append(execs[service] * st)

    eq = _Coo()
    ub = _Coo()

    # ------------------------------------------------ demand satisfaction
    demand_rows: list[int] = []
    demand_slots: list[tuple[str, str]] = []
    for name, ingress, start, count in groups:
        cols = np.arange(start, start + count, dtype=np.intp)
        eq.add_rows(np.zeros(count, dtype=np.intp), cols, np.ones(count))
        demand_rows.append(eq.n_rows)
        demand_slots.append((name, ingress))
        eq.finish_rows([problem.workloads[name].demand[ingress]])

    # ------------------------------------------- per-pool capacity / delay
    pool_block = _pool_block(
        problem, pools, n_paths,
        [(np.array(work_pools, dtype=np.intp),
          np.array(work_cols, dtype=np.intp), np.array(work_vals))],
        knot_fractions, objective, upper, eq, ub)

    # ------------------------------------------------ egress budget ($/s)
    if problem.egress_budget is not None:
        budget_cols = np.array(
            [j for j, path in enumerate(path_vars) if path.unit_egress > 0],
            dtype=np.intp)
        if budget_cols.size:
            ub.add_rows(np.zeros(len(budget_cols), dtype=np.intp),
                        budget_cols,
                        np.array([path_vars[j].unit_egress
                                  for j in budget_cols]))
            ub.finish_rows([problem.egress_budget])

    a_eq, b_eq = eq.matrix(n)
    a_ub, b_ub = ub.matrix(n)
    route_hops = _path_hops(geometry, path_vars)
    model = LinearModel(
        objective=objective,
        a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq,
        upper_bounds=upper,
        route_vars=path_vars,
        route_columns=list(range(n_paths)),
        pool_columns=pool_block.pool_columns,
        pool_segments=pool_block.pool_segments,
        problem=problem,
        tables=ModelTables(problem, pools, path_vars, route_hops),
        load_columns=pool_block.load_columns,
        route_hops=route_hops,
    )
    return replace(model, snapshot=ModelStructure(
        model, np.array(demand_rows, dtype=np.intp), demand_slots,
        pool_block.count_slots(a_ub), tuple(knot_fractions)))


def _path_hops(geometry: PlanGeometry,
               path_vars: list[CandidateEmbedding]) -> list[tuple]:
    """Per path, the (flow key, call multiplier) of every hop: each unit
    of path flow puts the multiplier's worth of flow on the (caller
    cluster → callee cluster) arc of every edge of its embedding."""
    workloads = geometry.problem.workloads
    keys: dict[tuple, tuple] = {}    # equal keys share one tuple
    hops = []
    for path in path_vars:
        name = path.traffic_class
        spec = workloads[name].spec
        execs = geometry.call_tree(name)[0]
        assign = dict(path.assignment)
        key = (name, INGRESS_EDGE, path.ingress, assign[spec.root_service])
        entry = [(keys.setdefault(key, key), 1.0)]
        for index, edge in enumerate(spec.edges):
            key = (name, index, assign[edge.caller], assign[edge.callee])
            entry.append((keys.setdefault(key, key),
                          execs[edge.caller] * edge.calls_per_request))
        hops.append(tuple(entry))
    return hops
