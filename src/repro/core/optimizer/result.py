"""Optimizer solution: flows, predicted system state, and routing rules."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from ..rules import RoutingRule, RuleSet
from .model import LinearModel
from .problem import INGRESS_EDGE
from .tables import ModelTables, StructureTables

__all__ = ["Certificate", "OptimizationResult", "extract_result",
           "finalize_result"]

#: flows below this rate (requests/second) are treated as numerical zeros
FLOW_EPSILON = 1e-7


@dataclass(frozen=True)
class Certificate:
    """HiGHS's readings on an optimal solve, held to tolerance by
    :func:`~repro.devtools.invariants.check_solver_certificate`."""

    simplex_iteration_count: int
    max_primal_infeasibility: float
    max_dual_infeasibility: float
    primal_dual_objective_error: float


@dataclass
class OptimizationResult:
    """The Global Controller's optimizer output.

    ``flows`` maps (class, edge index, src cluster, dst cluster) → rate;
    edge index ``-1`` is the user→root ingress hop. Predicted metrics are
    evaluated with the *true* (not linearised) delay model, so they are what
    the controller expects the data plane to achieve.
    """

    status: str
    objective: float
    #: wall-clock diagnostic (varies run to run), excluded from equality
    solve_time: float = field(compare=False)
    flows: dict[tuple[str, int, str, str], float] = field(default_factory=dict)
    pool_load: dict[tuple[str, str], float] = field(default_factory=dict)
    pool_utilization: dict[tuple[str, str], float] = field(default_factory=dict)
    predicted_backlog: float = 0.0
    predicted_network_delay_rate: float = 0.0
    predicted_egress_cost_rate: float = 0.0
    predicted_mean_latency: float = 0.0
    total_demand: float = 0.0
    #: served from a SolverCache instead of a fresh HiGHS solve
    cache_hit: bool = field(default=False, compare=False)
    #: model dimensions, for solver-scaling observability; diagnostic only
    n_variables: int = field(default=0, compare=False)
    n_constraints: int = field(default=0, compare=False)
    #: content fingerprint of the solved model (set when a cache keyed it)
    fingerprint: str | None = field(default=None, compare=False)
    #: wall-clock cost of model assembly (0 when the caller did not build)
    build_time: float = field(default=0.0, compare=False)
    #: the model is the previous epoch's structure snapshot with this
    #: epoch's demand and counts rescattered, not a cold build (see
    #: repro.core.optimizer.warm)
    warm_build: bool = field(default=False, compare=False)
    #: solved by a hot start from the previous epoch's basis instead of
    #: a cold solve
    warm_start: bool = field(default=False, compare=False)
    #: how this solve's hot start ended: "optimal", "rejected" (then
    #: solved cold), or None when none was attempted
    hot_start: str | None = field(default=None, compare=False)
    #: HiGHS's readings on the solve (None for a replay)
    certificate: Certificate | None = field(default=None, compare=False)

    @property
    def ok(self) -> bool:
        return self.status == "optimal"

    @property
    def solver_path(self) -> str:
        """Which rung of the reuse ladder produced this result.

        ``"replay"`` (solver-cache hit, no solver run), ``"warm"`` (hot
        start from the previous epoch's basis), or ``"cold"`` (solve of a
        freshly loaded model). The single derivation point for consumers
        that previously re-derived it from the ``cache_hit``/``warm_start``
        boolean pair.
        """
        if self.cache_hit:
            return "replay"
        if self.warm_start:
            return "warm"
        return "cold"

    # ---------------------------------------------------------------- rules

    def rules(self) -> RuleSet:
        """Convert flows into per-(service, class, source) routing rules,
        in rule-key order, skipping rules that carry at most
        ``FLOW_EPSILON``.

        One vectorised pass through the structure's
        :class:`~repro.core.optimizer.tables.RulePlan`: ``np.bincount``
        totals each rule's flows in flow order — for a one-destination rule
        that is its weight, float for float — and ``np.unique`` counts the
        destinations of each. A one-destination rule is the plan's shared
        rule; a rule with several (or a non-finite total) sums its weights
        per destination in flow order and normalises them with
        :meth:`RoutingRule.make` (:meth:`RulePlan.split`).
        """
        flows = self.flows
        if not flows:
            return RuleSet([])
        plan = self._structure.rule_plan()
        n = len(flows)
        codes = np.fromiter(map(plan.code_of.__getitem__, flows),
                            dtype=np.intp, count=n)
        rule_of = codes // plan.n_dst
        totals = np.bincount(rule_of, weights=np.fromiter(
            flows.values(), dtype=float, count=n))
        pairs = np.unique(codes)
        pair_rule = pairs // plan.n_dst
        pair_total = totals[pair_rule]
        single = ((np.bincount(pair_rule)[pair_rule] == 1)
                  & np.isfinite(pair_total))
        kept = single & (pair_total > FLOW_EPSILON)
        rules = [plan.single(code) for code in pairs[kept].tolist()]
        split = np.unique(pair_rule[~single])
        if split.size:
            order = pair_rule[kept]
            for index, rule in reversed(
                    self._split_rules(plan, rule_of, split)):
                rules.insert(int(np.searchsorted(order, index)), rule)
        return RuleSet(rules)

    def _split_rules(self, plan, rule_of: np.ndarray,
                     split: np.ndarray) -> list[tuple[int, RoutingRule]]:
        """(rule index, rule) of the ``split`` rules that carry more than
        ``FLOW_EPSILON``, in index order: weights summed per destination in
        flow order, then normalised by the plan."""
        grouped: dict[int, dict[str, float]] = {}
        walk = np.isin(rule_of, split)
        for ((*_, dst), rate), index in zip(
                itertools.compress(self.flows.items(), walk),
                rule_of[walk].tolist()):
            weights = grouped.setdefault(index, {})
            weights[dst] = weights[dst] + rate if dst in weights else rate
        rules = []
        for index in sorted(grouped):
            # a NaN total is not skipped: make() rejects it
            if sum(grouped[index].values()) <= FLOW_EPSILON:
                continue
            rules.append((index, plan.split(index, grouped[index])))
        return rules

    def ingress_local_fraction(self, traffic_class: str,
                               cluster: str) -> float:
        """Fraction of a class's ingress at ``cluster`` served locally."""
        total = 0.0
        local = 0.0
        for (cls, edge_index, src, dst), rate in self.flows.items():
            if (cls == traffic_class and edge_index == INGRESS_EDGE
                    and src == cluster):
                total += rate
                if dst == cluster:
                    local += rate
        return local / total if total > 0 else 1.0

    def edge_remote_rate(self, traffic_class: str, edge_index: int) -> float:
        """Cross-cluster rate on one class edge, requests/second."""
        return sum(rate for (cls, e, src, dst), rate in self.flows.items()
                   if cls == traffic_class and e == edge_index and src != dst)

    #: the structure the flows were extracted from (its rule plan maps
    #: them to rules); diagnostic plumbing, excluded from equality
    _structure: StructureTables | None = field(
        default=None, compare=False, repr=False)


def extract_result(model: LinearModel, solution, status: str,
                   solve_time: float, split=None) -> OptimizationResult:
    """Build an :class:`OptimizationResult` from a scipy solution vector.

    Every non-zero flow column is expanded onto the (class, edge, src,
    dst) arcs it feeds (:meth:`LinearModel.hops`): an arc column is its own
    single arc, a path column every edge of its embedding times the call
    multiplier. From there routing rules, predicted latency and egress
    cost are formulation-independent.

    With ``split`` (a :class:`~repro.core.optimizer.groups.ClassSplit`),
    ``model`` was built for groups of interchangeable classes. The
    predicted state still comes from the model's own flows — the members'
    flows sum to them — while :attr:`OptimizationResult.flows` and the
    rules are the split's, keyed by member class, and the result totals
    the members' demand.
    """
    result = OptimizationResult(
        status=status,
        objective=float("nan"),
        solve_time=solve_time,
        total_demand=(model.problem if split is None
                      else split.problem).total_demand(),
        n_variables=model.n_variables,
        n_constraints=int(model.a_ub.shape[0] + model.a_eq.shape[0]),
        _structure=(model.tables.structure if split is None
                    else split.structure),
    )
    if solution is None:
        return result

    x = np.asarray(solution)
    result.objective = float(model.objective @ x)

    # flows: gather the flow columns once, then touch only the nonzeros
    # (solutions are sparse — most flow variables sit at zero)
    flows = result.flows
    route_x = x[np.asarray(model.route_columns, dtype=np.intp)]
    for i in np.flatnonzero(route_x > FLOW_EPSILON):
        rate = float(route_x[i])
        for key, mult in model.hops(i):
            flows[key] = flows.get(key, 0.0) + rate * mult

    finalize_result(result, model.tables)
    if split is not None:
        result.flows = split.flows(x)
    return result


def finalize_result(result: OptimizationResult,
                    tables: ModelTables) -> OptimizationResult:
    """Fill predicted system state from ``result.flows``.

    Once flows are in the (class, edge, src, dst) → rate shape, predicted
    pool loads, backlog, network delay, and egress cost are
    formulation-independent. Every factor that does not depend on the flow
    *rates* comes from the structure's ``tables``.
    """
    # offered work per pool, network delay and egress cost rates: one pass
    # over the flows, each sum accumulated in flow order
    work: dict[tuple[str, str], float] = {
        entry[0]: 0.0 for entry in tables.pools}
    delay_rate = 0.0
    cost_rate = 0.0
    flow_terms = tables.flow_terms
    for key, rate in result.flows.items():
        pool, exec_time, rtt, unit_cost = flow_terms(key)
        if pool is not None:
            work[pool] += rate * exec_time
        delay_rate += rate * rtt
        cost_rate += rate * unit_cost
    result.predicted_network_delay_rate = delay_rate
    result.predicted_egress_cost_rate = cost_rate

    backlog_total = 0.0
    for pool, replicas, load_cap, delay_model in tables.pools:
        offered = work[pool]
        result.pool_load[pool] = offered
        result.pool_utilization[pool] = (
            offered / replicas if replicas else 0.0)
        # clamp numerically-at-capacity loads just inside the pole
        backlog_total += delay_model.backlog(min(offered, load_cap))
    result.predicted_backlog = backlog_total

    if result.total_demand > 0:
        result.predicted_mean_latency = (
            (backlog_total + delay_rate) / result.total_demand)
    return result
