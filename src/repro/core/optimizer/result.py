"""Optimizer solution: flows, predicted system state, and routing rules."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from ..rules import RoutingRule, RuleSet
from .model import LinearModel
from .problem import INGRESS_EDGE
from .tables import ModelTables, StructureTables

__all__ = ["Certificate", "OptimizationResult", "extract_result",
           "finalize_result", "run_starts"]

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
    #: model dimensions, for solver-scaling observability; diagnostic only
    n_variables: int = field(default=0, compare=False)
    n_constraints: int = field(default=0, compare=False)
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
    #: HiGHS's readings on the solve (None on a result built without one)
    certificate: Certificate | None = field(default=None, compare=False)

    @property
    def ok(self) -> bool:
        return self.status == "optimal"

    @property
    def solver_path(self) -> str:
        """Which rung of the reuse ladder produced this result.

        ``"warm"`` (hot start from the previous epoch's basis) or
        ``"cold"`` (solve of a freshly loaded model).
        """
        if self.warm_start:
            return "warm"
        return "cold"

    # ---------------------------------------------------------------- rules

    def rules(self) -> RuleSet:
        """Convert flows into per-(service, class, source) routing rules,
        in rule-key order, skipping rules that carry at most
        ``FLOW_EPSILON``.

        One vectorised pass through the structure's
        :class:`~repro.core.optimizer.tables.RulePlan`: one stable sort of
        the flows' (rule, destination) codes finds the pairs, and
        ``np.bincount`` sums each pair's flows in flow order — for a
        one-destination rule that is its weight, float for float. A
        one-destination rule is the plan's shared rule
        (:meth:`RulePlan.singles`); a rule with several, or with a
        non-finite total, is normalised by :func:`_split_rules`.

        The returned set also carries its push index: per source cluster,
        the rules that depart from local-first (see
        :meth:`RuleSet.for_source`), told apart by the plan's own-source
        codes rather than by a walk over every rule.
        """
        flows = self.flows
        if not flows:
            return RuleSet([])
        plan = self._structure.rule_plan()
        n = len(flows)
        codes = self._flow_codes(plan)
        rates = np.fromiter(flows.values(), dtype=float, count=n)
        # the (rule, destination) pairs in code order, each with the
        # index of its first flow and its flows summed in flow order
        order = np.argsort(codes, kind="stable")
        opens = run_starts(codes[order])
        pairs, first = codes[order][opens], order[opens]
        inverse = np.empty(n, dtype=np.intp)
        inverse[order] = np.cumsum(opens) - 1
        sums = np.bincount(inverse, weights=rates)
        pair_rule = pairs // plan.n_dst
        rule_opens = run_starts(pair_rule)
        single = (rule_opens & np.append(rule_opens[1:], True)
                  & np.isfinite(sums))
        kept = single & (sums > FLOW_EPSILON)
        index, kept_codes = pair_rule[kept], pairs[kept]
        rules = plan.singles(index, kept_codes)
        departs = (kept_codes != plan.own_code[index]).tolist()
        departures = list(zip(itertools.compress(index.tolist(), departs),
                              itertools.compress(rules, departs)))
        split = [] if single.all() else _split_rules(
            plan, pairs[~single], first[~single], sums[~single])
        if split:
            departures += [(i, rule) for i, rule in split if rule.departs]
            at = np.argsort(np.concatenate(
                (index, np.array([i for i, _ in split], dtype=np.intp))))
            rules += [rule for _, rule in split]
            rules = list(map(rules.__getitem__, at.tolist()))
        pushed: dict[str, list[RoutingRule]] = {}
        for _, rule in sorted(departures, key=itemgetter(0)):
            pushed.setdefault(rule.src_cluster, []).append(rule)
        return RuleSet(rules, _pushed=(len(rules), pushed))

    def _flow_codes(self, plan) -> np.ndarray:
        """The rule code of each flow, in flow order: gathered from the
        class split's per-key codes while the flows still hold exactly
        the keys it extracted, else looked up key by key."""
        keys = list(self.flows)
        if self._flow_keys is not None:
            split, order = self._flow_keys
            # the split's own key objects: compared by identity
            if keys == list(map(split.keys.__getitem__, order.tolist())):
                return split.key_codes()[order]
        return np.fromiter(map(plan.code_of.__getitem__, keys),
                           dtype=np.intp, count=len(keys))

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
    #: (split plan, index of each flow key among its keys) when the flows
    #: are a class split's: their rule codes without hashing every key
    _flow_keys: tuple | None = field(default=None, compare=False,
                                     repr=False)


def run_starts(values: np.ndarray) -> np.ndarray:
    """Where each run of equal neighbours in ``values`` starts."""
    opens = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=opens[1:])
    return opens


def _split_rules(plan, pairs: np.ndarray, first: np.ndarray,
                 sums: np.ndarray) -> list[tuple[int, RoutingRule]]:
    """(rule index, rule) of the rules whose (rule, destination) ``pairs``
    these are — in code order, with each pair's ``first`` flow and its
    flows' ``sums`` — for those that carry more than ``FLOW_EPSILON``, in
    index order, normalised as :meth:`RoutingRule.make` would, float for
    float.

    A rule's total adds its pair sums in order of each destination's first
    appearance among the flows, the order ``make`` totals the weight dict
    a walk over the flows builds. Dividing by the total, keeping the
    positive shares and ordering them by destination name (the plan's
    destination order) is ``make``'s normalisation.
    """
    pair_rule = pairs // plan.n_dst
    opens = run_starts(pair_rule)
    starts = np.flatnonzero(opens)
    run_of = np.cumsum(opens) - 1
    order = np.lexsort((first, run_of))
    total = np.bincount(run_of[order], weights=sums[order])
    # make() rejects a non-finite or negative weight, and a NaN total is
    # not skipped
    valid = np.isfinite(total) & np.logical_and.reduceat(
        np.isfinite(sums) & (sums >= 0), starts)
    shares = (sums / total[run_of]).tolist()
    names = [plan.dst_names[dst] for dst in (pairs % plan.n_dst).tolist()]
    bounds = [*starts.tolist(), len(pairs)]
    rules = []
    for run in np.flatnonzero(~(total <= FLOW_EPSILON)).tolist():
        lo, hi = bounds[run], bounds[run + 1]
        index = int(pair_rule[lo])
        if valid[run]:
            rule = plan.split(index, tuple(
                (names[i], shares[i]) for i in range(lo, hi)
                if shares[i] > 0))
        else:
            rule = RoutingRule.make(*plan.rule_keys[index], {
                names[i]: float(sums[i])
                for i in sorted(range(lo, hi), key=first.__getitem__)})
        rules.append((index, rule))
    return rules


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
        result.flows, order = split.flows(x)
        result._flow_keys = (split.plan, order)
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
