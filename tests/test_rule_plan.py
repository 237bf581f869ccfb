"""Rule extraction through the per-structure rule plan equals the dict walk.

``OptimizationResult.rules`` once grouped the flows into rules with a
python dict walk; it now runs one vectorised pass through the structure's
:class:`~repro.core.optimizer.tables.RulePlan`. The walk is frozen below as
the reference, and every epoch of a solver driven through demand moves,
class dropouts, replica toggles and a tied optimum must produce its rules
float for float and in its order — including rules split across
destinations and rules whose total sits at ``FLOW_EPSILON``.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.optimizer.result import FLOW_EPSILON
from repro.core.optimizer.warm import EpochSolver
from repro.core.rules import RoutingRule, RuleSet
from repro.experiments.scenarios import synthetic_te_problem

from .test_optimizer import chain_problem


def walk_rules(result) -> RuleSet:
    """``OptimizationResult.rules`` as the dict walk it was before the
    rule plan — frozen here as the reference."""
    grouped: dict[tuple[str, str, str], dict[str, float]] = {}
    edge_service = result._structure.edge_service
    for (cls, edge_index, src, dst), rate in result.flows.items():
        key = (edge_service[(cls, edge_index)], cls, src)
        weights = grouped.get(key)
        if weights is None:
            grouped[key] = {dst: rate}
        else:
            weights[dst] = weights.get(dst, 0.0) + rate
    rules = []
    for (service, cls, src), weights in sorted(grouped.items()):
        if sum(weights.values()) <= FLOW_EPSILON:
            continue
        rules.append(RoutingRule.make(service, cls, src, weights))
    return RuleSet(rules)


def exact(rules: RuleSet) -> list[tuple]:
    """Rules with every weight as its hex form: equal means bit-equal."""
    return [(rule.service, rule.traffic_class, rule.src_cluster,
             tuple((cluster, weight.hex()) for cluster, weight in rule.weights))
            for rule in rules]


PROBLEMS = {
    # tight capacity: pools spill, so rules split across destinations
    "synthetic": lambda formulation: synthetic_te_problem(
        5, 3, 4, seed=3, headroom=1.6, replication=0.6,
        ingresses_per_class=2 if formulation == "path" else None),
    # every split of the demand costs the same: a tied optimum
    "tied": lambda formulation: chain_problem(61.0, 9.7, latency_ms=0.25),
}

#: flows injected into a result: at, just above and fractions of the
#: epsilon, and an ordinary rate (a new destination for a carried rule)
TINY = (FLOW_EPSILON, FLOW_EPSILON / 2, math.nextafter(FLOW_EPSILON, 1.0),
        0.6 * FLOW_EPSILON, 1.0)

move = st.one_of(
    st.tuples(st.just("scale"), st.integers(0, 99),
              st.sampled_from((0.5, 0.9, 1.0, 1.3))),
    st.tuples(st.just("dropout"), st.integers(0, 99), st.just(0.0)),
    st.tuples(st.just("replica"), st.integers(0, 99), st.just(0.0)))
#: (rule, destination, rate) picks for flows added to a solved result
injection = st.lists(st.tuples(st.integers(0, 10**4), st.integers(0, 10**4),
                               st.sampled_from(TINY)), max_size=4)


class Driver:
    """One problem, moved epoch by epoch: each class's demand is its base
    demand times a factor, or zero while the class is dropped out."""

    def __init__(self, problem) -> None:
        self.problem = problem
        self.classes = sorted(problem.workloads)
        self.demand = {name: dict(problem.workloads[name].demand)
                       for name in self.classes}
        self.factor = dict.fromkeys(self.classes, 1.0)
        self.dropped: set[str] = set()
        self.pools = sorted(pool for pool, count in problem.replicas.items()
                            if count > 0)
        self.base = dict(problem.replicas)

    def apply(self, kind: str, pick: int, factor: float) -> None:
        problem = self.problem
        if kind == "replica":
            pool = self.pools[pick % len(self.pools)]
            problem.replicas[pool] = (
                self.base[pool] + 1
                if problem.replicas[pool] == self.base[pool]
                else self.base[pool])
            return
        name = self.classes[pick % len(self.classes)]
        if kind == "scale":
            self.factor[name] = factor
        elif name in self.dropped:
            self.dropped.discard(name)
        elif len(self.dropped) + 1 < len(self.classes):
            self.dropped.add(name)
        scale = 0.0 if name in self.dropped else self.factor[name]
        for cluster, rps in self.demand[name].items():
            problem.workloads[name].demand[cluster] = rps * scale


def inject(result, picks) -> None:
    """Add ``picks`` flows on keys of the result's structure."""
    plan = result._structure.rule_plan()
    by_rule: dict[int, list] = {}
    for key, code in sorted(plan.code_of.items()):
        by_rule.setdefault(code // plan.n_dst, []).append(key)
    rules = sorted(by_rule)
    for rule_pick, key_pick, rate in picks:
        keys = by_rule[rules[rule_pick % len(rules)]]
        key = keys[key_pick % len(keys)]
        result.flows[key] = result.flows.get(key, 0.0) + rate


@pytest.mark.parametrize("problem_kind", sorted(PROBLEMS))
@pytest.mark.parametrize("formulation", ["arc", "path"])
@settings(max_examples=60, deadline=None)
@given(epochs=st.lists(st.tuples(move, injection), min_size=1, max_size=6))
def test_rule_plan_equals_the_walk(formulation, problem_kind, epochs):
    driver = Driver(PROBLEMS[problem_kind](formulation))
    solver = EpochSolver(formulation=formulation, path_k=4)
    for (kind, pick, factor), picks in [(("scale", 0, 1.0), [])] + epochs:
        driver.apply(kind, pick, factor)
        result = solver.solve(driver.problem)
        assert exact(result.rules()) == exact(walk_rules(result))
        if picks and result.flows:
            inject(result, picks)
            assert exact(result.rules()) == exact(walk_rules(result))


@pytest.mark.parametrize("formulation", ["arc", "path"])
def test_the_cases_reach_split_rules_and_the_epsilon_edge(formulation):
    """The property's inputs reach what makes the plan non-trivial: rules
    the solver splits across destinations, and rules whose total is at,
    or just above, ``FLOW_EPSILON`` — as one destination or as two."""
    driver = Driver(PROBLEMS["synthetic"](formulation))
    result = EpochSolver(formulation=formulation, path_k=4).solve(
        driver.problem)
    solved = result.rules()
    assert any(len(rule.weights) > 1 for rule in solved)
    assert exact(solved) == exact(walk_rules(result))

    # four solved rules with two destinations or more, their flows
    # replaced by ones at or just above the epsilon
    plan = result._structure.rule_plan()
    by_rule: dict[int, dict[str, tuple]] = {}
    for key, code in sorted(plan.code_of.items()):
        by_rule.setdefault(code // plan.n_dst, {}).setdefault(key[3], key)
    emitted_before = {(rule.service, rule.traffic_class, rule.src_cluster)
                      for rule in solved}
    picked = [index for index, keys in sorted(by_rule.items())
              if len(keys) > 1 and plan.rule_keys[index] in emitted_before]
    assert len(picked) >= 4
    for key in list(result.flows):
        if plan.code_of[key] // plan.n_dst in picked[:4]:
            del result.flows[key]
    pairs = [list(by_rule[index].values())[:2] for index in picked[:4]]
    half, above = FLOW_EPSILON / 2, math.nextafter(FLOW_EPSILON / 2, 1.0)
    cases = [  # (flows of one rule, is the rule emitted)
        ({pairs[0][0]: half, pairs[0][1]: half}, False),
        ({pairs[1][0]: above, pairs[1][1]: above}, True),
        ({pairs[2][0]: FLOW_EPSILON}, False),
        ({pairs[3][0]: math.nextafter(FLOW_EPSILON, 1.0)}, True),
    ]
    for flows, _ in cases:
        result.flows.update(flows)
    rules = result.rules()
    assert exact(rules) == exact(walk_rules(result))
    assert len(rules) == len(solved) - 2
    emitted = {(rule.service, rule.traffic_class, rule.src_cluster)
               for rule in rules}
    for flows, kept in cases:
        code = plan.code_of[next(iter(flows))]
        assert (plan.rule_keys[code // plan.n_dst] in emitted) == kept
