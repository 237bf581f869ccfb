"""A push carries only the rules that depart from local-first.

A rule sending every call to its own source cluster is omitted from a
push: a proxy without a rule routes there already. The property below
draws rule sets of exact and wildcard rules, local and split, over
sources where the callee is and is not deployed, and checks that every
(service, class, source) routes the same after a full install of every
rule as after the departures-only push — and after a second plan pushed
over each.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.controller.cluster_controller import ClusterController
from repro.core.rules import RoutingRule, RuleSet
from repro.devtools.invariants import check_routing_table
from repro.mesh.routing_table import (WILDCARD_CLASS, RoutingTable,
                                      effective_weights)

SERVICES = ("S1", "S2")
CLASSES = ("c1", "c2")
CLUSTERS = ("a", "b", "c")


class Line:
    """One-way latency along a line: a — b — c."""

    @staticmethod
    def one_way(src: str, dst: str) -> float:
        return abs(CLUSTERS.index(src) - CLUSTERS.index(dst)) * 0.01


weights = st.dictionaries(st.sampled_from(CLUSTERS),
                          st.floats(min_value=0.01, max_value=1.0),
                          min_size=1, max_size=3)


@st.composite
def rule_sets(draw):
    """Rules on a random subset of keys: local-first or drawn weights."""
    rules = []
    for service in SERVICES:
        for cls in CLASSES + (WILDCARD_CLASS,):
            for src in CLUSTERS:
                kind = draw(st.sampled_from(("none", "local", "drawn")))
                if kind == "none":
                    continue
                split = ({src: draw(st.floats(0.1, 5.0))} if kind == "local"
                         else draw(weights))
                rules.append(RoutingRule.make(service, cls, src, split))
    return RuleSet(rules)


deployments = st.fixed_dictionaries({
    service: st.lists(st.sampled_from(CLUSTERS), min_size=1, max_size=3,
                      unique=True).map(sorted)
    for service in SERVICES})


def full_install(rules: RuleSet, table: RoutingTable) -> None:
    """Every rule of the set installed, local-first ones included."""
    table.install((rule.key, rule.weights) for rule in rules)


def routes(table: RoutingTable, deployed: dict) -> dict:
    return {(service, cls, src): effective_weights(
                table.weights_for(service, cls, src), src,
                deployed[service], Line)
            for service in SERVICES for cls in CLASSES for src in CLUSTERS}


@settings(max_examples=300, deadline=None)
@given(rule_sets(), rule_sets(), deployments)
def test_a_departures_push_routes_as_a_full_install(first, second, deployed):
    full, pushed, distributed = RoutingTable(), RoutingTable(), RoutingTable()
    controllers = [ClusterController(name) for name in CLUSTERS]
    for rules in (first, second):
        full_install(rules, full)
        rules.apply(pushed)
        for controller in controllers:
            controller.distribute(rules, distributed)
        assert routes(pushed, deployed) == routes(full, deployed)
        assert pushed.rules() == distributed.rules()
        check_routing_table(pushed)
        assert {rule.key for rule in rules if rule.departs} <= set(
            pushed.rules())


def test_a_local_exact_rule_is_kept_under_a_departing_wildcard():
    rules = RuleSet([
        RoutingRule("S1", WILDCARD_CLASS, "a", (("b", 1.0),)),
        RoutingRule("S1", "c1", "a", (("a", 1.0),)),
        RoutingRule("S1", "c2", "b", (("b", 1.0),)),
    ])
    assert rules.for_source("a") == rules.rules[:2]
    assert rules.for_source("b") == []
    table = RoutingTable()
    rules.apply(table)
    assert table.weights_for("S1", "c1", "a") == {"a": 1.0}
    assert table.weights_for("S1", "c2", "a") == {"b": 1.0}
    assert table.weights_for("S1", "c2", "b") is None
