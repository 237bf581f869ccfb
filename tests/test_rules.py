"""Tests for routing rules and rule sets."""

import pytest

from repro.core.rules import RoutingRule, RuleSet
from repro.mesh.routing_table import RouteKey, RoutingTable


def test_make_normalises():
    rule = RoutingRule.make("S", "c", "west", {"west": 3.0, "east": 1.0})
    assert rule.weight_map() == pytest.approx({"west": 0.75, "east": 0.25})


def test_make_drops_zero_weights():
    rule = RoutingRule.make("S", "c", "west", {"west": 1.0, "east": 0.0})
    assert rule.weight_map() == {"west": 1.0}


def test_make_rejects_bad_weights():
    with pytest.raises(ValueError):
        RoutingRule.make("S", "c", "west", {})
    with pytest.raises(ValueError):
        RoutingRule.make("S", "c", "west", {"west": -1.0, "east": 2.0})


def test_local_fraction():
    rule = RoutingRule.make("S", "c", "west", {"west": 0.6, "east": 0.4})
    assert rule.local_fraction() == pytest.approx(0.6)
    remote = RoutingRule.make("S", "c", "west", {"east": 1.0})
    assert remote.local_fraction() == 0.0


def test_key():
    rule = RoutingRule.make("S", "c", "west", {"west": 1.0})
    assert rule.key == RouteKey("S", "c", "west")


def test_rule_set_duplicate_rejected():
    rules = RuleSet()
    rules.add(RoutingRule.make("S", "c", "west", {"west": 1.0}))
    rules.add(RoutingRule.make("S", "c", "west", {"east": 1.0}))
    with pytest.raises(ValueError, match="duplicate"):
        rules.by_key()


def test_apply_replaces_table():
    table = RoutingTable()
    table.set_weights(RouteKey("OLD", "c", "west"), {"west": 1.0})
    rules = RuleSet([RoutingRule.make("S", "c", "west", {"east": 1.0})])
    rules.apply(table)
    assert table.weights_for("OLD", "c", "west") is None
    assert table.weights_for("S", "c", "west") == {"east": 1.0}


def test_rule_for_lookup():
    rules = RuleSet([RoutingRule.make("S", "c", "west", {"west": 1.0})])
    assert rules.rule_for("S", "c", "west") is not None
    assert rules.rule_for("S", "c", "east") is None
