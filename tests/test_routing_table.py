"""Tests for routing tables and rule normalisation."""

import pytest

from repro.core.controller.cluster_controller import ClusterController
from repro.core.rules import RoutingRule, RuleSet
from repro.mesh.routing_table import WILDCARD_CLASS, RouteKey, RoutingTable


def key(service="S1", cls="default", src="west"):
    return RouteKey(service, cls, src)


def test_weights_normalised_on_insert():
    table = RoutingTable()
    table.set_weights(key(), {"west": 6, "east": 3, "north": 1})
    weights = table.weights_for("S1", "default", "west")
    assert weights == pytest.approx({"west": 0.6, "east": 0.3, "north": 0.1})


def test_zero_weight_destinations_dropped():
    table = RoutingTable()
    table.set_weights(key(), {"west": 1.0, "east": 0.0})
    assert table.weights_for("S1", "default", "west") == {"west": 1.0}


def test_missing_rule_returns_none():
    table = RoutingTable()
    assert table.weights_for("S1", "default", "west") is None


def test_wildcard_fallback():
    table = RoutingTable()
    table.set_weights(key(cls=WILDCARD_CLASS), {"east": 1.0})
    assert table.weights_for("S1", "anything", "west") == {"east": 1.0}


def test_exact_class_takes_precedence_over_wildcard():
    table = RoutingTable()
    table.set_weights(key(cls=WILDCARD_CLASS), {"east": 1.0})
    table.set_weights(key(cls="H"), {"west": 1.0})
    assert table.weights_for("S1", "H", "west") == {"west": 1.0}
    assert table.weights_for("S1", "L", "west") == {"east": 1.0}


def test_empty_weights_rejected():
    table = RoutingTable()
    with pytest.raises(ValueError):
        table.set_weights(key(), {})


def test_negative_weight_rejected():
    table = RoutingTable()
    with pytest.raises(ValueError):
        table.set_weights(key(), {"west": -0.5, "east": 1.5})


def test_all_zero_weights_rejected():
    table = RoutingTable()
    with pytest.raises(ValueError):
        table.set_weights(key(), {"west": 0.0})


def test_nan_weight_rejected():
    table = RoutingTable()
    with pytest.raises(ValueError):
        table.set_weights(key(), {"west": float("nan")})


def test_replace_all_swaps_atomically():
    table = RoutingTable()
    table.set_weights(key(service="OLD"), {"west": 1.0})
    table.replace_all({key(service="NEW"): {"east": 1.0}})
    assert table.weights_for("OLD", "default", "west") is None
    assert table.weights_for("NEW", "default", "west") == {"east": 1.0}
    assert len(table) == 1


def test_replace_all_validates_before_swapping():
    table = RoutingTable()
    table.set_weights(key(), {"west": 1.0})
    with pytest.raises(ValueError):
        table.replace_all({key(service="BAD"): {}})
    # old rules intact after failed push
    assert table.weights_for("S1", "default", "west") == {"west": 1.0}


def test_version_bumps_on_changes():
    table = RoutingTable()
    v0 = table.version
    table.set_weights(key(), {"west": 1.0})
    table.replace_all({})
    table.clear()
    assert table.version == v0 + 3


def test_rules_returns_copies():
    table = RoutingTable()
    table.set_weights(key(), {"west": 1.0})
    snapshot = table.rules()
    snapshot[key()]["west"] = 99.0
    assert table.weights_for("S1", "default", "west") == {"west": 1.0}


# ------------------------------------------------- a push is a diff


def test_installing_the_installed_weights_changes_nothing():
    table = RoutingTable()
    table.set_weights(key(), {"west": 3, "east": 1})
    version, installed = table.version, table.rules()
    table.set_weights(key(), {"west": 3, "east": 1})
    assert table.upsert([(key(), (("west", 3), ("east", 1)))]) == 0
    assert table.version == version
    assert table.rules() == installed


def test_one_push_bumps_the_version_once():
    table = RoutingTable()
    entries = [(key(service=f"S{i}"), (("west", 1.0),)) for i in range(4)]
    assert table.upsert(entries) == 4
    assert table.version == 1
    moved = entries[:2] + [(key(service="S2"), (("east", 1.0),)),
                           (key(service="S3"), (("east", 2.0), ("west", 1.0)))]
    assert table.upsert(moved) == 2
    assert table.version == 2
    assert table.weights_for("S3", "default", "west") == pytest.approx(
        {"east": 2 / 3, "west": 1 / 3})
    assert table.upsert(moved) == 0
    assert table.upsert([]) == 0
    assert table.version == 2


def test_a_failed_push_still_bumps_for_what_it_installed():
    table = RoutingTable()
    with pytest.raises(ValueError):
        table.upsert([(key(), (("west", 1.0),)), (key(service="BAD"), ())])
    assert table.weights_for("S1", "default", "west") == {"west": 1.0}
    assert table.version == 1


@pytest.mark.parametrize("drop", [
    lambda table: table.remove(key()),
    RoutingTable.clear,
    lambda table: table.replace_all({}),
    lambda table: table.replace_all({key(): {"west": 1.0}}),
], ids=["remove", "clear", "replace_all-empty", "replace_all-same"])
def test_a_dropped_rule_installs_again(drop):
    table = RoutingTable()
    table.set_weights(key(), {"west": 1.0})
    drop(table)
    version = table.version
    table.set_weights(key(), {"west": 1.0})
    assert table.version == version + 1
    assert table.weights_for("S1", "default", "west") == {"west": 1.0}


class LocalFirst:
    """A fallback policy: every service local-first, as wildcard rules."""

    def compute_rules(self, ctx) -> RuleSet:
        return RuleSet([RoutingRule(service, WILDCARD_CLASS, "west",
                                    (("west", 1.0),))
                        for service in ("S1", "S2")])


def optimized_rules() -> RuleSet:
    return RuleSet([
        RoutingRule("S1", "default", "west", (("east", 1.0),)),
        RoutingRule("S2", "default", "west", (("east", 0.5), ("west", 0.5))),
        RoutingRule("S1", "default", "east", (("east", 1.0),))])


def test_a_returning_controller_reinstalls_every_purged_rule():
    """The stale-rule guard purges west's rules; a Global Controller that
    comes back with exactly its pre-outage rules installs them all again
    (nothing is skipped as already installed) and the fallback clears."""
    table = RoutingTable()
    controller = ClusterController("west", max_rule_age=5.0,
                                   fallback=LocalFirst())
    rules = optimized_rules()
    before = table.version
    assert controller.distribute(rules, table, now=0.0) == 2
    assert table.version == before + 1
    installed = table.rules()
    assert controller.check_staleness(10.0, table, ctx=None)
    assert table.weights_for("S1", "default", "west") == {"west": 1.0}
    version = table.version
    assert controller.distribute(rules, table, now=11.0) == 2
    assert table.version == version + 1
    assert not controller.fallback_active
    assert controller.reconciliations == 1
    for route, weights in installed.items():
        assert table.rules()[route] == weights
    # the same push again changes nothing
    assert controller.distribute(rules, table, now=12.0) == 2
    assert table.version == version + 1


def test_distribute_upserts_and_never_retires_a_rule():
    """A rule the new plan no longer emits stays installed with its old
    split, so a call that reaches it follows that split rather than the
    local-first default. Retiring it would change routing: these are the
    semantics a push keeps."""
    table = RoutingTable()
    controller = ClusterController("west")
    controller.distribute(optimized_rules(), table)
    later = RuleSet([RoutingRule("S1", "default", "west", (("west", 1.0),))])
    assert controller.distribute(later, table) == 1
    assert table.weights_for("S1", "default", "west") == {"west": 1.0}
    assert table.weights_for("S2", "default", "west") == {"east": 0.5,
                                                          "west": 0.5}
    assert len(table) == 2
