"""Tests for routing tables and rule normalisation."""

import pytest

from repro.core.controller.cluster_controller import ClusterController
from repro.core.controller.global_controller import GlobalController
from repro.core.rules import RoutingRule, RuleSet
from repro.mesh.routing_table import WILDCARD_CLASS, RouteKey, RoutingTable

from .test_control_epoch_mechanism import smoke_mesh
from .test_path_plan_golden import epoch_reports


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
    """A push for every source replaces every rule."""
    table = RoutingTable()
    table.set_weights(key(service="OLD"), {"west": 1.0})
    table.install([(key(service="NEW"), (("east", 1.0),))])
    assert table.weights_for("OLD", "default", "west") is None
    assert table.weights_for("NEW", "default", "west") == {"east": 1.0}
    assert len(table) == 1


def test_replace_all_validates_before_swapping():
    table = RoutingTable()
    table.set_weights(key(), {"west": 1.0})
    with pytest.raises(ValueError):
        table.install([(key(service="BAD"), ())])
    # old rules intact after failed push
    assert table.weights_for("S1", "default", "west") == {"west": 1.0}


def test_version_bumps_on_changes():
    table = RoutingTable()
    v0 = table.version
    table.set_weights(key(), {"west": 1.0})
    table.install([])
    table.install([])
    assert table.version == v0 + 2
    assert len(table) == 0


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
    table.install([(key(), (("west", 3), ("east", 1)))])
    assert table.version == version
    assert table.rules() == installed


def test_one_push_bumps_the_version_once():
    table = RoutingTable()
    entries = [(key(service=f"S{i}"), (("west", 1.0),)) for i in range(4)]
    table.install(entries)
    assert table.version == 1
    moved = entries[:2] + [(key(service="S2"), (("east", 1.0),)),
                           (key(service="S3"), (("east", 2.0), ("west", 1.0)))]
    table.install(moved)
    assert table.version == 2
    assert table.weights_for("S3", "default", "west") == pytest.approx(
        {"east": 2 / 3, "west": 1 / 3})
    table.install(moved)
    table.install([], sources=("east",))
    assert table.version == 2
    assert len(table) == 4


def test_an_empty_push_for_sources_without_rules_changes_nothing():
    """The steady control epoch's common push — no departures for a
    source that holds none — leaves the version, the keys and the hand
    edits as they were; an empty push for a source that holds rules
    still retires them."""
    table = RoutingTable()
    table.install([(key(src="east"), (("west", 1.0),))])
    table.set_weights(key(service="S2", src="east"), {"west": 1.0})
    version, installed = table.version, table.rules()
    edits = table.hand_edits()
    table.install([], sources=("west",))
    table.install([], sources=("west", "north"))
    table.install(iter(()), sources=())
    assert table.version == version
    assert table.rules() == installed
    assert table.hand_edits() == edits
    table.install([], sources=("east",))
    assert table.version == version + 1 and len(table) == 0
    empty = RoutingTable()
    empty.install([])
    assert empty.version == 0 and empty.rules() == {}


def test_a_push_retires_only_its_sources_rules():
    table = RoutingTable()
    table.install([(key(service="S1"), (("west", 1.0),)),
                   (key(service="S2"), (("west", 1.0),)),
                   (key(src="east"), (("east", 1.0),))])
    table.install([(key(service="S2"), (("east", 1.0),))],
                  sources=("west",))
    assert table.version == 2
    assert set(table.rules()) == {key(service="S2"), key(src="east")}
    assert table.weights_for("S2", "default", "west") == {"east": 1.0}
    # a retired rule installs again, normalised from scratch
    table.install([(key(service="S1"), (("west", 1.0),))], sources=("west",))
    assert set(table.rules()) == {key(service="S1"), key(src="east")}
    assert table.version == 3


@pytest.mark.parametrize("push", [
    [(key(), (("west", 1.0),)), (key(service="BAD"), ())],
    [(key(), (("west", 1.0),)), (key(service="S2"), (("west", -1.0),))],
    [(key(), (("east", 1.0),)), (key(), (("west", 1.0),))],
], ids=["empty-weights", "negative-weight", "key-twice"])
def test_a_rejected_push_changes_nothing(push):
    """Validation runs over the whole push before anything is swapped:
    a push with one bad entry leaves every rule, and the version, as
    they were — including the rules it would have retired."""
    table = RoutingTable()
    table.install([(key(service="OLD"), (("east", 1.0),))])
    version, installed = table.version, table.rules()
    with pytest.raises(ValueError):
        table.install(push)
    assert table.version == version
    assert table.rules() == installed


def test_a_push_for_named_sources_rejects_other_sources_rules():
    table = RoutingTable()
    with pytest.raises(ValueError, match="east"):
        table.install([(key(src="east"), (("east", 1.0),))],
                      sources=("west",))
    assert table.version == 0 and len(table) == 0


@pytest.mark.parametrize("drop", [
    lambda table: table.install([(key(service="S2"), (("west", 1.0),))],
                                sources=("west",)),
    lambda table: table.install([], sources=("west",)),
    lambda table: table.install([]),
], ids=["remove", "clear", "replace_all-empty"])
def test_a_dropped_rule_installs_again(drop):
    table = RoutingTable()
    table.set_weights(key(), {"west": 1.0})
    table.set_weights(key(service="S2"), {"west": 1.0})
    drop(table)
    assert key() not in table.rules()
    version = table.version
    table.set_weights(key(), {"west": 1.0})
    assert table.version == version + 1
    assert table.weights_for("S1", "default", "west") == {"west": 1.0}


class FailOver:
    """A fallback policy: every service at west fails over to east, as
    wildcard rules (a local-first fallback would push nothing)."""

    def compute_rules(self, ctx) -> RuleSet:
        return RuleSet([RoutingRule(service, WILDCARD_CLASS, "west",
                                    (("east", 1.0),))
                        for service in ("S1", "S2")])


def optimized_rules() -> RuleSet:
    return RuleSet([
        RoutingRule("S1", "default", "west", (("east", 1.0),)),
        RoutingRule("S2", "default", "west", (("east", 0.5), ("west", 0.5))),
        RoutingRule("S1", "default", "east", (("east", 1.0),)),
        RoutingRule("S2", "default", "east", (("west", 1.0),))])


def test_a_returning_controller_reinstalls_every_purged_rule():
    """The stale-rule guard replaces west's rules with the fallback's; a
    Global Controller that comes back with exactly its pre-outage rules
    installs them all again (nothing is skipped as already installed),
    retires the fallback's and the fallback clears."""
    table = RoutingTable()
    controller = ClusterController("west", max_rule_age=5.0,
                                   fallback=FailOver())
    rules = optimized_rules()
    before = table.version
    assert controller.distribute(rules, table, now=0.0) == 2
    assert table.version == before + 1
    installed = table.rules()
    assert controller.check_staleness(10.0, table, ctx=None)
    assert table.weights_for("S1", "default", "west") == {"east": 1.0}
    version = table.version
    assert controller.distribute(rules, table, now=11.0) == 2
    assert table.version == version + 1
    assert not controller.fallback_active
    assert controller.reconciliations == 1
    # the reconciling push replaces the fallback: no wildcard is left
    assert table.rules() == installed
    assert table.weights_for("S1", "other", "west") is None
    # the same push again changes nothing
    assert controller.distribute(rules, table, now=12.0) == 2
    assert table.version == version + 1


def test_distribute_retires_what_the_push_omits():
    """A push is its cluster's whole set of departures from local-first: a
    rule the new plan no longer emits, or now keeps local, is retired, so
    a call that reaches it takes the proxy default (local-first), as on a
    table that never held it. A local rule is never installed. Other
    clusters' rules stay."""
    table = RoutingTable()
    west, east = ClusterController("west"), ClusterController("east")
    for controller in (west, east):
        controller.distribute(optimized_rules(), table)
    assert len(table) == 3      # S1 at east keeps every call local
    assert table.weights_for("S1", "default", "east") is None
    later = RuleSet([RoutingRule("S1", "default", "west", (("west", 1.0),)),
                     RoutingRule("S2", "default", "west", (("east", 1.0),))])
    version = table.version
    assert west.distribute(later, table) == 1
    assert table.version == version + 1
    assert table.weights_for("S1", "default", "west") is None
    assert table.weights_for("S2", "default", "west") == {"east": 1.0}
    assert table.weights_for("S2", "default", "east") == {"west": 1.0}
    assert len(table) == 2


def test_a_push_without_rules_for_a_tripped_cluster_reconciles_it():
    """The returning controller's push replaces the fallback even when it
    holds no rule for the cluster: the fallback's rules are retired, so
    the flag clears with them."""
    table = RoutingTable()
    controller = ClusterController("west", max_rule_age=5.0,
                                   fallback=FailOver())
    assert controller.check_staleness(10.0, table, ctx=None)
    assert len(table) == 2
    assert controller.distribute(RuleSet(), table, now=11.0) == 0
    assert len(table) == 0
    assert not controller.fallback_active
    assert controller.reconciliations == 1


def test_the_table_holds_exactly_the_last_plans_rules_every_epoch():
    """The ledger's control loop in small: after every epoch's push to
    every cluster, the table's keys are exactly the plan's departures from
    local-first — no rule an earlier plan emitted outlives it, and no
    local rule is installed."""
    app, deployment, base, config = smoke_mesh()
    controller = GlobalController(app, deployment, config)
    table = RoutingTable()
    distributors = [ClusterController(name)
                    for name in deployment.cluster_names]
    retired = 0
    for e, batch in enumerate(epoch_reports(deployment.cluster_names, base)):
        before = set(table.rules())
        controller.observe(batch)
        rules = controller.plan().rules()
        for distributor in distributors:
            distributor.distribute(rules, table, now=10.0 * e)
        planned = {rule.key for rule in rules if rule.departs}
        assert planned and len(planned) < len(rules)
        assert set(table.rules()) == planned
        retired += len(before - planned)
    assert retired, "no epoch dropped a rule: the check proves nothing"
