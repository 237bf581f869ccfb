"""Tests for resilient incremental rollout (§5 resilience)."""

import pytest

from repro.core.controller.cluster_controller import ClusterController
from repro.core.controller.rollout import IncrementalRollout, RolloutConfig
from repro.core.rules import RoutingRule, RuleSet
from repro.mesh.routing_table import RoutingTable, effective_weights


def target(weights):
    return RuleSet([RoutingRule.make("S", "c", "west", weights)])


def weights_of(rule_set):
    return rule_set.rule_for("S", "c", "west").weight_map()


def routed(table):
    """Where west's proxy sends a call to S (deployed in west and east)."""
    return effective_weights(table.weights_for("S", "c", "west"), "west",
                             ["west", "east"], latency=None)


def test_first_step_moves_partially_from_local():
    rollout = IncrementalRollout(RolloutConfig(step=0.25))
    applied = rollout.advance(target({"east": 1.0}))
    w = weights_of(applied)
    # started at 100% local; moved 25% of the way to 100% east
    assert w["east"] == pytest.approx(0.25)
    assert w["west"] == pytest.approx(0.75)


def test_converges_to_target():
    rollout = IncrementalRollout(RolloutConfig(step=0.5))
    applied = None
    for _ in range(20):
        applied = rollout.advance(target({"east": 1.0}),
                                  observed_objective=1.0)
    assert weights_of(applied)["east"] == pytest.approx(1.0, abs=1e-4)


def test_regression_triggers_rollback():
    rollout = IncrementalRollout(RolloutConfig(step=0.5,
                                               regression_tolerance=1.1))
    first = rollout.advance(target({"east": 1.0}), observed_objective=1.0)
    # second epoch: objective much worse -> revert to `first` weights
    second = rollout.advance(target({"east": 1.0}), observed_objective=5.0)
    assert rollout.rollbacks == 1
    assert weights_of(first)["east"] == pytest.approx(0.5)
    # rollback restores the pre-advance state, which held no rule: once
    # pushed it routes west's calls fully local again
    table = RoutingTable()
    controller = ClusterController("west")
    controller.distribute(first, table)
    assert routed(table) == pytest.approx({"west": 0.5, "east": 0.5})
    controller.distribute(second, table)
    assert routed(table) == {"west": 1.0}


def test_rollback_backs_off_step():
    config = RolloutConfig(step=0.4, backoff=0.5)
    rollout = IncrementalRollout(config)
    rollout.advance(target({"east": 1.0}), observed_objective=1.0)
    rollout.advance(target({"east": 1.0}), observed_objective=10.0)
    assert rollout.current_step == pytest.approx(0.2)


def test_step_recovers_after_clean_epochs():
    config = RolloutConfig(step=0.4, backoff=0.5, recovery=2.0)
    rollout = IncrementalRollout(config)
    rollout.advance(target({"east": 1.0}), observed_objective=1.0)
    rollout.advance(target({"east": 1.0}), observed_objective=10.0)   # back off
    assert rollout.current_step == pytest.approx(0.2)
    rollout.advance(target({"east": 1.0}), observed_objective=1.0)
    rollout.advance(target({"east": 1.0}), observed_objective=1.0)
    assert rollout.current_step == pytest.approx(0.4)   # capped at config.step


def test_noise_within_tolerance_not_a_regression():
    rollout = IncrementalRollout(RolloutConfig(step=0.5,
                                               regression_tolerance=1.2))
    rollout.advance(target({"east": 1.0}), observed_objective=1.0)
    rollout.advance(target({"east": 1.0}), observed_objective=1.1)
    assert rollout.rollbacks == 0


def test_dropped_target_keys_decay_to_local():
    rollout = IncrementalRollout(RolloutConfig(step=0.5))
    rollout.advance(target({"east": 1.0}))
    # new target has no rule for S: existing rule decays back toward local
    applied = rollout.advance(RuleSet(), observed_objective=1.0)
    w = weights_of(applied)
    assert w["west"] > 0.7


def test_a_key_that_left_the_target_is_dropped_once_fully_local():
    """A decayed key is dropped, not pushed as an explicit local rule for
    ever: the push that omits it routes the same way."""
    rollout = IncrementalRollout(RolloutConfig(step=0.5))
    for _ in range(3):
        rollout.advance(target({"east": 1.0}), observed_objective=1.0)
    table = RoutingTable()
    controller = ClusterController("west")
    pushes = [rollout.advance(RuleSet(), observed_objective=1.0)
              for _ in range(60)]
    shares = [weights_of(push).get("east", 0.0) for push in pushes
              if len(push)]
    # the key decays monotonically while it is carried...
    assert shares and all(0.0 < share < 1.0 for share in shares)
    assert shares == sorted(shares, reverse=True)
    # ...and is gone once only the source cluster is left
    assert len(shares) < 60
    assert all(len(push) == 0 for push in pushes[len(shares):])
    controller.distribute(pushes[-1], table)
    assert routed(table) == {"west": 1.0}


def test_config_validation():
    with pytest.raises(ValueError):
        RolloutConfig(step=0.0)
    with pytest.raises(ValueError):
        RolloutConfig(regression_tolerance=0.9)
    with pytest.raises(ValueError):
        RolloutConfig(backoff=1.0)
    with pytest.raises(ValueError):
        RolloutConfig(recovery=1.0)
