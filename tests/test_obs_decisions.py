"""Decision log: unit semantics plus the diurnal solve/replay acceptance."""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.core.rules import RoutingRule, RuleSet
from repro.experiments.scenarios import diurnal_control_setup
from repro.obs import (DecisionLog, EpochDecision, Observability,
                       ObservabilityConfig)
from repro.obs.reading import read_epoch


def fake_controller(demand, result, hits=0, misses=1):
    """Duck-typed stand-in: DecisionLog only reads these attributes."""
    return SimpleNamespace(
        solver_cache=SimpleNamespace(hits=hits, misses=misses),
        app=SimpleNamespace(classes={"default": None}),
        deployment=SimpleNamespace(cluster_names=["west", "east"]),
        demand_estimate=lambda cls, cluster: demand.get((cls, cluster), 0.0),
        last_result=result,
        last_observe_time=None,
    )


def record(log, sim_time, controller, update):
    """One reachable epoch, read the way ``Observability`` reads it."""
    return log.record(read_epoch(sim_time, controller, update))


def fake_result(cache_hit, objective=1.5, fingerprint="fp-1",
                warm_start=False):
    return SimpleNamespace(cache_hit=cache_hit, objective=objective,
                           solve_time=0.001, fingerprint=fingerprint,
                           warm_start=warm_start, warm_build=False,
                           build_time=0.0005,
                           solver_path=("replay" if cache_hit
                                        else "warm" if warm_start
                                        else "cold"))


def rules(west_share) -> RuleSet:
    return RuleSet(rules=[RoutingRule.make(
        "A", "default", "west", {"west": west_share,
                                 "east": 1.0 - west_share})])


# ----------------------------------------------------------------- unit

def test_record_outcomes_and_demand_delta():
    log = DecisionLog()
    first = record(log, 10.0, fake_controller(
        {("default", "west"): 100.0}, fake_result(cache_hit=False)),
        rules(0.8))
    assert first.outcome == "solved"
    assert first.epoch == 0
    assert first.demand_total == 100.0
    assert first.demand_delta == 100.0        # vs. the empty previous epoch
    assert first.rules_added == 1 and first.rules_changed == 0

    second = record(log, 20.0, fake_controller(
        {("default", "west"): 100.0}, fake_result(cache_hit=True),
        hits=1, misses=1),
        rules(0.8))
    assert second.outcome == "replayed"
    # the controller's solver-cache counters, read at record time
    assert second.cache_hits == 1 and second.cache_misses == 1
    assert second.demand_delta == 0.0         # plateau
    assert second.rules_added == 0 and second.rules_changed == 0
    assert second.weight_churn == pytest.approx(0.0)

    third = record(log, 30.0, fake_controller(
        {("default", "west"): 140.0}, fake_result(cache_hit=False)),
        rules(0.5))
    assert third.outcome == "solved"
    assert third.demand_delta == pytest.approx(40.0)
    assert third.rules_changed == 1
    assert third.weight_churn == pytest.approx(0.6)   # |0.5-0.8| x 2 dests

    assert log.counts() == {"solved": 2, "replayed": 1, "no-demand": 0}
    assert len(log) == 3


def test_record_no_demand_epoch():
    log = DecisionLog()
    decision = record(log, 0.0, fake_controller({}, None), None)
    assert decision.outcome == "no-demand"
    assert decision.objective is None and decision.fingerprint is None


def test_no_demand_epoch_after_a_plan_reports_no_plan():
    """The controller still holds the last plan, but this epoch made none:
    the row, like its provenance record, carries no plan fields."""
    log = DecisionLog()
    stale = fake_result(cache_hit=False)
    decision = record(log, 20.0, fake_controller({}, stale), None)
    assert decision.outcome == "no-demand"
    assert decision.objective is None and decision.fingerprint is None
    assert decision.solve_time is None and decision.build_time is None
    assert decision.cache_hits == 0 and decision.cache_misses == 0
    assert not decision.warm and not decision.warm_build


def test_jsonl_and_render():
    log = DecisionLog()
    record(log, 10.0, fake_controller(
        {("default", "west"): 100.0}, fake_result(cache_hit=False)),
        rules(0.8))
    lines = log.to_jsonl_lines()
    assert len(lines) == 1
    parsed = json.loads(lines[0])
    assert parsed["outcome"] == "solved"
    assert set(parsed) == set(EpochDecision.__dataclass_fields__)
    table = log.render()
    assert "solved" in table and "epochs=1" in table


def test_solver_path_reflects_reuse_ladder():
    log = DecisionLog()
    demand = {("default", "west"): 100.0}
    cold = record(log, 10.0, fake_controller(
        demand, fake_result(cache_hit=False)), rules(0.8))
    assert cold.solver_path == "cold"
    warm = record(log, 20.0, fake_controller(
        demand, fake_result(cache_hit=False, warm_start=True)), rules(0.7))
    assert warm.solver_path == "warm" and warm.warm
    replay = record(log, 30.0, fake_controller(
        demand, fake_result(cache_hit=True)), rules(0.7))
    assert replay.solver_path == "replay"
    empty = record(log, 40.0, fake_controller({}, None), None)
    assert empty.solver_path is None


def test_as_dict_keeps_legacy_keys_alongside_solver_path():
    """PR 8 compat bar: consumers keyed on warm/warm_build keep working."""
    log = DecisionLog()
    decision = record(log, 10.0, fake_controller(
        {("default", "west"): 100.0},
        fake_result(cache_hit=False, warm_start=True)), rules(0.8))
    payload = decision.as_dict()
    assert payload["warm"] is True            # legacy boolean pair intact
    assert payload["warm_build"] is False
    assert payload["solver_path"] == "warm"   # the new derived field
    json.dumps(payload)


# ----------------------------------------- end-to-end diurnal acceptance

def test_diurnal_run_shows_replays_and_replans():
    """The ISSUE acceptance: >=1 hysteresis skip AND >=1 re-plan."""
    setup = diurnal_control_setup(duration=120.0, epoch=10.0)
    obs = Observability(ObservabilityConfig(decisions=True))
    setup.run(obs)
    log = obs.decisions
    counts = log.counts()
    assert counts["replayed"] >= 1, counts
    assert counts["solved"] >= 1, counts
    epochs = [d.epoch for d in log]
    assert epochs == list(range(len(log)))
    for decision in log:
        if decision.outcome == "replayed":
            assert decision.cache_hits >= 1
        if decision.outcome in ("solved", "replayed"):
            assert decision.fingerprint is not None
    # a replayed epoch ships an identical plan: no routing churn
    replayed = [d for d in log if d.outcome == "replayed"]
    assert all(d.rules_added == d.rules_removed == d.rules_changed == 0
               for d in replayed)
