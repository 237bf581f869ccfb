"""Decision log: unit semantics plus the diurnal plateau/re-plan
acceptance."""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.core.rules import RoutingRule, RuleSet
from repro.experiments.scenarios import diurnal_control_setup
from repro.mesh.routing_table import RoutingTable
from repro.obs import EpochDecision, Observability, ObservabilityConfig


def fake_controller(demand, result):
    """Duck-typed stand-in: DecisionLog only reads these attributes."""
    return SimpleNamespace(
        app=SimpleNamespace(classes={"default": None}),
        deployment=SimpleNamespace(cluster_names=["west", "east"]),
        demand_estimate=lambda cls, cluster: demand.get((cls, cluster), 0.0),
        last_result=result,
        last_observe_time=None,
    )


class Loop:
    """A decision log fed as the control loop feeds it: each epoch's plan
    is installed in a routing table, then ``Observability`` reads the
    epoch."""

    def __init__(self) -> None:
        self.obs = Observability(ObservabilityConfig(decisions=True))
        self.table = RoutingTable()
        self.log = self.obs.decisions

    def record(self, sim_time, controller, update):
        if update is not None:
            update.apply(self.table)
        self.obs.record_epoch(sim_time, controller, update, (), self.table)
        return self.log.decisions[-1]


def fake_result(objective=1.5, warm_start=False):
    return SimpleNamespace(objective=objective, solve_time=0.001,
                           warm_start=warm_start, warm_build=False,
                           build_time=0.0005,
                           solver_path="warm" if warm_start else "cold")


def rules(west_share) -> RuleSet:
    return RuleSet(rules=[RoutingRule.make(
        "A", "default", "west", {"west": west_share,
                                 "east": 1.0 - west_share})])


# ----------------------------------------------------------------- unit

def test_record_outcomes_and_demand_delta():
    loop = Loop()
    first = loop.record(10.0, fake_controller(
        {("default", "west"): 100.0}, fake_result()), rules(0.8))
    assert first.outcome == "solved"
    assert first.epoch == 0
    assert first.demand_total == 100.0
    assert first.demand_delta == 100.0        # vs. the empty previous epoch
    # a key with no previous rule read as local-first: a changed route
    assert first.rules_added == 0 and first.rules_changed == 1
    assert first.weight_churn == pytest.approx(0.4)

    second = loop.record(20.0, fake_controller(
        {("default", "west"): 100.0}, fake_result(warm_start=True)),
        rules(0.8))
    assert second.outcome == "solved"
    assert second.demand_delta == 0.0         # plateau
    assert second.rules_added == 0 and second.rules_changed == 0
    assert second.weight_churn == pytest.approx(0.0)

    third = loop.record(30.0, fake_controller(
        {("default", "west"): 140.0}, fake_result()), rules(0.5))
    assert third.outcome == "solved"
    assert third.demand_delta == pytest.approx(40.0)
    assert third.rules_changed == 1
    assert third.weight_churn == pytest.approx(0.6)   # |0.5-0.8| x 2 dests

    assert loop.log.counts() == {"solved": 3, "no-demand": 0}
    assert len(loop.log) == 3


def test_record_no_demand_epoch():
    loop = Loop()
    decision = loop.record(0.0, fake_controller({}, None), None)
    assert decision.outcome == "no-demand"
    assert decision.objective is None


def test_no_demand_epoch_after_a_plan_reports_no_plan():
    """The controller still holds the last plan, but this epoch made none:
    the row, like its provenance record, carries no plan fields."""
    loop = Loop()
    stale = fake_result()
    decision = loop.record(20.0, fake_controller({}, stale), None)
    assert decision.outcome == "no-demand"
    assert decision.objective is None and decision.solve_time is None
    assert decision.build_time is None and decision.solver_path is None
    assert not decision.warm and not decision.warm_build


def test_jsonl_and_render():
    loop = Loop()
    loop.record(10.0, fake_controller(
        {("default", "west"): 100.0}, fake_result()), rules(0.8))
    lines = loop.log.to_jsonl_lines()
    assert len(lines) == 1
    parsed = json.loads(lines[0])
    assert parsed["outcome"] == "solved"
    assert set(parsed) == set(EpochDecision.__dataclass_fields__)
    table = loop.log.render()
    assert "solved" in table
    assert table.splitlines()[-1] == "epochs=1 solved=1 no-demand=0"


def test_solver_path_reflects_reuse_ladder():
    loop = Loop()
    demand = {("default", "west"): 100.0}
    cold = loop.record(10.0, fake_controller(
        demand, fake_result()), rules(0.8))
    assert cold.solver_path == "cold"
    warm = loop.record(20.0, fake_controller(
        demand, fake_result(warm_start=True)), rules(0.7))
    assert warm.solver_path == "warm" and warm.warm
    empty = loop.record(40.0, fake_controller({}, None), None)
    assert empty.solver_path is None


def test_as_dict_keeps_legacy_keys_alongside_solver_path():
    """PR 8 compat bar: consumers keyed on warm/warm_build keep working."""
    loop = Loop()
    decision = loop.record(10.0, fake_controller(
        {("default", "west"): 100.0}, fake_result(warm_start=True)),
        rules(0.8))
    payload = decision.as_dict()
    assert payload["warm"] is True            # legacy boolean pair intact
    assert payload["warm_build"] is False
    assert payload["solver_path"] == "warm"   # the new derived field
    json.dumps(payload)


# ----------------------------------------- end-to-end diurnal acceptance

def test_diurnal_run_shows_replays_and_replans():
    """>=1 hysteresis plateau AND >=1 re-plan on moved demand. A plateau
    epoch re-plans the unchanged LP as a hot start and ships an identical
    plan: no routing churn."""
    setup = diurnal_control_setup(duration=120.0, epoch=10.0)
    obs = Observability(ObservabilityConfig(decisions=True))
    setup.run(obs)
    log = obs.decisions
    assert log.counts() == {"solved": len(log), "no-demand": 0}
    epochs = [d.epoch for d in log]
    assert epochs == list(range(len(log)))
    plateaus = [d for d in log if d.demand_delta == 0.0]
    replans = [d for d in log if d.demand_delta > 0.0]
    assert plateaus and replans
    for decision in plateaus:
        assert decision.solver_path == "warm"
        assert decision.rules_changed == 0 and decision.weight_churn == 0.0
