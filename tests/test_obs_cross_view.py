"""Cross-view property: the decision log, the provenance chain, the scraped
time series and the end-of-run metrics registry describe one run alike.

One diurnal run with every epoch-reading pillar on, scraped on an interval
that divides the control epoch, so every table change lands on a scrape;
and one chaos outage run, whose reconcile epoch moves the table from the
fallback rules back to the plan.
"""

from __future__ import annotations

import pytest

from repro.experiments.scenarios import (chaos_outage_setup,
                                         diurnal_control_setup)
from repro.obs import Observability, ObservabilityConfig
from repro.obs.collect import STATE_METRICS

EPOCH = 10.0
SCRAPE = 2.5


@pytest.fixture(scope="module")
def obs():
    # replicas=2: peak demand exceeds one cluster, so epochs move weight
    setup = diurnal_control_setup(duration=120.0, epoch=EPOCH, replicas=2)
    runtime = Observability(ObservabilityConfig(
        decisions=True, provenance=True, timeseries=True, metrics=True,
        scrape_interval=SCRAPE))
    setup.run(runtime)
    return runtime


@pytest.fixture(scope="module")
def chaos():
    setup = chaos_outage_setup()
    runtime = Observability(setup.observability(
        decisions=True, provenance=True, timeseries=True))
    setup.run(runtime)
    return runtime


def churn_and_demand_rows(runtime):
    """Per decision row, (rules_changed, weight_churn, demand L1) as the
    decision log and as the provenance record at its sim time read it."""
    records = {record.sim_time: record
               for record in runtime.provenance.records}
    assert len(runtime.decisions) > 5
    for decision in runtime.decisions:
        record = records[decision.sim_time]
        changed = sum(entry["changed"]
                      for entry in record.rule_deltas.values())
        yield (decision.epoch,
               (decision.rules_changed, decision.weight_churn,
                decision.demand_delta),
               (changed, record.weight_churn, record.demand_delta_l1()))


@pytest.mark.parametrize("run", ["obs", "chaos"])
def test_decision_churn_and_demand_equal_provenance(run, request):
    """One reading per epoch: the decision row and the provenance record
    read the same table moves and the same demand moves, bit for bit,
    including a chaos reconcile epoch, where the table moves from the
    fallback rules back to the plan."""
    runtime = request.getfixturevalue(run)
    for epoch, decision, record in churn_and_demand_rows(runtime):
        assert decision == record, epoch


def test_chaos_run_has_a_reconcile_epoch(chaos):
    """The chaos fixture holds what the equality above is for: an outage
    with fallback installs, and a decision row after it whose table
    churn is the fallback being reconciled."""
    records = chaos.provenance.records
    fallback = [r for r in records if r.fallback_clusters]
    assert fallback and any(r.outcome == "outage" for r in records)
    after = [d for d in chaos.decisions
             if d.sim_time > fallback[-1].sim_time]
    assert after and after[0].weight_churn > 0


def test_decision_rows_match_provenance_records(obs):
    decisions = list(obs.decisions)
    records = obs.provenance.records
    # every epoch of a healthy run is reachable: one row per record
    assert len(decisions) == len(records) > 5
    assert {d.outcome for d in decisions} == {"solved"}
    for decision, record in zip(decisions, records):
        assert decision.sim_time == record.sim_time
        assert decision.outcome == record.outcome
        assert decision.objective == record.objective
        solver = record.solver or {}
        assert decision.solver_path == solver.get("solver_path")
        assert decision.warm_build == solver.get("warm_build", False)
        assert decision.demand_total == sum(
            value for per in record.demand.values() for value in per.values())


def test_scraped_churn_sums_to_provenance_churn(obs):
    series = obs.timeseries.series("routing_weight_churn")
    first_epoch = obs.provenance.records[0].sim_time
    # scrapes before the first epoch see only the initial install, which
    # provenance takes as its baseline (seed_rules)
    scraped = sum(value for time, value in series.items()
                  if time >= first_epoch)
    recorded = sum(record.weight_churn for record in obs.provenance.records)
    assert recorded > 0
    assert scraped == pytest.approx(recorded, rel=1e-9)


def test_final_scrape_equals_registry(obs):
    store, registry = obs.timeseries, obs.metrics
    shared = [m for m in STATE_METRICS if m.scraped and m.collected]
    assert shared
    for metric in shared:
        registered = registry.get(metric.name)
        assert registered.kind == metric.kind
        scraped = {series.labels: series.last[1]
                   for series in store.all_series(metric.name)}
        assert scraped.keys() == set(registered.labels()), metric.name
        for labels, value in scraped.items():
            assert value == registered.value(**dict(labels)), (
                metric.name, labels)
