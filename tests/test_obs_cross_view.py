"""Cross-view property: the decision log, the provenance chain, the scraped
time series and the end-of-run metrics registry describe one run alike.

One diurnal run with every epoch-reading pillar on, scraped on an interval
that divides the control epoch, so every table change lands on a scrape.
"""

from __future__ import annotations

import pytest

from repro.experiments.scenarios import diurnal_control_setup
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
