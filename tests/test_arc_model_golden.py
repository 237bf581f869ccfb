"""Arc-model goldens: the LP ``build_model`` must emit, byte for byte.

``tests/golden/arc_models.json`` freezes, per instance, the canonical
:func:`~repro.core.optimizer.cache.model_fingerprint` of the arc LP, its
rows / columns / non-zeros, the ``repr`` of the solved objective and a
digest of the routing rules. The fingerprints were written by the
per-variable reference builder the vectorized emitter replaced, which
was then deleted: this file is that reference now.

The instances are chosen so that, together, they reach every row family
the arc emitter has: remote flow, an egress objective term, a binding
egress-budget row, the M/M/1 chords, a class with no demand and a pool
with no work expression (its epigraph column pinned by a one-entry row).

Regenerate (only when the *model* is meant to change):
``PYTHONPATH=src:. python tests/test_arc_model_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.optimizer import TEProblem, build_model
from repro.core.optimizer.cache import model_fingerprint
from repro.core.optimizer.solve import solve_model
from repro.experiments.scenarios import (fig6a_how_much, fig6b_which_cluster,
                                         fig6c_multihop,
                                         fig6d_traffic_classes,
                                         synthetic_te_problem)
from repro.sim import (DemandMatrix, DeploymentSpec, anomaly_detection_app,
                       two_region_latency)
from repro.sim.topology import ClusterSpec

GOLDEN = Path(__file__).parent / "golden" / "arc_models.json"

#: the weight fig6c's SLATE policy converts egress dollars with
COST_WEIGHT = 10000.0

#: half the uncapped plan's egress rate on the budget instance, so binding
EGRESS_BUDGET = 8.0e-4

FIGURES = {"fig6a": fig6a_how_much, "fig6b": fig6b_which_cluster,
           "fig6c": fig6c_multihop, "fig6d": fig6d_traffic_classes}


def _figure(name: str, **kwargs) -> TEProblem:
    scenario = FIGURES[name]().scenario
    return TEProblem.from_specs(scenario.app, scenario.deployment,
                                scenario.demand, **kwargs)


def _no_db_in_west(app) -> tuple:
    """Fig. 6c's two regions: west runs no DB, so its demand must cross."""
    deployment = DeploymentSpec(
        clusters=[ClusterSpec("west", {"FR": 4, "MP": 5}),
                  ClusterSpec("east", {"FR": 4, "MP": 8, "DB": 8})],
        latency=two_region_latency(25.0))
    demand = DemandMatrix({("default", "west"): 300.0,
                           ("default", "east"): 100.0})
    return app, deployment, demand


def _egress_budget() -> TEProblem:
    return TEProblem.from_specs(*_no_db_in_west(anomaly_detection_app()),
                                egress_budget=EGRESS_BUDGET)


def _zero_exec_pool() -> TEProblem:
    """FR does no work, so no FR pool has a work expression."""
    return TEProblem.from_specs(
        *_no_db_in_west(anomaly_detection_app(fr_exec=0.0)))


def _zero_demand_class() -> TEProblem:
    """Fig. 6d with the heavy class silent: its ingress block is empty."""
    scenario = fig6d_traffic_classes().scenario
    demand = DemandMatrix({(cls, cluster): rps
                           for cls, cluster, rps in scenario.demand.items()
                           if cls != "H"})
    return TEProblem.from_specs(scenario.app, scenario.deployment, demand)


INSTANCES = {
    **{name: (lambda name=name: _figure(name)) for name in FIGURES},
    **{f"{name}-cost": (lambda name=name: _figure(
        name, cost_weight=COST_WEIGHT)) for name in FIGURES},
    "egress-budget": _egress_budget,
    "mm1": lambda: _figure("fig6a", delay_model="mm1"),
    "zero-demand-class": _zero_demand_class,
    "zero-exec-pool": _zero_exec_pool,
    "synthetic-sparse": lambda: synthetic_te_problem(
        8, 3, 5, seed=4, replication=0.5, ingresses_per_class=2),
}


def freeze(model) -> dict:
    """The golden record of one assembled arc model."""
    result = solve_model(model)
    rules = [[rule.service, rule.traffic_class, rule.src_cluster,
              [list(pair) for pair in rule.weights]]
             for rule in result.rules()]
    return {
        "fingerprint": model_fingerprint(model),
        "rows": int(model.a_ub.shape[0] + model.a_eq.shape[0]),
        "columns": model.n_variables,
        "nnz": int(model.a_ub.nnz + model.a_eq.nnz),
        "objective": repr(result.objective),
        "rules_sha256": hashlib.sha256(
            json.dumps(rules).encode()).hexdigest(),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_instance(golden):
    assert sorted(golden) == sorted(INSTANCES)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_build_model_matches_the_frozen_model(name, golden):
    assert freeze(build_model(INSTANCES[name]())) == golden[name]


def _has_pinned_t_row(model) -> bool:
    """A one-entry ``-t <= 0`` row: a pool with no work expression."""
    a_ub = model.a_ub
    pool_columns = set(model.pool_columns.values())
    return any(
        a_ub.indptr[row + 1] - a_ub.indptr[row] == 1
        and a_ub.indices[a_ub.indptr[row]] in pool_columns
        and a_ub.data[a_ub.indptr[row]] == -1.0 and model.b_ub[row] == 0.0
        for row in range(a_ub.shape[0]))


def test_frozen_set_reaches_every_row_family():
    remote = egress = budget = pinned = False
    for make in INSTANCES.values():
        problem = make()
        model = build_model(problem)
        result = solve_model(model)
        remote |= any(src != dst for _, _, src, dst in result.flows)
        egress |= (problem.cost_weight > 0
                   and result.predicted_egress_cost_rate > 0)
        if problem.egress_budget is not None:
            # the budget row closes a_ub, and the optimum spends all of it
            assert model.b_ub[-1] == problem.egress_budget
            assert result.predicted_egress_cost_rate == pytest.approx(
                problem.egress_budget, rel=1e-6)
            budget = True
        pinned |= _has_pinned_t_row(model)
    assert remote and egress and budget and pinned


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {name: freeze(build_model(INSTANCES[name]()))
         for name in sorted(INSTANCES)}, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
