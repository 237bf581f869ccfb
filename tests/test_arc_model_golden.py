"""Arc-model goldens: the LP ``build_model`` must emit, byte for byte.

``tests/golden/arc_models.json`` freezes, per instance, the canonical
:func:`~repro.core.optimizer.cache.model_fingerprint` of the arc LP, its
rows / columns / non-zeros, the ``repr`` of the solved objective and a
digest of the routing rules. The fingerprints were written by the
per-variable reference builder the vectorized emitter replaced, which
was then deleted: this file is that reference now.

That builder emitted the *dense* epigraph: every flow column in its
pool's capacity row and in every delay-chord row. ``build_model`` emits
one load column ``L`` per pool instead, so :func:`densify` substitutes
each ``L`` back into its rows and the frozen records are compared with
the densified model; the sparse model itself must solve to the same plan
within 1e-12.

The instances are chosen so that, together, they reach every row family
the dense reference has: remote flow, an egress objective term, a binding
egress-budget row, the M/M/1 chords, a class with no demand and a pool
with no work expression (its epigraph column pinned by a one-entry row).

Regenerate (only when the *model* is meant to change):
``PYTHONPATH=src:. python tests/test_arc_model_golden.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from repro.core.optimizer import TEProblem, build_model
from repro.core.optimizer.cache import model_fingerprint
from repro.core.optimizer.model import CsrMatrix
from repro.core.optimizer.solve import solve_model
from repro.core.optimizer.tables import ModelTables
from repro.experiments.scenarios import (fig6a_how_much, fig6b_which_cluster,
                                         fig6c_multihop,
                                         fig6d_traffic_classes,
                                         synthetic_te_problem)
from repro.sim import (DemandMatrix, DeploymentSpec, anomaly_detection_app,
                       two_region_latency)
from repro.sim.topology import ClusterSpec

from tests.conftest import scipy_csr

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


def _held(matrix) -> CsrMatrix:
    """A scipy CSR matrix's arrays as the model holds them."""
    return CsrMatrix(matrix.data, matrix.indices, matrix.indptr,
                     matrix.shape)


def densify(model):
    """``model`` with each pool's load column ``L`` substituted back into
    its rows: the dense arc LP the frozen fingerprints were taken of.

    ``Σ work·x − L = 0`` under ``L ≤ a_max`` becomes the capacity row
    ``Σ work·x ≤ a_max``, and every chord ``slope·L − t ≤ −intercept``
    becomes ``Σ slope·work·x − t ≤ −intercept``; a pool without work gets
    the pinned row ``−t ≤ 0`` instead of its chords. The columns run
    routes | t, rows run pool by pool, then the egress budget.
    """
    n_cols = len(model.route_columns) + len(model.pool_columns)
    a_eq, a_ub = scipy_csr(model.a_eq).tocsc(), scipy_csr(model.a_ub).tocsc()
    rows, cols, data, rhs = [], [], [], []

    def add_row(row_cols, row_data, row_rhs) -> None:
        rows.append(np.full(len(row_cols), len(rhs)))
        cols.append(np.asarray(row_cols))
        data.append(np.asarray(row_data, dtype=float))
        rhs.append(row_rhs)

    load_rows, chord_rows = [], []
    for pool, t_col in model.pool_columns.items():
        load_col = model.load_columns[pool]
        (load_row,) = a_eq.indices[a_eq.indptr[load_col]:
                                   a_eq.indptr[load_col + 1]]
        load_rows.append(load_row)
        span = slice(model.a_eq.indptr[load_row],
                     model.a_eq.indptr[load_row + 1])
        flows = model.a_eq.indices[span] != load_col
        work_cols = model.a_eq.indices[span][flows]
        work = model.a_eq.data[span][flows]
        span = slice(a_ub.indptr[load_col], a_ub.indptr[load_col + 1])
        chords = a_ub.indices[span]
        chord_rows.extend(chords)
        if not len(work_cols):
            add_row([t_col], [-1.0], 0.0)
            continue
        add_row(work_cols, work, model.upper_bounds[load_col])
        for row, slope in zip(chords, a_ub.data[span]):
            add_row(np.append(work_cols, t_col),
                    np.append(slope * work, -1.0), model.b_ub[row])
    for row in np.setdiff1d(np.arange(model.a_ub.shape[0]), chord_rows):
        span = slice(model.a_ub.indptr[row], model.a_ub.indptr[row + 1])
        add_row(model.a_ub.indices[span], model.a_ub.data[span],
                model.b_ub[row])

    dense_ub = sparse.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(len(rhs), n_cols))
    dense_ub.sort_indices()
    kept = np.setdiff1d(np.arange(model.a_eq.shape[0]), load_rows)
    dense_eq = scipy_csr(model.a_eq)[kept][:, :n_cols]
    return dataclasses.replace(
        model, objective=model.objective[:n_cols], a_ub=_held(dense_ub),
        b_ub=np.array(rhs, dtype=float), a_eq=_held(dense_eq),
        b_eq=model.b_eq[kept], upper_bounds=model.upper_bounds[:n_cols],
        load_columns={},
        tables=ModelTables(model.problem, model.pool_columns,
                           model.route_vars))


def freeze(model) -> dict:
    """The golden record of one assembled arc model."""
    result = solve_model(model)
    return {
        "fingerprint": model_fingerprint(model),
        "rows": int(model.a_ub.shape[0] + model.a_eq.shape[0]),
        "columns": model.n_variables,
        "nnz": int(model.a_ub.nnz + model.a_eq.nnz),
        "objective": repr(result.objective),
        "rules_sha256": hashlib.sha256(
            json.dumps(rule_rows(result)).encode()).hexdigest(),
    }


def rule_rows(result) -> list:
    return [[rule.service, rule.traffic_class, rule.src_cluster,
             [list(pair) for pair in rule.weights]]
            for rule in result.rules()]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_instance(golden):
    assert sorted(golden) == sorted(INSTANCES)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_build_model_matches_the_frozen_model(name, golden):
    assert freeze(densify(build_model(INSTANCES[name]()))) == golden[name]


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_sparse_model_solves_to_the_frozen_plan(name):
    """The load-column model and its densified twin are one LP: the same
    objective and the same rules, to rounding."""
    model = build_model(INSTANCES[name]())
    sparse_result = solve_model(model)
    dense_result = solve_model(densify(model))
    assert sparse_result.objective == pytest.approx(dense_result.objective,
                                                    rel=1e-12, abs=0.0)
    sparse_rules, dense_rules = (rule_rows(sparse_result),
                                 rule_rows(dense_result))
    assert len(sparse_rules) == len(dense_rules)
    for got, want in zip(sparse_rules, dense_rules):
        assert got[:3] == want[:3]
        assert [dst for dst, _ in got[3]] == [dst for dst, _ in want[3]]
        assert [weight for _, weight in got[3]] == pytest.approx(
            [weight for _, weight in want[3]], rel=0.0, abs=1e-12)


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
        model = densify(build_model(problem))
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
        {name: freeze(densify(build_model(INSTANCES[name]())))
         for name in sorted(INSTANCES)}, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
