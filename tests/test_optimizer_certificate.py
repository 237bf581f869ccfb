"""The certificate on every solve, and solver state that survives pickling.

Every optimal HiGHS solve reports its primal and dual infeasibilities and
its primal–dual objective gap, and an always-on invariant
(:func:`~repro.devtools.invariants.check_solver_certificate`) holds them
to stated tolerances. Here the same readings are recomputed independently
— from the primal point, the row duals, ``c − Aᵀy`` and the bounds — on
every solve of the smoke-size control ledger, cold and hot alike.
"""

import pickle

import numpy as np
import pytest
from scipy import sparse

from benchmarks.e2e.workloads import WORKLOAD_TYPES
from repro.baselines.base import PolicyContext
from repro.core.controller.global_controller import GlobalControllerConfig
from repro.core.controller.policy import SlatePolicy
from repro.core.optimizer import EpochSolver, HighsLP
from repro.core.optimizer.result import Certificate
from repro.devtools.invariants import (InvariantViolation,
                                       check_solver_certificate)
from tests.conftest import scipy_csr
from tests.test_optimizer import chain_problem, chain_specs


def recomputed_certificate(model, x, row_dual, col_dual) -> Certificate:
    """The certificate of ``x`` and the duals ``row_dual`` (``a_ub`` rows,
    then ``a_eq`` rows), computed without HiGHS.

    Primal infeasibility is the largest bound or row violation, equality
    residuals relative to ``1 + |b_eq|``. The reduced costs are
    ``d = c − Aᵀy``; a column that could rise (below its upper bound) needs
    ``d ≥ 0``, one that could fall (above zero) ``d ≤ 0``, and an ``a_ub``
    row's dual must be ``≤ 0``. The gap is ``c·x`` against the dual
    objective ``b·y + Σ upper·min(d, 0)``, relative to ``1 + |c·x|``.
    ``col_dual`` (HiGHS's own reduced costs) must agree with ``d``.
    """
    n_ub = len(model.b_ub)
    y_ub, y_eq = row_dual[:n_ub], row_dual[n_ub:]
    a_ub, a_eq = scipy_csr(model.a_ub), scipy_csr(model.a_eq)
    matrix = sparse.vstack((a_ub, a_eq), format="csr")
    reduced = model.objective - matrix.T @ row_dual
    np.testing.assert_allclose(reduced, col_dual, rtol=0, atol=1e-9)
    upper = model.upper_bounds
    primal = max(
        float(np.max(-x, initial=0.0)),
        float(np.max(x - upper, initial=0.0)),
        float(np.max(a_ub @ x - model.b_ub, initial=0.0)),
        float(np.max(np.abs(a_eq @ x - model.b_eq)
                     / (1.0 + np.abs(model.b_eq)), initial=0.0)))
    dual = max(
        float(np.max(-reduced[x < upper], initial=0.0)),
        float(np.max(reduced[x > 0], initial=0.0)),
        float(np.max(y_ub, initial=0.0)))
    capped = np.isfinite(upper)
    primal_objective = float(model.objective @ x)
    dual_objective = float(model.b_ub @ y_ub + model.b_eq @ y_eq
                           + upper[capped] @ np.minimum(reduced[capped], 0))
    gap = abs(primal_objective - dual_objective) / (
        1.0 + abs(primal_objective))
    return Certificate(0, primal, dual, gap)


@pytest.fixture(scope="module", params=["ctl_steady_path", "ctl_churn_arc"])
def ledger_solves(request):
    """(model, x, row duals, reduced costs) of every optimal solve one
    smoke-size round of a control ledger workload makes."""
    solves = []
    original = HighsLP.run

    def recording(lp):
        x = original(lp)
        solves.append((lp.model, x, *lp.duals()))
        return x

    HighsLP.run = recording
    try:
        workload = WORKLOAD_TYPES[request.param](1, "smoke")
        workload.setup()
        workload.round(verify=False)
    finally:
        HighsLP.run = original
    return solves


def test_every_ledger_solve_carries_a_certificate_that_holds(ledger_solves):
    assert len(ledger_solves) > 5
    for model, x, row_dual, col_dual in ledger_solves:
        check_solver_certificate(
            recomputed_certificate(model, x, row_dual, col_dual))


def test_a_perturbed_solution_trips_the_invariant(ledger_solves):
    model, x, row_dual, col_dual = ledger_solves[-1]
    shifted = x.copy()
    column = int(np.argmax(x[:len(model.route_columns)]))
    shifted[column] += 1e-3 * (1.0 + x[column])
    with pytest.raises(InvariantViolation, match="primal infeasibility"):
        check_solver_certificate(
            recomputed_certificate(model, shifted, row_dual, col_dual))


def test_the_invariant_names_each_reading():
    for reading, message in (("max_primal_infeasibility",
                              "primal infeasibility"),
                             ("max_dual_infeasibility", "dual infeasibility"),
                             ("primal_dual_objective_error", "gap")):
        readings = dict(max_primal_infeasibility=0.0,
                        max_dual_infeasibility=0.0,
                        primal_dual_objective_error=0.0)
        check_solver_certificate(Certificate(3, **readings))
        for bad in (1e-3, float("nan")):
            readings[reading] = bad
            with pytest.raises(InvariantViolation, match=message):
                check_solver_certificate(Certificate(3, **readings))


def test_each_result_carries_its_solves_readings():
    solver = EpochSolver()
    problem = chain_problem()
    cold = solver.solve(problem)
    problem.workloads["default"].demand["west"] = 450.0
    hot = solver.solve(problem)
    assert hot.solver_path == "warm"
    assert 0 < hot.certificate.simplex_iteration_count < (
        cold.certificate.simplex_iteration_count)
    for result in (cold, hot):
        check_solver_certificate(result.certificate)


def test_solver_state_survives_a_pickle_round_trip():
    """A live HiGHS instance does not pickle, so a solved solver drops it:
    the copy's next solve is cold, and lands where the original did."""
    solver = EpochSolver()
    problem = chain_problem()
    solved = solver.solve(problem)
    assert solver._previous is not None
    clone = pickle.loads(pickle.dumps(solver))
    assert clone._previous is None and solver._previous is not None
    again = clone.solve(problem)
    assert again.solver_path == "cold"
    assert again.objective == solved.objective

    app, deployment, demand = chain_specs()
    policy = SlatePolicy(GlobalControllerConfig(), adaptive=True)
    rules = policy.compute_rules(PolicyContext(app, deployment, demand))
    copy = pickle.loads(pickle.dumps(policy))
    planner = copy.controller
    assert planner.epoch_solver._previous is None
    assert copy.compute_rules(PolicyContext(
        planner.app, planner.deployment, demand)).rules == rules.rules
    assert copy.controller is planner
