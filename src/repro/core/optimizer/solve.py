"""Solver backend: scipy HiGHS for the LP and MILP variants.

The one-shot path: build, solve, extract. Epoch-to-epoch reuse — solver
cache replay, warm builds, warm solves — lives in
:class:`~repro.core.optimizer.warm.EpochSolver`.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import optimize

from .model import LinearModel, build_model
from .piecewise import DEFAULT_KNOT_FRACTIONS
from .problem import TEProblem
from .result import OptimizationResult, extract_result

__all__ = ["SolverError", "solve", "solve_model"]


class SolverError(RuntimeError):
    """The optimizer could not produce a usable solution."""


def solve(problem: TEProblem, max_splits: int | None = None,
          knot_fractions=DEFAULT_KNOT_FRACTIONS) -> OptimizationResult:
    """Formulate and solve ``problem``; raise :class:`SolverError` on failure.

    A failure here means the instance itself is infeasible — most commonly
    total demand beyond global capacity (``rho_max`` × replicas), which the
    paper's framework treats as an admission/provisioning problem outside
    the router's control.
    """
    return solve_model(build_model(problem, max_splits=max_splits,
                                   knot_fractions=knot_fractions))


def solve_model(model: LinearModel) -> OptimizationResult:
    """Solve an assembled model with the appropriate HiGHS backend."""
    # solver wall time is diagnostic output, never simulation input
    started = time.perf_counter()   # lint: ignore[D02]
    if model.is_mip:
        solution, status = _solve_milp(model)
    else:
        solution, status = _solve_lp(model)
    elapsed = time.perf_counter() - started   # lint: ignore[D02]
    if status != "optimal":
        raise SolverError(f"optimization failed: {status}")
    return extract_result(model, solution, status, elapsed)


def _lp_bounds(upper: np.ndarray) -> np.ndarray:
    """``linprog``'s (n, 2) bounds array for columns in ``[0, upper]``
    (``inf`` = unbounded above): the LP a list of ``(0, ub or None)``
    tuples describes, without a Python tuple per column."""
    bounds = np.zeros((len(upper), 2))
    bounds[:, 1] = upper
    return bounds


def _solve_lp(model: LinearModel) -> tuple[np.ndarray | None, str]:
    outcome = optimize.linprog(
        c=model.objective,
        A_ub=model.a_ub, b_ub=model.b_ub,
        A_eq=model.a_eq, b_eq=model.b_eq,
        bounds=_lp_bounds(model.upper_bounds),
        method="highs",
    )
    if not outcome.success:
        return None, f"lp:{outcome.status}:{outcome.message}"
    return outcome.x, "optimal"


def _solve_milp(model: LinearModel) -> tuple[np.ndarray | None, str]:
    constraints = []
    if model.a_ub.shape[0]:
        constraints.append(optimize.LinearConstraint(
            model.a_ub, -np.inf, model.b_ub))
    if model.a_eq.shape[0]:
        constraints.append(optimize.LinearConstraint(
            model.a_eq, model.b_eq, model.b_eq))
    upper = np.where(np.isfinite(model.upper_bounds),
                     model.upper_bounds, np.inf)
    outcome = optimize.milp(
        c=model.objective,
        constraints=constraints,
        integrality=model.integrality,
        bounds=optimize.Bounds(np.zeros(model.n_variables), upper),
    )
    if not outcome.success or outcome.x is None:
        return None, f"milp:{outcome.status}:{outcome.message}"
    return outcome.x, "optimal"
