"""Solver backend: the LP through scipy's HiGHS ``linprog``.

:func:`highs_solve` is the seam every full solve goes through — the
cacheless arc one-shot here (build, solve, extract: what the benches and
the piecewise-knot ablation call) and the cold rung of
:class:`~repro.core.optimizer.warm.EpochSolver`, which every controller
plan goes through and which adds epoch-to-epoch reuse (solver cache
replay, warm builds, warm solves) on top.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import optimize

from .model import LinearModel, build_model
from .piecewise import DEFAULT_KNOT_FRACTIONS
from .problem import TEProblem
from .result import OptimizationResult, extract_result

__all__ = ["SolverError", "solve", "solve_model", "highs_solve"]


class SolverError(RuntimeError):
    """The optimizer could not produce a usable solution."""


def solve(problem: TEProblem,
          knot_fractions=DEFAULT_KNOT_FRACTIONS) -> OptimizationResult:
    """Formulate and solve ``problem``; raise :class:`SolverError` on failure.

    A failure here means the instance itself is infeasible — most commonly
    total demand beyond global capacity (``rho_max`` × replicas), which the
    paper's framework treats as an admission/provisioning problem outside
    the router's control.
    """
    return solve_model(build_model(problem, knot_fractions=knot_fractions))


def solve_model(model: LinearModel) -> OptimizationResult:
    """Solve an assembled model and extract its result."""
    # solver wall time is diagnostic output, never simulation input
    started = time.perf_counter()   # lint: ignore[D02]
    solution = highs_solve(model)
    elapsed = time.perf_counter() - started   # lint: ignore[D02]
    return extract_result(model, solution, "optimal", elapsed)


def _lp_bounds(upper: np.ndarray) -> np.ndarray:
    """``linprog``'s (n, 2) bounds array for columns in ``[0, upper]``
    (``inf`` = unbounded above): the LP a list of ``(0, ub or None)``
    tuples describes, without a Python tuple per column."""
    bounds = np.zeros((len(upper), 2))
    bounds[:, 1] = upper
    return bounds


def highs_solve(model: LinearModel) -> np.ndarray:
    """The optimal solution vector of an assembled model.

    The one place a full model meets HiGHS, and therefore the one place a
    solver fault surfaces: anything but an optimal solution raises
    :class:`SolverError`.
    """
    outcome = optimize.linprog(
        c=model.objective,
        A_ub=model.a_ub, b_ub=model.b_ub,
        A_eq=model.a_eq, b_eq=model.b_eq,
        bounds=_lp_bounds(model.upper_bounds),
        method="highs",
    )
    if not outcome.success or outcome.x is None:
        raise SolverError(f"optimization failed: "
                          f"lp:{outcome.status}:{outcome.message}")
    return outcome.x
