"""Solver backend: :class:`HighsLP`, one HiGHS instance per model
structure, the seam every solve goes through; :func:`highs_solve` and the
cacheless arc one-shot :func:`solve` (what the benches and the
piecewise-knot ablation call) solve cold."""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from ...devtools.invariants import check_solver_certificate
from .model import LinearModel, build_model
from .piecewise import DEFAULT_KNOT_FRACTIONS
from .problem import TEProblem
from .result import Certificate, OptimizationResult, extract_result

__all__ = ["SolverError", "HighsLP", "solve", "solve_model", "highs_solve"]

#: scipy's HiGHS binding, the one extension module the seam drives
_HIGHSPY = "scipy.optimize._highspy._core"


def _load_highspy():
    """scipy's HiGHS extension, loaded from its file without running
    ``scipy/optimize/__init__.py`` (its minimisers, ``scipy.special``,
    ``scipy.linalg`` and ``scipy.spatial`` are most of start-up, and the
    seam uses none of them). The module is registered under its own name
    before it runs, so a later ``import scipy.optimize`` finds this object
    rather than initialising the extension again (a pybind11 module
    registers its types once per process). A scipy that keeps ``_core``
    elsewhere gets the ordinary import."""
    if _HIGHSPY in sys.modules:
        return sys.modules[_HIGHSPY]
    folder = Path(scipy.__file__).parent / "optimize" / "_highspy"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"_core{suffix}"
        if path.is_file():
            spec = importlib.util.spec_from_file_location(_HIGHSPY, path)
            module = importlib.util.module_from_spec(spec)
            sys.modules[_HIGHSPY] = module
            try:
                spec.loader.exec_module(module)
            except BaseException:
                del sys.modules[_HIGHSPY]
                raise
            return module
    return importlib.import_module(_HIGHSPY)


highspy = _load_highspy()

_STATUS = highspy.HighsModelStatus

#: HiGHS model status → ``linprog``'s status code (else 4)
LINPROG_STATUS = {_STATUS.kOptimal: 0, _STATUS.kTimeLimit: 1,
                  _STATUS.kIterationLimit: 1, _STATUS.kInfeasible: 2,
                  _STATUS.kModelError: 2, _STATUS.kUnbounded: 3}


class SolverError(RuntimeError):
    """The optimizer could not produce a usable solution."""


def _stacked_csc(model: LinearModel) -> tuple[np.ndarray, np.ndarray,
                                               np.ndarray]:
    """``a_ub`` over ``a_eq`` in compressed sparse column form: the
    ``start``, ``index`` and ``value`` arrays HiGHS reads, each column's
    rows ascending — entry for entry what ``scipy.sparse.vstack((a_ub,
    a_eq), format="csc")`` holds.

    Both blocks are canonical CSR, so their entries concatenated run in
    row order, and a stable sort by column keeps that order per column.
    """
    a_ub, a_eq = model.a_ub, model.a_eq
    columns = np.concatenate((a_ub.indices, a_eq.indices))
    rows = np.repeat(
        np.arange(a_ub.shape[0] + a_eq.shape[0], dtype=columns.dtype),
        np.concatenate((np.diff(a_ub.indptr), np.diff(a_eq.indptr))))
    order = np.argsort(columns, kind="stable")
    start = np.zeros(model.n_variables + 1, dtype=columns.dtype)
    np.cumsum(np.bincount(columns, minlength=model.n_variables),
              out=start[1:])
    return start, rows[order], np.concatenate((a_ub.data, a_eq.data))[order]


def _load(model: LinearModel) -> highspy._Highs:
    """HiGHS holding ``model`` column-wise (``a_ub`` over ``a_eq``), with
    ``linprog``'s options — dual simplex, presolve on, no output — so a
    cold solve lands on ``linprog``'s vertex bit for bit. The one place a
    ``_Highs`` is constructed."""
    shape = (len(model.b_ub) + len(model.b_eq), model.n_variables)
    lp = highspy.HighsLp()
    lp.num_row_, lp.num_col_ = shape
    lp.a_matrix_.num_row_, lp.a_matrix_.num_col_ = shape
    lp.a_matrix_.format_ = highspy.MatrixFormat.kColwise
    (lp.a_matrix_.start_, lp.a_matrix_.index_,
     lp.a_matrix_.value_) = _stacked_csc(model)
    lp.col_cost_ = model.objective
    lp.col_lower_ = np.zeros(model.n_variables)
    lp.col_upper_ = model.upper_bounds
    lp.row_lower_ = np.concatenate((np.full(len(model.b_ub), -np.inf),
                                    model.b_eq))
    lp.row_upper_ = np.concatenate((model.b_ub, model.b_eq))
    options = highspy.HighsOptions()
    options.presolve = "on"
    options.output_flag = options.log_to_console = False
    options.simplex_strategy = (
        highspy.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
    highs = highspy._Highs()
    highs.passOptions(options)
    highs.passModel(lp)
    return highs


def _moved(old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Where ``new`` differs from ``old`` (nowhere if it *is* ``old``)."""
    if new is old:
        return np.empty(0, dtype=np.intp)
    return np.flatnonzero(new != old)


class HighsLP:
    """One model structure held in HiGHS across epochs.

    Models of one structure share its sparsity, objective and ``a_eq``;
    :meth:`push` writes the demand rows, flow bounds, load caps, chord
    intercepts and chord slopes that differ from the model HiGHS holds
    (what :meth:`~repro.core.optimizer.model.ModelStructure.instantiate`
    rewrites), and :meth:`run` solves from the basis HiGHS holds.
    """

    def __init__(self, model: LinearModel) -> None:
        self._highs = _load(model)
        #: the model HiGHS holds
        self.model = model
        #: HiGHS's readings on the last optimal solve
        self.certificate: Certificate | None = None

    def push(self, model: LinearModel) -> None:
        """Make HiGHS hold ``model``, a model of the same structure."""
        held, highs = self.model, self._highs
        n_ub = len(model.b_ub)
        for row in _moved(held.b_ub, model.b_ub).tolist():
            highs.changeRowBounds(row, -np.inf, model.b_ub[row])
        for row in _moved(held.b_eq, model.b_eq).tolist():
            value = model.b_eq[row]
            highs.changeRowBounds(n_ub + row, value, value)
        columns = _moved(held.upper_bounds, model.upper_bounds)
        highs.changeColsBounds(columns.size, columns.astype(np.int32),
                               np.zeros(columns.size),
                               model.upper_bounds[columns])
        a_ub = model.a_ub
        positions = _moved(held.a_ub.data, a_ub.data)
        rows = np.searchsorted(a_ub.indptr, positions, side="right") - 1
        for entry in zip(rows.tolist(), a_ub.indices[positions].tolist(),
                         a_ub.data[positions].tolist()):
            highs.changeCoeff(*entry)
        self.model = model

    def run(self) -> np.ndarray:
        """The held model's optimal solution vector; anything but optimal
        raises :class:`SolverError`, and :attr:`certificate` must pass
        :func:`~repro.devtools.invariants.check_solver_certificate`."""
        highs, hot = self._highs, self.certificate is not None
        self.certificate = None
        highs.run()
        iterations = highs.getInfo().simplex_iteration_count
        status = highs.getModelStatus()
        if hot and iterations and status == _STATUS.kOptimal:
            # pivots leave the basis in pivot order; re-factor the optimal
            # basis in HiGHS's own order, as a cold solve's last step does,
            # so a hot start ending on the cold basis has the cold bits
            highs.setBasis(highs.getBasis())
            highs.run()
            status = highs.getModelStatus()
        if status != _STATUS.kOptimal:
            raise SolverError(f"optimization failed: "
                              f"lp:{LINPROG_STATUS.get(status, 4)}:"
                              f"{highs.modelStatusToString(status)}")
        info = highs.getInfo()
        self.certificate = Certificate(
            iterations, info.max_primal_infeasibility,
            info.max_dual_infeasibility, info.primal_dual_objective_error)
        check_solver_certificate(self.certificate)
        x = highs.getSolution().col_value   # a list, converted on access
        return np.fromiter(x, dtype=float, count=len(x))

    def duals(self) -> tuple[np.ndarray, np.ndarray]:
        """The last solve's row duals (``a_ub`` rows, then ``a_eq`` rows)
        and reduced costs."""
        solution = self._highs.getSolution()
        return (np.array(solution.row_dual, dtype=float),
                np.array(solution.col_dual, dtype=float))


def highs_solve(model: LinearModel) -> np.ndarray:
    """The optimal solution vector of an assembled model, solved cold."""
    return HighsLP(model).run()


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
    """Solve an assembled model cold and extract its result."""
    # solver wall time is diagnostic output, never simulation input
    started = time.perf_counter()   # lint: ignore[D02]
    lp = HighsLP(model)
    solution = lp.run()
    elapsed = time.perf_counter() - started   # lint: ignore[D02]
    result = extract_result(model, solution, "optimal", elapsed)
    result.certificate = lp.certificate
    return result
