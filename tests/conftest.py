"""Shared fixtures: small apps and deployments used across the suite, and
the cold-solve shadow every hot-started solve the suite drives is held
to."""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.optimizer.warm as warm_module
from repro.core.optimizer.solve import SolverError, highs_solve
from repro.devtools.invariants import InvariantViolation
from repro.sim import (DemandMatrix, DeploymentSpec, anomaly_detection_app,
                       linear_chain_app, two_class_app, two_region_latency)


@pytest.fixture
def chain_app():
    """3-service linear chain, 10 ms exec per service."""
    return linear_chain_app(n_services=3, exec_time=0.010)


@pytest.fixture
def two_cluster_deployment(chain_app):
    """west/east, 5 replicas of every chain service, 25 ms one-way."""
    return DeploymentSpec.uniform(
        chain_app.services(), ["west", "east"], replicas=5,
        latency=two_region_latency(25.0))


@pytest.fixture
def light_demand():
    """Comfortably under capacity on both clusters."""
    return DemandMatrix({("default", "west"): 200.0,
                         ("default", "east"): 100.0})


@pytest.fixture
def overload_west_demand():
    """West beyond its 500 RPS single-cluster capacity."""
    return DemandMatrix({("default", "west"): 700.0,
                         ("default", "east"): 100.0})


@pytest.fixture
def anomaly_app():
    return anomaly_detection_app()


@pytest.fixture
def lh_app():
    return two_class_app(light_exec=0.003, heavy_exec=0.045, n_services=2)


@pytest.fixture(scope="session")
def real_tree_check():
    """One static check of the committed tree (``src`` plus its tests,
    examples and benchmarks), shared by the lint and analyzer tests."""
    from pathlib import Path

    from repro.devtools import load_project, run_check
    return run_check(load_project([Path(__file__).resolve().parent.parent
                                   / "src"]))


# ------------------------------------------------------- hot-start shadow

#: shadow tolerance (relative, scaled by the cold solution's magnitude)
#: for solver-arithmetic last-bit noise
WARM_SHADOW_TOLERANCE = 1e-9

#: largest constraint violation (relative to 1 + |rhs|) a warm solution may
#: carry; HiGHS's own primal tolerance is 1e-7 absolute
SHADOW_FEASIBILITY = 1e-6

#: the library's warm solve, which the shadow wraps
_warm_solve = warm_module.warm_solve


def infeasibility(model, x: np.ndarray) -> float:
    """Largest violation of the model's rows and bounds at ``x``, each
    relative to ``1 + |right-hand side|``."""
    worst = float(np.max(-x, initial=0.0))
    capped = np.isfinite(model.upper_bounds)
    upper = model.upper_bounds[capped]
    worst = max(worst, float(np.max((x[capped] - upper) / (1.0 + upper),
                                    initial=0.0)))
    if model.a_ub.shape[0]:
        worst = max(worst, float(np.max(
            (model.a_ub @ x - model.b_ub) / (1.0 + np.abs(model.b_ub)))))
    if model.a_eq.shape[0]:
        worst = max(worst, float(np.max(
            np.abs(model.a_eq @ x - model.b_eq)
            / (1.0 + np.abs(model.b_eq)))))
    return worst


def check_warm_against_cold(model, warm_x: np.ndarray) -> None:
    """A warm solution must land on the cold solve's optimal vertex, or on
    another vertex of a tied optimum.

    Bitwise equality usually holds on the seed scenarios, whose round
    demand values produce exactly representable vertices, but it is not a
    structural guarantee: a hot start reaches the optimum along a
    different pivot path than a cold solve (which runs presolve), so
    agreement to a scaled ``WARM_SHADOW_TOLERANCE`` is accepted. Where the
    optimum is tied the two solves may pick different vertices of the
    optimal face; then the warm point must be feasible for the full model
    and cost no more than the cold one.
    """
    try:
        cold_x = highs_solve(model)
    except SolverError as error:
        raise InvariantViolation(
            f"warm solve succeeded but cold solve failed: {error}"
        ) from error
    if np.array_equal(warm_x, cold_x):
        return
    delta = np.abs(warm_x - cold_x)
    tolerance = WARM_SHADOW_TOLERANCE * (
        1.0 + float(np.abs(cold_x).max(initial=0.0)))
    if float(delta.max()) <= tolerance:
        return
    gap = float(model.objective @ warm_x - model.objective @ cold_x)
    if (gap <= WARM_SHADOW_TOLERANCE * (
            1.0 + abs(float(model.objective @ cold_x)))
            and infeasibility(model, warm_x) <= SHADOW_FEASIBILITY):
        return
    worst = int(np.argmax(delta))
    raise InvariantViolation(
        "warm-started solution diverges from cold solve: "
        f"max |Δ|={delta.max():.3e} at column {worst} "
        f"(warm={warm_x[worst]!r}, cold={cold_x[worst]!r}), "
        f"objective gap {gap:.3e}")


def _shadowed_warm_solve(lp, model):
    solution = _warm_solve(lp, model)
    if solution is not None:
        check_warm_against_cold(model, solution)
    return solution


@pytest.fixture(autouse=True)
def shadow_warm_solves(monkeypatch):
    """Every hot start an :class:`EpochSolver` makes in a test is checked
    against a cold solve of the same model."""
    monkeypatch.setattr(warm_module, "warm_solve", _shadowed_warm_solve)
