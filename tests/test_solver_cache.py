"""Solver memoization: fingerprints, LRU bounds, and controller wiring.

The cache's correctness contract: a hit must yield a result *semantically
equal* to a fresh solve (same flows, objective, predictions), distinct
models must never collide, the size bound must hold under pressure, and
failed solves must never poison the cache. The wiring contract: an
adaptive Global Controller with quantized demand re-plans steady epochs
from the cache instead of HiGHS.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.controller.global_controller import (GlobalController,
                                                     GlobalControllerConfig)
from repro.core.optimizer import (EpochSolver, SolverCache, TEProblem,
                                  build_model, model_fingerprint)
from repro.core.optimizer.solve import SolverError
from repro.mesh.telemetry import ClusterEpochReport
from repro.sim import (DemandMatrix, DeploymentSpec, linear_chain_app,
                       two_region_latency)


def make_problem(west_rps=300.0, east_rps=100.0, n_services=3):
    app = linear_chain_app(n_services=n_services, exec_time=0.008)
    deployment = DeploymentSpec.uniform(
        app.services(), ["west", "east"], replicas=5,
        latency=two_region_latency(25.0))
    demand = DemandMatrix({("default", "west"): west_rps,
                           ("default", "east"): east_rps})
    return TEProblem.from_specs(app, deployment, demand)


def make_report(cluster, rps, duration=5.0):
    report = ClusterEpochReport(cluster=cluster, start_time=0.0,
                                duration=duration)
    report.ingress_counts["default"] = int(rps * duration)
    return report


# ------------------------------------------------------------ fingerprints


def test_fingerprint_deterministic_across_builds():
    first = build_model(make_problem())
    second = build_model(make_problem())
    assert model_fingerprint(first) == model_fingerprint(second)


def test_fingerprint_distinguishes_models():
    base = model_fingerprint(build_model(make_problem()))
    more_demand = model_fingerprint(build_model(make_problem(west_rps=310.0)))
    bigger_app = model_fingerprint(build_model(make_problem(n_services=4)))
    assert len({base, more_demand, bigger_app}) == 3


# ------------------------------------------------------------ hit semantics


def replaying_solver(cache):
    """An EpochSolver with only the replay rung of its reuse ladder."""
    return EpochSolver(cache=cache, structure_cache=None, warm_start=False)


def test_cache_hit_returns_equal_result():
    cache = SolverCache()
    solver = replaying_solver(cache)
    cold = solver.solve(make_problem())
    warm = solver.solve(make_problem())

    assert not cold.cache_hit
    assert warm.cache_hit
    # dataclass equality covers flows, objective, pool loads, predictions;
    # the cache_* diagnostics are compare=False so this is semantic equality
    assert warm == cold
    assert warm.flows == cold.flows
    assert warm.objective == pytest.approx(cold.objective)
    assert cache.stats() == {"hits": 1, "misses": 1, "hit_rate": 0.5,
                             "entries": 1}
    assert warm.cache_hits == 1 and warm.cache_misses == 1


def test_distinct_models_never_collide():
    cache = SolverCache()
    solver = replaying_solver(cache)
    first = solver.solve(make_problem(west_rps=300.0))
    second = solver.solve(make_problem(west_rps=420.0))
    assert not second.cache_hit
    assert cache.misses == 2 and cache.hits == 0
    # each re-solve replays its own entry, not the other's
    assert solver.solve(make_problem(west_rps=300.0)).flows == first.flows
    assert solver.solve(make_problem(west_rps=420.0)).flows == second.flows


def test_cached_vector_is_isolated_from_caller():
    cache = SolverCache()
    solver = replaying_solver(cache)
    solver.solve(make_problem())
    vector, _ = cache.lookup(model_fingerprint(build_model(make_problem())))
    vector[:] = -1.0   # corrupting the returned copy must not leak back
    replay = solver.solve(make_problem())
    assert replay.cache_hit and replay.ok
    assert all(rate >= 0 for rate in replay.flows.values())


def test_failed_solves_are_not_cached():
    cache = SolverCache()
    infeasible = make_problem(west_rps=50_000.0)   # beyond global capacity
    with pytest.raises(SolverError):
        replaying_solver(cache).solve(infeasible)
    assert len(cache) == 0


# ---------------------------------------------------------------- eviction


def test_eviction_respects_maxsize():
    cache = SolverCache(maxsize=2)
    for index in range(4):
        cache.store(f"fp{index}", np.zeros(3), "optimal")
        assert len(cache) <= 2
    assert cache.lookup("fp0") is None and cache.lookup("fp1") is None
    assert cache.lookup("fp2") is not None and cache.lookup("fp3") is not None


def test_lookup_refreshes_lru_recency():
    cache = SolverCache(maxsize=2)
    cache.store("a", np.zeros(1), "optimal")
    cache.store("b", np.zeros(1), "optimal")
    assert cache.lookup("a") is not None   # 'a' becomes most recent
    cache.store("c", np.zeros(1), "optimal")   # evicts 'b', not 'a'
    assert cache.lookup("a") is not None
    assert cache.lookup("b") is None


def test_maxsize_validation():
    with pytest.raises(ValueError):
        SolverCache(maxsize=0)


# ---------------------------------------------------- controller wiring


def controller_with(config):
    app = linear_chain_app(n_services=3, exec_time=0.008)
    deployment = DeploymentSpec.uniform(
        app.services(), ["west", "east"], replicas=5,
        latency=two_region_latency(25.0))
    return GlobalController(app, deployment, config)


def test_quantized_controller_replans_from_cache():
    controller = controller_with(GlobalControllerConfig(
        learn_profiles=False, demand_quantum=25.0))
    # steady demand with sub-quantum telemetry jitter across epochs
    for jitter in (0.0, 4.0, -6.0, 3.0):
        controller.observe([make_report("west", 300.0 + jitter),
                            make_report("east", 120.0 + jitter)])
        result = controller.plan()
        assert result is not None and result.ok
    stats = controller.solver_cache.stats()
    assert stats["misses"] == 1
    assert stats["hits"] == 3
    assert controller.last_result.cache_hit


def test_unquantized_controller_resolves_every_epoch():
    controller = controller_with(GlobalControllerConfig(
        learn_profiles=False, demand_quantum=0.0))
    for jitter in (0.0, 4.0, -6.0):
        controller.observe([make_report("west", 300.0 + jitter),
                            make_report("east", 120.0)])
        assert controller.plan().ok
    # EWMA jitter makes every instance numerically fresh: no hits
    assert controller.solver_cache.hits == 0
    assert controller.solver_cache.misses == 3
