"""Warm-started epoch solves: exactness, the reuse ladder, fallbacks.

The warm path must be invisible in the output: on the seed scenarios
(round demand, exactly representable vertices) a warm-started epoch's
solution is *byte-identical* to a cold solve of the same model, and the
``REPRO_DEBUG_INVARIANTS`` shadow check enforces at least tolerance-level
agreement on every instance.
"""

import numpy as np
import pytest

from repro.core.optimizer import (EpochSolver, SolverCache, StructureCache,
                                  build_model, build_path_model, warm_solve)
from repro.core.optimizer.problem import INGRESS_EDGE, TEProblem
from repro.core.optimizer.solve import highs_solve
from repro.core.optimizer.warm import EpochSolver as _EpochSolver
from repro.devtools.invariants import InvariantViolation
from repro.experiments.scenarios import synthetic_te_problem
from repro.sim import DemandMatrix, DeploymentSpec, linear_chain_app
from repro.sim.network import LatencyMatrix
from tests.test_optimizer import chain_problem
from tests.test_optimizer_one_model import sparse_problem


def test_warm_solve_matches_cold_bitwise_on_seed_scenario():
    problem = chain_problem(west_rps=700.0, east_rps=100.0)
    model = build_model(problem)
    cold_x = highs_solve(model)
    # demand moves, structure does not: rescatter through a cache
    cache = StructureCache()
    build_model(problem, structure_cache=cache)
    problem.workloads["default"].demand["west"] = 650.0
    moved = build_model(problem, structure_cache=cache)
    warm_x = warm_solve(moved, cold_x)
    assert warm_x is not None
    cold_moved_x = highs_solve(moved)
    assert np.array_equal(warm_x, cold_moved_x)


def test_epoch_solver_warm_epoch_byte_identical_rules(monkeypatch):
    monkeypatch.setenv("REPRO_DEBUG_INVARIANTS", "1")
    warm_solver = EpochSolver()
    cold_solver = EpochSolver(warm_start=False, structure_cache=None)

    problem = chain_problem(west_rps=700.0)
    warm_solver.solve(problem)
    # demand moves in place: same structure snapshot, new values
    problem.workloads["default"].demand["west"] = 650.0
    warm_result = warm_solver.solve(problem)
    assert warm_result.warm_build and warm_result.warm_start

    cold_result = cold_solver.solve(chain_problem(west_rps=650.0))
    assert warm_result.objective == cold_result.objective
    assert warm_result.rules().rules == cold_result.rules().rules


def test_reuse_ladder_counters():
    """replay < warm rebuild+resolve < cold, each observable in stats."""
    solver = EpochSolver(cache=SolverCache())
    problem = chain_problem(west_rps=700.0)
    r1 = solver.solve(problem)
    assert not r1.cache_hit and not r1.warm_start

    r2 = solver.solve(problem)        # identical fingerprint: replay
    assert r2.cache_hit

    problem.workloads["default"].demand["west"] = 620.0
    r3 = solver.solve(problem)        # values moved: warm build + solve
    assert r3.warm_build and r3.warm_start and not r3.cache_hit

    stats = solver.stats()
    assert stats["builds"] == 3
    assert stats["replays"] == 1
    assert stats["warm_solves"] == 1
    assert stats["warm_rejects"] == 0
    assert stats["solves"] == 2


def test_solver_path_derived_from_result_flags():
    """replay/warm/cold is derived in exactly one place (PR 8)."""
    solver = EpochSolver(cache=SolverCache())
    problem = chain_problem(west_rps=700.0)
    assert solver.solve(problem).solver_path == "cold"
    assert solver.solve(problem).solver_path == "replay"
    problem.workloads["default"].demand["west"] = 620.0
    assert solver.solve(problem).solver_path == "warm"


def test_recorder_hook_sees_every_ladder_rung():
    """The duck-typed provenance hook: one record_solve per epoch."""
    seen = []

    class Recorder:
        def record_solve(self, info):
            seen.append(info)

    solver = EpochSolver(cache=SolverCache())
    solver.recorder = Recorder()
    problem = chain_problem(west_rps=700.0)
    solver.solve(problem)
    solver.solve(problem)
    problem.workloads["default"].demand["west"] = 620.0
    solver.solve(problem)
    assert [info["solver_path"] for info in seen] == ["cold", "replay",
                                                      "warm"]
    assert seen[2]["warm_build"] is True
    assert seen[0]["pricing"] is None         # cold: no certificate ran
    assert seen[2]["pricing"] == "certified"
    assert seen[0]["formulation"] == solver.formulation
    assert seen[0]["n_variables"] > 0
    # arc formulation has no path-candidate census
    assert all(info["candidates"] is None for info in seen)


def test_warm_start_disabled_by_structure_cache_none():
    solver = EpochSolver(structure_cache=None)
    problem = chain_problem()
    solver.solve(problem)
    problem.workloads["default"].demand["west"] = 620.0
    result = solver.solve(problem)
    # fresh arrays every build: the structure-identity gate never opens
    assert not result.warm_build and not result.warm_start
    assert solver.stats()["warm_solves"] == 0


def test_warm_reject_falls_back_to_cold(monkeypatch):
    monkeypatch.setattr("repro.core.optimizer.warm.warm_solve",
                        lambda model, prev, profiler=None: None)
    solver = EpochSolver()
    problem = chain_problem()
    solver.solve(problem)
    problem.workloads["default"].demand["west"] = 620.0
    result = solver.solve(problem)
    assert result.ok and not result.warm_start
    assert solver.stats()["warm_rejects"] == 1


def test_warm_solve_rejects_shape_mismatch():
    model = build_model(chain_problem())
    x = highs_solve(model)
    assert warm_solve(model, x[:-1]) is None     # stale shape


def test_shadow_invariant_catches_divergence(monkeypatch):
    monkeypatch.setenv("REPRO_DEBUG_INVARIANTS", "1")
    problem = chain_problem()
    model = build_model(problem)
    x = highs_solve(model)
    corrupted = x.copy()
    corrupted[0] += 1.0
    with pytest.raises(InvariantViolation):
        _EpochSolver._check_warm_invariant(model, corrupted)


def test_warm_epoch_on_randomized_instance(monkeypatch):
    """Shadow-checked warm solve on a non-round synthetic instance."""
    monkeypatch.setenv("REPRO_DEBUG_INVARIANTS", "1")
    solver = EpochSolver()
    problem = synthetic_te_problem(6, 4, 3, seed=9)
    solver.solve(problem)
    for workload in problem.workloads.values():
        for cluster in workload.demand:
            workload.demand[cluster] *= 1.07
    result = solver.solve(problem)
    assert result.ok and result.warm_build


def test_shadow_invariant_accepts_another_vertex_of_a_tied_optimum(
        monkeypatch):
    """Two identical clusters whose WAN hop costs what a local hop does
    (the 0.25 ms intra-cluster delay), at a demand that keeps every pool on
    its first delay chord: every split that serves the demand costs the
    same. The restricted solve stays on the previous epoch's support while
    the full solve picks its own vertex of that face, and the shadow must
    not call that divergence."""
    monkeypatch.setenv("REPRO_DEBUG_INVARIANTS", "1")
    solver = EpochSolver(formulation="path")
    problem = chain_problem(latency_ms=0.25)
    solver.solve(problem)
    _, previous = solver._previous
    problem.workloads["default"].demand["west"] = 61.0
    problem.workloads["default"].demand["east"] = 9.7
    result = solver.solve(problem)
    assert result.warm_start
    model = build_path_model(problem)
    cold_x = highs_solve(model)
    warm_x = warm_solve(model, previous)
    # another vertex, at the same cost
    assert float(np.abs(warm_x - cold_x).max()) > 1.0
    assert model.objective @ warm_x == pytest.approx(
        model.objective @ cold_x, rel=1e-12)
    _EpochSolver._check_warm_invariant(model, warm_x)
    # an infeasible point at the same objective is still a violation
    shifted = warm_x.copy()
    shifted[:2] += (1.0, -1.0)
    shifted[np.argmax(shifted)] *= 4.0
    with pytest.raises(InvariantViolation):
        _EpochSolver._check_warm_invariant(model, shifted)


#: the arc restricted solve on ``sparse_problem()`` runs out of pricing
#: rounds (``MAX_WARM_ROUNDS``) even when only demand moves, so arc churns
#: on the same instance with demand at every cluster
CHURN_PROBLEMS = {
    "arc": lambda: synthetic_te_problem(6, 3, 3, seed=5, replication=0.7),
    "path": sparse_problem,
}


@pytest.mark.parametrize("formulation", ["arc", "path"])
def test_replica_churn_is_a_warm_epoch(monkeypatch, formulation):
    """One replica count toggled per epoch: after the first epoch every
    build is warm and every solve warm-started, each shadowed by a cold
    solve of the full model and matching a cacheless cold solver."""
    monkeypatch.setenv("REPRO_DEBUG_INVARIANTS", "1")
    solver = EpochSolver(formulation=formulation)
    reference = EpochSolver(cache=None, structure_cache=None,
                            warm_start=False, formulation=formulation)
    problem = CHURN_PROBLEMS[formulation]()
    pools = sorted(pool for pool, count in problem.replicas.items()
                   if count > 0)
    base = dict(problem.replicas)
    for epoch in range(10):
        pool = pools[epoch % len(pools)]
        problem.replicas[pool] = (base[pool] + 1
                                  if problem.replicas[pool] == base[pool]
                                  else base[pool])
        result = solver.solve(problem)
        cold = reference.solve(problem)
        assert (result.warm_build, result.warm_start) == (epoch > 0,
                                                          epoch > 0)
        assert result.objective == pytest.approx(cold.objective, rel=1e-9)
    assert solver.stats()["warm_rejects"] == 0


@pytest.mark.parametrize("formulation", ["arc", "path"])
def test_a_shrink_below_the_previous_support_is_solved_cold(formulation):
    """``b`` drops to one replica: ``a`` and ``b`` together can no longer
    carry the demand, so the previous support (which never used ``c``) is
    infeasible. The warm solve is rejected and the epoch solved cold."""
    solver = EpochSolver(formulation=formulation)
    problem = spill_problem()
    before = solver.solve(problem)
    assert before.flows.get(("default", INGRESS_EDGE, "a", "c"), 0.0) == 0.0
    problem.replicas[("S1", "b")] = 1
    after = solver.solve(problem)
    assert after.ok and after.warm_build and not after.warm_start
    assert solver.stats()["warm_rejects"] == 1
    assert after.flows[("default", INGRESS_EDGE, "a", "c")] > 0.0
    assert after.objective == EpochSolver(
        cache=None, structure_cache=None, warm_start=False,
        formulation=formulation).solve(problem).objective


def spill_problem():
    """700 rps at ``a``, which holds 415 of it: the rest spills to the
    nearer of ``b`` (5 ms away) and ``c`` (20 ms)."""
    app = linear_chain_app(n_services=1, exec_time=0.010)
    latency = LatencyMatrix.from_ms(
        ("a", "b", "c"), {("a", "b"): 5.0, ("a", "c"): 20.0,
                          ("b", "c"): 20.0})
    deployment = DeploymentSpec.uniform(app.services(), ["a", "b", "c"],
                                        replicas=5, latency=latency)
    return TEProblem.from_specs(
        app, deployment, DemandMatrix({("default", "a"): 700.0}))


@pytest.mark.parametrize("formulation", ["arc", "path"])
def test_latency_override_invalidates_the_cached_structure(formulation):
    """A chaos override mutates the latency matrix in place: same object,
    new RTTs. A structure (objective row, path scores, flow pricing) built
    before it must not be rescattered after it."""
    problem = spill_problem()
    solver = EpochSolver(formulation=formulation)
    before = solver.solve(problem)
    assert before.edge_remote_rate("default", INGRESS_EDGE) > 100.0
    assert before.flows.get(("default", INGRESS_EDGE, "a", "c"), 0.0) == 0.0

    token = problem.latency.apply_override("a", "b", extra_delay=0.5)
    after = solver.solve(problem)
    fresh = EpochSolver(formulation=formulation).solve(problem)
    assert not after.warm_build and not after.warm_start
    assert after.flows.get(("default", INGRESS_EDGE, "a", "b"), 0.0) == 0.0
    assert after.objective == fresh.objective
    assert after.predicted_mean_latency == fresh.predicted_mean_latency
    assert after.rules().by_key() == fresh.rules().by_key()

    problem.latency.remove_override(token)
    restored = solver.solve(problem)
    assert not restored.warm_build
    assert restored.objective == before.objective
    assert restored.rules().by_key() == before.rules().by_key()
