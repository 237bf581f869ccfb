"""Hot-started epoch solves: exactness, the reuse ladder, fallbacks.

The hot path must be invisible in the output: on the seed scenarios
(round demand, exactly representable vertices) a hot-started epoch's
flow columns and rules are *byte-identical* to a cold solve of the same
model (its auxiliary pool columns agree to the shadow's tolerance), and the
shadow in ``tests/conftest.py`` enforces at least tolerance-level
agreement on every hot start the suite drives.
"""

import pickle

import numpy as np
import pytest

from repro.core.controller.global_controller import (GlobalController,
                                                     GlobalControllerConfig)
from repro.core.optimizer import (EpochSolver, HighsLP, SolverCache,
                                  build_model, build_path_model, warm_solve)
from repro.core.optimizer.problem import INGRESS_EDGE, TEProblem
from repro.core.optimizer.result import extract_result
from repro.core.optimizer.solve import highs_solve
from repro.devtools.invariants import InvariantViolation
from repro.experiments.scenarios import synthetic_te_problem
from repro.mesh.telemetry import ClusterEpochReport
from repro.sim import (DemandMatrix, DeploymentSpec, linear_chain_app,
                       two_region_latency)
from repro.sim.network import EgressPricing, LatencyMatrix
from tests import conftest
from tests.conftest import check_warm_against_cold
from tests.test_optimizer import chain_problem
from tests.test_optimizer_one_model import assert_same_model, sparse_problem


def test_warm_solve_matches_cold_bitwise_on_seed_scenario():
    problem = chain_problem(west_rps=700.0, east_rps=100.0)
    # demand moves, structure does not: rescatter the snapshot
    model = build_model(problem)
    lp = HighsLP(model)
    lp.run()
    problem.workloads["default"].demand["west"] = 650.0
    moved = model.snapshot.instantiate(problem)
    warm_x = warm_solve(lp, moved)
    assert warm_x is not None
    cold_moved_x = highs_solve(moved)
    routes = len(moved.route_columns)
    assert np.array_equal(warm_x[:routes], cold_moved_x[:routes])
    warm_rules = extract_result(moved, warm_x, "optimal", 0.0).rules()
    cold_rules = extract_result(moved, cold_moved_x, "optimal", 0.0).rules()
    assert warm_rules.rules == cold_rules.rules
    # the pool columns (t | L) are auxiliary: the hot start may round them
    # differently in the last place
    assert warm_x[routes:] == pytest.approx(
        cold_moved_x[routes:], rel=conftest.WARM_SHADOW_TOLERANCE)


def test_epoch_solver_warm_epoch_byte_identical_rules():
    warm_solver = EpochSolver()
    cold_solver = EpochSolver(warm_start=False)

    problem = chain_problem(west_rps=700.0)
    warm_solver.solve(problem)
    # demand moves in place: same structure snapshot, new values
    problem.workloads["default"].demand["west"] = 650.0
    warm_result = warm_solver.solve(problem)
    assert warm_result.warm_build and warm_result.warm_start

    cold_result = cold_solver.solve(chain_problem(west_rps=650.0))
    # the hot start sums the objective along another pivot path
    assert warm_result.objective == pytest.approx(cold_result.objective,
                                                  rel=1e-12)
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


def test_result_carries_every_ladder_rung():
    """Each result names its rung, build reuse and hot-start outcome."""
    solver = EpochSolver(cache=SolverCache())
    problem = chain_problem(west_rps=700.0)
    cold = solver.solve(problem)
    replay = solver.solve(problem)
    problem.workloads["default"].demand["west"] = 620.0
    warm = solver.solve(problem)
    assert [r.solver_path for r in (cold, replay, warm)] == ["cold", "replay",
                                                            "warm"]
    assert warm.warm_build is True
    assert cold.hot_start is None         # cold: no hot start tried
    assert replay.hot_start is None       # replay: no solve at all
    assert warm.hot_start == "optimal"
    assert solver.formulation == "arc"
    assert cold.n_variables > 0
    # arc formulation has no path-candidate census
    assert solver.last_candidate_stats is None


def test_warm_start_disabled_keeps_no_previous_epoch():
    solver = EpochSolver(warm_start=False)
    problem = chain_problem()
    solver.solve(problem)
    assert solver._previous is None
    problem.workloads["default"].demand["west"] = 620.0
    result = solver.solve(problem)
    # fresh arrays every build: the structure-identity gate never opens
    assert not result.warm_build and not result.warm_start
    assert solver.stats()["warm_solves"] == 0


@pytest.mark.parametrize("formulation", ["arc", "path"])
def test_a_structure_seen_two_epochs_ago_is_built_cold(formulation):
    """Structures A → B → A: only the previous epoch is kept, so the second
    A is a cold build and a cold solve — of the model the first A built,
    byte for byte."""
    solver = EpochSolver(formulation=formulation)
    problem = sparse_problem()
    service = "svc1"
    spare = next(c for c in problem.clusters
                 if c not in problem.deployed_in(service))
    snapshots = []
    for count in (0, 4, 0):      # B deploys a spare pool
        problem.replicas[(service, spare)] = count
        result = solver.solve(problem)
        assert not result.warm_build and result.solver_path == "cold"
        snapshots.append(solver._previous.snapshot)
    first, _, again = snapshots
    assert again is not first
    assert again.model.tables is not first.model.tables
    assert_same_model(again.model, first.model)
    assert solver.stats()["warm_builds"] == 0


def test_a_raising_solve_keeps_the_structure_and_drops_the_basis():
    """Demand above the fleet's capacity: ``plan`` solves, HiGHS finds the
    LP infeasible, and the controller retries at scaled-down demand. The
    retry is of the same structure: a warm build and a cold solve; the
    epoch after it hot-starts from the retry's basis."""
    app = linear_chain_app()
    deployment = DeploymentSpec.uniform(
        app.services(), ["west", "east"], replicas=5,
        latency=two_region_latency(25.0))
    controller = GlobalController(app, deployment, GlobalControllerConfig(
        learn_profiles=False, demand_alpha=1.0))
    solver = controller.epoch_solver

    def epoch(rps):
        controller.observe([ClusterEpochReport(
            cluster="west", start_time=0.0, duration=2.0,
            ingress_counts={"default": int(rps * 2.0)})])
        return controller.plan()

    epoch(400.0)
    snapshot = solver._previous.snapshot
    retried = epoch(2_000.0)      # global capacity is 950 rps
    assert retried.ok and retried.warm_build
    # the infeasible solve's hot start was rejected and its cold solve
    # raised: no basis was left for the retry to start from
    assert retried.solver_path == "cold" and retried.hot_start is None
    assert solver._previous.snapshot is snapshot
    assert (solver.builds, solver.warm_builds, solver.solves,
            solver.warm_rejects) == (3, 2, 3, 1)
    assert epoch(500.0).solver_path == "warm"


def test_a_pickled_solvers_next_epoch_is_cold():
    """Pickling drops the previous epoch whole — structure, split plan and
    the HiGHS instance — so the copy's next epoch of the same structure
    is a cold build and a cold solve; the original's is warm."""
    solver = EpochSolver()
    problem = chain_problem(west_rps=700.0)
    solver.solve(problem)
    clone = pickle.loads(pickle.dumps(solver))
    assert clone._previous is None
    problem.workloads["default"].demand["west"] = 650.0
    cold = clone.solve(problem)
    assert not cold.warm_build and cold.solver_path == "cold"
    warm = solver.solve(problem)
    assert warm.warm_build and warm.solver_path == "warm"
    assert warm.objective == pytest.approx(cold.objective, rel=1e-12)


def test_warm_reject_falls_back_to_cold():
    """A hot start that does not end optimal — here HiGHS may not pivot
    at all — is re-run once on a freshly loaded instance."""
    solver = EpochSolver()
    problem = chain_problem()
    solver.solve(problem)
    lp = solver._previous.lp
    lp._highs.setOptionValue("simplex_iteration_limit", 0)
    problem.workloads["default"].demand["west"] = 450.0
    result = solver.solve(problem)
    assert result.ok and not result.warm_start
    assert result.solver_path == "cold" and result.hot_start == "rejected"
    assert solver.stats()["warm_rejects"] == 1
    assert solver._previous.lp is not lp
    assert result.objective == EpochSolver(
        cache=None, warm_start=False).solve(problem).objective


def test_warm_solve_rejects_shape_mismatch():
    """An instance only takes models of the structure it was loaded
    with."""
    model = build_model(chain_problem())
    lp = HighsLP(model)
    lp.run()
    other = build_model(chain_problem(cost_weight=1.0, egress_budget=1.0))
    assert other.a_ub.shape != model.a_ub.shape      # one more budget row
    assert warm_solve(lp, other) is None


def test_shadow_invariant_catches_divergence():
    problem = chain_problem()
    model = build_model(problem)
    x = highs_solve(model)
    corrupted = x.copy()
    corrupted[0] += 1.0
    with pytest.raises(InvariantViolation):
        check_warm_against_cold(model, corrupted)


def test_shadow_hook_checks_every_epoch_solver_warm_solve(monkeypatch):
    """The conftest shadow sits on the solver's warm path: a warm solution
    perturbed before the solver sees it is caught."""
    def perturbed(lp, model):
        solution = warm_solve(lp, model)
        if solution is not None:
            solution[np.argmax(solution)] += 1.0
        return solution

    monkeypatch.setattr(conftest, "_warm_solve", perturbed)
    solver = EpochSolver()
    problem = chain_problem(west_rps=700.0)
    solver.solve(problem)
    problem.workloads["default"].demand["west"] = 650.0
    with pytest.raises(InvariantViolation, match="diverges from cold"):
        solver.solve(problem)


def test_warm_epoch_on_randomized_instance():
    """Shadow-checked warm solve on a non-round synthetic instance."""
    solver = EpochSolver()
    problem = synthetic_te_problem(6, 4, 3, seed=9)
    solver.solve(problem)
    for workload in problem.workloads.values():
        for cluster in workload.demand:
            workload.demand[cluster] *= 1.07
    result = solver.solve(problem)
    assert result.ok and result.warm_build


def test_shadow_invariant_accepts_another_vertex_of_a_tied_optimum():
    """Two identical clusters whose WAN hop costs what a local hop does
    (the 0.25 ms intra-cluster delay), at a demand that keeps every pool on
    its first delay chord: every split that serves the demand costs the
    same. The hot start stays near the previous epoch's basis while the
    cold solve picks its own vertex of that face, and the shadow must not
    call that divergence."""
    solver = EpochSolver(formulation="path")
    problem = chain_problem(latency_ms=0.25)
    solver.solve(problem)
    previous = solver._previous
    lp = previous.lp
    problem.workloads["default"].demand["west"] = 61.0
    problem.workloads["default"].demand["east"] = 9.7
    model = previous.snapshot.instantiate(problem)
    cold_x = highs_solve(model)
    warm_x = warm_solve(lp, model)
    # another vertex, at the same cost
    assert float(np.abs(warm_x - cold_x).max()) > 1.0
    assert model.objective @ warm_x == pytest.approx(
        model.objective @ cold_x, rel=1e-12)
    check_warm_against_cold(model, warm_x)
    # an infeasible point at the same objective is still a violation
    shifted = warm_x.copy()
    shifted[:2] += (1.0, -1.0)
    shifted[np.argmax(shifted)] *= 4.0
    with pytest.raises(InvariantViolation):
        check_warm_against_cold(model, shifted)


#: arc churns on ``sparse_problem()``'s instance with demand at every
#: cluster
CHURN_PROBLEMS = {
    "arc": lambda: synthetic_te_problem(6, 3, 3, seed=5, replication=0.7),
    "path": sparse_problem,
}


@pytest.mark.parametrize("formulation", ["arc", "path"])
def test_replica_churn_is_a_warm_epoch(formulation):
    """One replica count toggled per epoch: after the first epoch every
    build is warm and every solve warm-started, each shadowed by a cold
    solve of the full model and matching a cacheless cold solver."""
    solver = EpochSolver(formulation=formulation)
    reference = EpochSolver(cache=None, warm_start=False,
                            formulation=formulation)
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


@pytest.mark.parametrize("build", [build_model, build_path_model])
def test_a_problem_without_pools_has_no_count_slots(build):
    problem = TEProblem(clusters=["west", "east"],
                        latency=two_region_latency(25.0),
                        pricing=EgressPricing(), replicas={}, workloads={})
    assert build(problem).snapshot.counts == {}


@pytest.mark.parametrize("formulation", ["arc", "path"])
def test_a_shrink_below_the_previous_support_is_hot_started(formulation):
    """``b`` drops to one replica: ``a`` and ``b`` together can no longer
    carry the demand, so the previous optimal basis (which never used
    ``c``) turns primal infeasible. Dual simplex repairs it from there: the
    epoch is a hot start that spills onto ``c``, at the cold objective."""
    solver = EpochSolver(formulation=formulation)
    problem = spill_problem()
    before = solver.solve(problem)
    assert before.flows.get(("default", INGRESS_EDGE, "a", "c"), 0.0) == 0.0
    problem.replicas[("S1", "b")] = 1
    after = solver.solve(problem)
    assert after.ok and after.warm_build and after.warm_start
    assert solver.stats()["warm_rejects"] == 0
    assert after.flows[("default", INGRESS_EDGE, "a", "c")] > 0.0
    assert after.objective == pytest.approx(EpochSolver(
        cache=None, warm_start=False,
        formulation=formulation).solve(problem).objective, rel=1e-12)


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
