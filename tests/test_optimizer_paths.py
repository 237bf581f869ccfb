"""Path-based formulation: candidates, the latency LP, pruning, caching."""

import pytest

from repro.core.optimizer import (EpochSolver, TEProblem, build_model,
                                  build_path_model, candidate_paths)
from repro.core.optimizer.cache import model_fingerprint
from repro.core.optimizer.paths import candidate_clusters, extract_path_result
from repro.core.optimizer.solve import highs_solve, solve
from repro.experiments.scenarios import synthetic_te_problem
from repro.sim import (DemandMatrix, DeploymentSpec, LatencyMatrix,
                       linear_chain_app)
from tests.test_optimizer import chain_problem


def path_solve(problem, **kwargs):
    model = build_path_model(problem, **kwargs)
    return extract_path_result(model, highs_solve(model), "optimal", 0.0)


def six_cluster_latency():
    """Two geographic bundles of three clusters each, far apart."""
    names = ["e0", "e1", "e2", "w0", "w1", "w2"]
    delays = {}
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            same_coast = a[0] == b[0]
            delays[(a, b)] = 0.002 if same_coast else 0.040
    return LatencyMatrix(names, delays)


def two_bundle_problem():
    """A 3-service chain on six clusters; the heavy west bundle must
    offload."""
    app = linear_chain_app(n_services=3, exec_time=0.010)
    latency = six_cluster_latency()
    deployment = DeploymentSpec.uniform(app.services(),
                                        list(latency.clusters), replicas=4,
                                        latency=latency)
    demand = DemandMatrix()
    for cluster in latency.clusters:
        demand.set("default", cluster,
                   330.0 if cluster.startswith("w") else 80.0)
    return TEProblem.from_specs(app, deployment, demand)


class TestCandidates:
    def test_deterministic(self):
        problem = synthetic_te_problem(8, 3, 2, seed=3)
        first = candidate_paths(problem, "class0", "c000", k=4)
        second = candidate_paths(problem, "class0", "c000", k=4)
        assert first == second

    def test_best_candidate_leads(self):
        problem = chain_problem()
        cands = candidate_paths(problem, "default", "west", k=4)
        assert cands[0].score == min(c.score for c in cands)

    def test_candidates_are_distinct_and_diverse(self):
        problem = synthetic_te_problem(10, 3, 2, seed=3)
        cands = candidate_paths(problem, "class0", "c000", k=4)
        assert len({c.assignment for c in cands}) == len(cands)
        root_clusters = {dict(c.assignment)["svc0"] for c in cands}
        # penalized walks must spread the root service across clusters
        assert len(root_clusters) >= 3

    def test_k_validation(self):
        with pytest.raises(ValueError, match="k must be"):
            candidate_paths(chain_problem(), "default", "west", k=0)

    def test_prune_limit_caps_candidate_clusters(self):
        problem = synthetic_te_problem(10, 3, 2, seed=3)
        ranked = candidate_clusters(problem.latency,
                                    problem.deployed_in("svc0"),
                                    "c000", 3)
        assert len(ranked) == 3
        assert ranked == sorted(
            ranked, key=lambda c: (problem.latency.one_way("c000", c), c))
        everyone = candidate_clusters(problem.latency,
                                      problem.deployed_in("svc0"),
                                      "c000", None)
        assert set(ranked) <= set(everyone)
        with pytest.raises(ValueError, match="limit"):
            candidate_clusters(problem.latency, everyone, "c000", 0)

    def test_limit_checked_before_the_short_circuit(self):
        """Regression: with nothing deployed, ``limit=0`` used to return
        ``[]`` instead of raising."""
        latency = six_cluster_latency()
        with pytest.raises(ValueError, match="limit"):
            candidate_clusters(latency, [], "e0", 0)
        assert candidate_clusters(latency, [], "e0", 1) == []


class TestObjectives:
    def test_latency_objective_matches_arc(self):
        problem = chain_problem()
        arc = solve(problem)
        path = path_solve(problem, k=4)
        assert abs(arc.objective - path.objective) <= 1e-9

    def test_every_embedding_reaches_the_arc_optimum(self):
        """At ``k`` = every embedding (6 clusters ^ 3 services), unpruned,
        the path LP is exact: it matches the arc optimum."""
        problem = two_bundle_problem()
        arc = solve(problem)
        path = path_solve(problem, k=6 ** 3)
        assert path.n_variables - 2 * len(problem.pools()) == 6 * 6 ** 3
        assert abs(path.objective - arc.objective) <= 1e-9 * abs(
            arc.objective)
        for rule in path.rules():
            assert rule.src_cluster in problem.clusters
            assert set(rule.weight_map()) <= set(
                problem.deployed_in(rule.service))


class TestStructureReuse:
    def test_cache_hit_shares_arrays(self):
        problem = synthetic_te_problem(6, 3, 2, seed=5)
        first = build_path_model(problem)
        for workload in problem.workloads.values():
            for cluster in workload.demand:
                workload.demand[cluster] *= 1.2
        second = first.snapshot.instantiate(problem)
        # shared structure is what the warm-start identity gate keys on
        assert second.a_eq is first.a_eq
        assert second.tables.structure is first.tables.structure

    def test_cache_key_separates_k_and_prune_limit(self):
        problem = synthetic_te_problem(6, 3, 2, seed=5)
        solver = EpochSolver(formulation="path", path_k=2)
        solver.solve(problem)
        assert solver.solve(problem).warm_build
        for k, prune_limit in ((3, None), (2, 3)):
            solver.path_k, solver.path_prune_limit = k, prune_limit
            assert not solver.solve(problem).warm_build
        assert solver.stats()["warm_builds"] == 1

    def test_fingerprint_stable_across_builds(self):
        problem = chain_problem()
        assert (model_fingerprint(build_path_model(problem))
                == model_fingerprint(build_path_model(problem)))


class TestEpochSolverPath:
    def test_path_epoch_solver_warm_epoch(self):
        solver = EpochSolver(formulation="path", path_k=4)
        problem = chain_problem()
        first = solver.solve(problem)
        assert first.ok and not first.warm_start
        problem.workloads["default"].demand["west"] = 620.0
        second = solver.solve(problem)
        assert second.ok and second.warm_build and second.warm_start

    def test_rules_weights_normalized(self):
        result = path_solve(chain_problem(), k=4)
        for rule in result.rules().rules:
            assert abs(sum(w for _, w in rule.weights) - 1.0) <= 1e-9

    def test_pruned_solve_stays_feasible(self):
        problem = synthetic_te_problem(10, 3, 2, seed=3)
        pruned = path_solve(problem, k=4, prune_limit=4)
        full = path_solve(problem, k=4)
        assert pruned.ok and full.ok
        # pruning shrinks the candidate pool, never below feasibility
        assert pruned.objective >= full.objective - 1e-9


def test_arc_model_unaffected_by_path_import():
    """Arc builds stay byte-stable regardless of path machinery."""
    problem = chain_problem()
    before = model_fingerprint(build_model(problem))
    build_path_model(problem)
    assert model_fingerprint(build_model(problem)) == before
