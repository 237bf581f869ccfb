"""Property tests: vectorized model builds match the loop reference.

PR 7's vectorized assembly claims byte-identical models — same canonical
fingerprint, same solver input, same extracted results — on every
instance. These tests pin that down on the seed scenarios (the paper
figures' problems) and on randomized synthetic topologies.
"""

import numpy as np
import pytest

from repro.core.optimizer import (StructureCache, TEProblem, build_model,
                                  build_model_loop, solve, solve_model)
from repro.core.optimizer.cache import model_fingerprint
from repro.experiments.scenarios import (fig6a_how_much, fig6b_which_cluster,
                                         fig6c_multihop,
                                         fig6d_traffic_classes,
                                         synthetic_te_problem)


def _figure_problem(setup):
    scenario = setup.scenario
    return TEProblem.from_specs(scenario.app, scenario.deployment,
                                scenario.demand)


def seed_problems():
    """The paper-figure instances plus randomized synthetic ones."""
    cases = [
        ("fig6a", _figure_problem(fig6a_how_much())),
        ("fig6b", _figure_problem(fig6b_which_cluster())),
        ("fig6c", _figure_problem(fig6c_multihop())),
        ("fig6d", _figure_problem(fig6d_traffic_classes())),
    ]
    for seed in (1, 2, 3):
        cases.append((f"synthetic-s{seed}",
                      synthetic_te_problem(6, 4, 3, seed=seed)))
    cases.append(("synthetic-sparse",
                  synthetic_te_problem(8, 3, 5, seed=4, replication=0.5,
                                       ingresses_per_class=2)))
    return cases


@pytest.mark.parametrize("name,problem", seed_problems(),
                         ids=[name for name, _ in seed_problems()])
class TestVectorizedMatchesLoop:
    def test_same_fingerprint(self, name, problem):
        fast = build_model(problem)
        slow = build_model_loop(problem)
        assert model_fingerprint(fast) == model_fingerprint(slow)

    def test_same_result(self, name, problem):
        fast = solve(problem)
        slow = solve_model(build_model_loop(problem))
        assert fast.ok and slow.ok
        assert abs(fast.objective - slow.objective) <= 1e-9
        assert fast.rules().rules == slow.rules().rules


def test_structure_cache_rescatter_is_byte_identical():
    """A demand-moved rebuild through the cache == a cold build."""
    problem = synthetic_te_problem(6, 4, 3, seed=5)
    cache = StructureCache()
    build_model(problem, structure_cache=cache)
    for workload in problem.workloads.values():
        for cluster in workload.demand:
            workload.demand[cluster] *= 1.25
    warm = build_model(problem, structure_cache=cache)
    assert cache.hits == 1
    cold = build_model(problem)
    assert model_fingerprint(warm) == model_fingerprint(cold)
    assert np.array_equal(warm.b_eq, cold.b_eq)


def test_structure_cache_key_is_sparsity_aware():
    """Changing which ingresses are active must miss the cache."""
    problem = synthetic_te_problem(6, 4, 3, seed=5)
    cache = StructureCache()
    build_model(problem, structure_cache=cache)
    workload = next(iter(problem.workloads.values()))
    dropped = next(iter(workload.demand))
    workload.demand[dropped] = 0.0
    build_model(problem, structure_cache=cache)
    assert cache.misses == 2
