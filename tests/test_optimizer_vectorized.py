"""Structure reuse in the arc emitter: a cached rebuild is a cold build.

What a cold build must emit is frozen in ``tests/golden/arc_models.json``
(``tests/test_arc_model_golden.py``).
"""

import numpy as np

from repro.core.optimizer import StructureCache, build_model
from repro.core.optimizer.cache import model_fingerprint
from repro.experiments.scenarios import synthetic_te_problem


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
