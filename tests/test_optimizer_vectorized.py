"""Structure reuse in the arc emitter: an instantiated snapshot is a cold
build.

What a cold build must emit is frozen in ``tests/golden/arc_models.json``
(``tests/test_arc_model_golden.py``).
"""

import numpy as np

from repro.core.optimizer import build_model
from repro.core.optimizer.cache import model_fingerprint
from repro.core.optimizer.vectorized import structure_key
from repro.experiments.scenarios import synthetic_te_problem


def test_structure_cache_rescatter_is_byte_identical():
    """A demand-moved instantiation of the snapshot == a cold build."""
    problem = synthetic_te_problem(6, 4, 3, seed=5)
    snapshot = build_model(problem).snapshot
    for workload in problem.workloads.values():
        for cluster in workload.demand:
            workload.demand[cluster] *= 1.25
    warm = snapshot.instantiate(problem)
    assert warm.snapshot is snapshot
    cold = build_model(problem)
    assert model_fingerprint(warm) == model_fingerprint(cold)
    assert np.array_equal(warm.b_eq, cold.b_eq)


def test_structure_cache_key_is_sparsity_aware():
    """Demand values leave the structure key alone; changing which
    ingresses are active changes it."""
    problem = synthetic_te_problem(6, 4, 3, seed=5)
    key = structure_key(problem)
    workload = next(iter(problem.workloads.values()))
    for cluster in workload.demand:
        workload.demand[cluster] *= 1.5
    assert structure_key(problem) == key
    dropped = next(iter(workload.demand))
    workload.demand[dropped] = 0.0
    assert structure_key(problem) != key
