"""The LP's constraint matrices as the library holds them.

A model's ``a_ub``/``a_eq`` are plain canonical CSR arrays
(:class:`~repro.core.optimizer.model.CsrMatrix`), and the solver seam
stacks them column-wise for HiGHS with numpy. ``scipy.sparse`` is the
reference for both: every builder's arrays must be canonical with the
index dtype scipy would choose, and the arrays HiGHS is handed must be,
entry for entry and in order, what ``scipy.sparse.vstack(..., format=
"csc")`` gave it before.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro.core.optimizer import build_model, build_path_model
from repro.core.optimizer.solve import _stacked_csc
from repro.experiments.scenarios import synthetic_te_problem
from tests.conftest import scipy_csr
from tests.test_arc_model_golden import INSTANCES

#: every arc-golden instance, plus path models: one with many classes and
#: one that groups interchangeable classes
BUILDS = {
    **{f"arc-{name}": (lambda make=make: build_model(make()))
       for name, make in INSTANCES.items()},
    "path-synthetic": lambda: build_path_model(
        synthetic_te_problem(6, 3, 4, seed=5)),
    "path-sparse": lambda: build_path_model(synthetic_te_problem(
        8, 3, 5, seed=4, replication=0.5, ingresses_per_class=2)),
}


def assert_canonical(matrix) -> None:
    """Monotone ``indptr`` spanning every entry, strictly increasing
    columns within each row, in range, and scipy's index dtype."""
    n_rows, n_cols = matrix.shape
    indptr, indices = matrix.indptr, matrix.indices
    assert len(indptr) == n_rows + 1 and indptr[0] == 0
    assert (np.diff(indptr) >= 0).all()
    assert indptr[-1] == len(indices) == len(matrix.data) == matrix.nnz
    assert ((0 <= indices) & (indices < n_cols)).all()
    row_of = np.repeat(np.arange(n_rows), np.diff(indptr))
    same_row = row_of[1:] == row_of[:-1]
    assert (np.diff(indices)[same_row] > 0).all()
    # the dtype scipy picks for a COO -> CSR conversion of these entries
    reference = sparse.coo_matrix(
        (matrix.data, (row_of, indices)), shape=matrix.shape).tocsr()
    assert indices.dtype == indptr.dtype == reference.indices.dtype
    assert reference.indptr.dtype == indptr.dtype
    assert isinstance(n_rows, int) and isinstance(n_cols, int)


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_every_builder_emits_canonical_csr(name):
    model = BUILDS[name]()
    for matrix in (model.a_ub, model.a_eq):
        assert_canonical(matrix)


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_stacked_columns_are_scipys_vstack(name):
    model = BUILDS[name]()
    want = sparse.vstack((scipy_csr(model.a_ub), scipy_csr(model.a_eq)),
                         format="csc")
    start, index, value = _stacked_csc(model)
    np.testing.assert_array_equal(start, want.indptr)
    np.testing.assert_array_equal(index, want.indices)
    assert value.tobytes() == want.data.tobytes()


def test_a_recounted_warm_build_stays_canonical():
    """A replica-count move rewrites chord slopes into fresh ``data`` over
    the snapshot's ``indices``/``indptr``; the stack still matches."""
    problem = synthetic_te_problem(6, 3, 4, seed=5)
    model = build_model(problem)
    pool, replicas, *_ = model.tables.pools[0]
    problem.replicas[pool] = replicas + 2
    warm = model.snapshot.instantiate(problem)
    assert warm.a_ub.data is not model.a_ub.data
    assert warm.a_ub.indices is model.a_ub.indices
    assert_canonical(warm.a_ub)
    want = sparse.vstack((scipy_csr(warm.a_ub), scipy_csr(warm.a_eq)),
                         format="csc")
    assert _stacked_csc(warm)[2].tobytes() == want.data.tobytes()
