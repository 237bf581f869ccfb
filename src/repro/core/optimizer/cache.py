"""Canonical content hash of a model's numeric payload.

:func:`model_fingerprint` is a reference digest: the arc-model golden
keys each frozen model on it, and the performance ledger times it. No
solve path reads it.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .model import CsrMatrix, LinearModel

__all__ = ["model_fingerprint"]


def _hash_array(hasher, array: np.ndarray) -> None:
    data = np.ascontiguousarray(array)
    # length + dtype prefixes keep distinct component sequences from
    # concatenating to the same byte stream
    hasher.update(str(data.shape).encode())
    hasher.update(data.dtype.str.encode())
    hasher.update(data.tobytes())


def _hash_csr(hasher, matrix: CsrMatrix) -> None:
    # the builders emit canonical CSR, so its arrays hash as they stand
    hasher.update(str(matrix.shape).encode())
    _hash_array(hasher, matrix.indptr)
    _hash_array(hasher, matrix.indices)
    _hash_array(hasher, matrix.data)


def model_fingerprint(model: LinearModel) -> str:
    """SHA-256 of a model's objective, constraint matrices (in canonical
    CSR form), right-hand sides and variable bounds.

    Two models share a fingerprint iff those six components — exactly
    the inputs the solver sees — are byte-identical.
    """
    hasher = hashlib.sha256()
    for component in (model.objective, model.a_ub, model.b_ub, model.a_eq,
                      model.b_eq, model.upper_bounds):
        if isinstance(component, CsrMatrix):
            _hash_csr(hasher, component)
        else:
            _hash_array(hasher, component)
    return hasher.hexdigest()
