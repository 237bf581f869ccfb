"""Content-addressed solver memoization.

Adaptive controllers re-plan every epoch, and under steady demand the
assembled :class:`~repro.core.optimizer.model.LinearModel` is frequently
*identical* between epochs (and between sweep points that share a
configuration). Solving an identical model twice is pure waste — GATE-style
arguments apply: optimization speed is itself a TE scaling bottleneck.

:class:`SolverCache` memoizes solutions keyed by a canonical SHA-256
fingerprint of the numeric model content (objective, constraint matrices,
right-hand sides, bounds). Only the raw solution vector and solver status are
cached — never the extracted :class:`OptimizationResult` — so a hit is
re-extracted against the *current* model and its variable identities; two
models with identical matrices but different cluster/service names still
receive correctly-named results.

The cache is bounded (LRU eviction) and keeps hit/miss counters that
:meth:`EpochSolver.solve <repro.core.optimizer.warm.EpochSolver.solve>`
— the one place that replays it — surfaces on each
:class:`OptimizationResult`.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

import numpy as np
from scipy import sparse

from .model import LinearModel

__all__ = ["BoundedLRU", "SolverCache", "model_fingerprint",
           "DEFAULT_CACHE_SIZE"]

#: default LRU bound — an adaptive controller alternating between a handful
#: of quantized demand levels fits comfortably; the memory cost is one
#: solution vector per entry
DEFAULT_CACHE_SIZE = 64


def _hash_array(hasher, array: np.ndarray) -> None:
    data = np.ascontiguousarray(array)
    # length + dtype prefixes keep distinct component sequences from
    # concatenating to the same byte stream
    hasher.update(str(data.shape).encode())
    hasher.update(data.dtype.str.encode())
    hasher.update(data.tobytes())


def _hash_sparse(hasher, matrix: sparse.csr_matrix) -> None:
    canonical = matrix.tocsr().copy()
    canonical.sum_duplicates()
    canonical.sort_indices()
    hasher.update(str(canonical.shape).encode())
    _hash_array(hasher, canonical.indptr)
    _hash_array(hasher, canonical.indices)
    _hash_array(hasher, canonical.data)


def _hash_components(hasher, components) -> None:
    for component in components:
        if sparse.issparse(component):
            _hash_sparse(hasher, component)
        else:
            _hash_array(hasher, component)


def model_fingerprint(model: LinearModel) -> str:
    """Canonical content hash of a model's numeric payload.

    Two models share a fingerprint iff their objective, constraint
    matrices (in canonical CSR form), right-hand sides and variable bounds
    are byte-identical — exactly the inputs the solver sees, so equal
    fingerprints imply equal solution vectors.

    The leading components a model shares with its structure — objective,
    ``a_ub``, ``b_ub``, ``a_eq``; demand lives in ``b_eq`` and the flow
    bounds — are hashed once per structure and replica counts: their
    SHA-256 state is kept on ``model.tables`` (which a count change
    replaces, so a refreshed model never resumes from a stale prefix) and
    every later fingerprint resumes from a copy of it, which yields the
    same digest as hashing all six components afresh.
    """
    tables = model.tables
    if tables.hash_prefix is None:
        tables.hash_prefix = hashlib.sha256()
        _hash_components(tables.hash_prefix, (
            model.objective, model.a_ub, model.b_ub, model.a_eq))
    hasher = tables.hash_prefix.copy()
    _hash_components(hasher, (model.b_eq, model.upper_bounds))
    return hasher.hexdigest()


class BoundedLRU:
    """Bounded least-recently-used map with hit/miss counters: the one
    store behind :class:`SolverCache` and the builders' ``StructureCache``.
    """

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0 when never queried)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def _lookup(self, key, usable=None):
        """The entry under ``key``, counted as a hit and made most recent;
        None — a miss — when absent or rejected by ``usable(entry)``."""
        entry = self._entries.get(key)
        if entry is None or (usable is not None and not usable(entry)):
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return entry

    def _store(self, key, entry) -> None:
        """Insert ``entry``, evicting the least-recently-used one once the
        size bound is exceeded."""
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop all entries (counters are kept)."""
        self._entries.clear()

    def stats(self) -> dict:
        """Counters in a JSON-friendly shape (for BENCH_*.json exports)."""
        return {"hits": self.hits, "misses": self.misses,
                "hit_rate": self.hit_rate, "entries": len(self._entries)}

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(entries={len(self._entries)}/"
                f"{self.maxsize}, hits={self.hits}, misses={self.misses})")


class SolverCache(BoundedLRU):
    """Bounded LRU cache of solved model solution vectors.

    >>> cache = SolverCache(maxsize=2)
    >>> cache.stats()
    {'hits': 0, 'misses': 0, 'hit_rate': 0.0, 'entries': 0}
    """

    def __init__(self, maxsize: int = DEFAULT_CACHE_SIZE) -> None:
        super().__init__(maxsize)

    def lookup(self, fingerprint: str) -> tuple[np.ndarray, str] | None:
        """Return ``(solution_vector, status)`` for a known model, else None.

        The returned vector is a copy, so callers cannot corrupt the
        cached entry.
        """
        entry = self._lookup(fingerprint)
        if entry is None:
            return None
        solution, status = entry
        return solution.copy(), status

    def store(self, fingerprint: str, solution: np.ndarray,
              status: str) -> None:
        """Insert a copy of a solved model's solution vector."""
        self._store(fingerprint, (np.array(solution, copy=True), status))
