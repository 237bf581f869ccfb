"""Summary statistics for latency samples."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["LatencySummary", "summarize", "slo_attainment",
           "mean_confidence_interval", "nearest_rank"]


@dataclass(frozen=True)
class LatencySummary:
    """The stats the paper's evaluation discusses, in seconds."""

    count: int
    mean: float
    p50: float
    p90: float
    p95: float
    p99: float
    max: float

    def as_ms(self) -> dict[str, float]:
        """Milliseconds rendering (count passed through)."""
        return {
            "count": self.count,
            "mean": self.mean * 1000,
            "p50": self.p50 * 1000,
            "p90": self.p90 * 1000,
            "p95": self.p95 * 1000,
            "p99": self.p99 * 1000,
            "max": self.max * 1000,
        }


def _sample(values) -> np.ndarray:
    """``values`` as a float array; a NaN would turn every statistic
    computed from it into NaN, so it is rejected here."""
    array = np.asarray(list(values), dtype=float)
    if np.isnan(array).any():
        raise ValueError("sample contains NaN")
    return array


def summarize(values) -> LatencySummary:
    """Compute a :class:`LatencySummary` from raw latencies."""
    array = _sample(values)
    if array.size == 0:
        raise ValueError("cannot summarize an empty sample")
    return LatencySummary(
        count=int(array.size),
        mean=float(array.mean()),
        p50=float(np.quantile(array, 0.50)),
        p90=float(np.quantile(array, 0.90)),
        p95=float(np.quantile(array, 0.95)),
        p99=float(np.quantile(array, 0.99)),
        max=float(array.max()),
    )


def nearest_rank(values, q: float) -> float | None:
    """The ``q`` quantile of ``values`` as one of the samples: the sorted
    sample at index ``int(q * n)``, capped at the last; None when empty."""
    if not 0 <= q <= 1:    # also rejects NaN
        raise ValueError(f"q must be in [0, 1], got {q}")
    ordered = sorted(values)
    if not ordered:
        return None
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def slo_attainment(values, threshold: float) -> float:
    """Fraction of requests meeting a latency SLO (latency <= threshold)."""
    if not threshold > 0:    # also rejects NaN
        raise ValueError(f"threshold must be > 0, got {threshold}")
    array = _sample(values)
    if array.size == 0:
        raise ValueError("cannot compute attainment of an empty sample")
    return float((array <= threshold).mean())


def mean_confidence_interval(values, confidence: float = 0.95,
                             ) -> tuple[float, float, float]:
    """(mean, low, high) Student-t CI for the sample mean."""
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    array = _sample(values)
    if array.size < 2:
        raise ValueError("need at least two samples for an interval")
    mean = float(array.mean())
    sem = float(array.std(ddof=1)) / math.sqrt(array.size)
    if sem == 0:
        return mean, mean, mean
    # Student-t quantile, the very call behind scipy.stats.t.ppf (which
    # would import all of scipy.stats for this one number); imported here
    # so that a run, which never asks for an interval, skips scipy.special
    from scipy.special import stdtrit

    margin = float(stdtrit(array.size - 1, (1 + confidence) / 2) * sem)
    return mean, mean - margin, mean + margin
