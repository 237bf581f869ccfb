"""Learning latency profiles from telemetry (§5 "Latency prediction").

The paper argues profiles should be learned "dynamically in production,
rather than profiling offline". Two estimators are provided:

* :func:`service_time_from_window` — when proxies can measure pure compute
  time per span (response time minus downstream time), the per-class service
  time is just the telemetry mean. This is the production path.
* :func:`fit_mmc_service_time` — when only (arrival rate, mean sojourn)
  pairs are observable, invert the M/M/c sojourn curve by least squares over
  the single unknown ``service_time``. Used when compute time is opaque.

Both feed the optimizer's per-(service, class) compute demands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ...mesh.telemetry import ServiceClassWindow
from .mm1 import mmc_sojourn

__all__ = ["LoadLatencySample", "service_time_from_window",
           "fit_mmc_service_time", "FitResult"]


@dataclass(frozen=True)
class LoadLatencySample:
    """One observation: arrival rate (req/s) and mean sojourn (s)."""

    arrival_rate: float
    mean_sojourn: float

    def __post_init__(self) -> None:
        if self.arrival_rate < 0 or self.mean_sojourn < 0:
            raise ValueError(f"negative sample: {self}")


@dataclass(frozen=True)
class FitResult:
    """Outcome of a least-squares service-time fit."""

    service_time: float
    residual: float
    n_samples: int


def service_time_from_window(window: ServiceClassWindow) -> float | None:
    """Mean observed compute time for a (service, class) window.

    Returns ``None`` when the window cannot give an estimate: it has no
    completions, or its mean compute time is NaN, infinite or negative
    (corrupt telemetry, which would otherwise stick in the profile's EWMA).
    """
    if window.completions == 0:
        return None
    mean = window.mean_exec
    if not math.isfinite(mean) or mean < 0:
        return None
    return mean


def fit_mmc_service_time(samples: list[LoadLatencySample], servers: int,
                         min_samples: int = 3) -> FitResult:
    """Fit the M/M/c mean-sojourn curve ``W(λ; st)`` to observations.

    The single parameter is the mean service time ``st``. The search domain
    keeps every sample in the stable region (``λ · st < servers``).
    """
    if servers < 1:
        raise ValueError(f"servers must be >= 1, got {servers}")
    usable = [s for s in samples if s.arrival_rate > 0 and s.mean_sojourn > 0]
    if len(usable) < min_samples:
        raise ValueError(
            f"need at least {min_samples} positive samples, got {len(usable)}")

    max_rate = max(s.arrival_rate for s in usable)
    st_upper = 0.999 * servers / max_rate
    # the sojourn can never be below the service time, so the smallest
    # observed sojourn bounds st from above as well
    st_upper = min(st_upper, min(s.mean_sojourn for s in usable))
    st_lower = 1e-9
    if st_upper <= st_lower:
        raise ValueError("samples admit no stable service time")

    def loss(st: float) -> float:
        total = 0.0
        for sample in usable:
            predicted = mmc_sojourn(sample.arrival_rate, st, servers)
            if not math.isfinite(predicted):
                return 1e18
            total += (predicted - sample.mean_sojourn) ** 2
        return total

    # imported here: scipy.optimize's minimisers are most of start-up, and
    # nothing on a run's path fits a profile
    from scipy import optimize

    outcome = optimize.minimize_scalar(
        loss, bounds=(st_lower, st_upper), method="bounded")
    st = float(outcome.x)
    return FitResult(service_time=st, residual=float(loss(st)),
                     n_samples=len(usable))
