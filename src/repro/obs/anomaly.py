"""Streaming anomaly detection over scraped series: z-score + CUSUM.

Where :mod:`repro.obs.forecast` asks "where is this series going", this
module asks "did it just do something it never does". Per followed series
(the same latency/demand/queue/egress targets the forecast engine
watches) an :class:`AnomalyEngine` maintains an EWMA one-step predictor
and two online detectors over its residuals:

* **z-score spikes** — residual mean/variance tracked incrementally
  (Welford), an event fires when ``|residual| / sigma`` crosses the
  threshold. Edge-triggered with re-arm: one event per excursion, not one
  per tick, so event counts stay bounded and meaningful.
* **CUSUM changepoints** — two-sided cumulative sums of standardized
  residuals (``S+ = max(0, S+ + z - k)`` and the mirror image) catch
  sustained small shifts a spike detector misses — the "demand drifted
  20% over a minute" signal. Sums reset on firing.

Events land in one record, an :class:`AnomalyLog`: the provenance pillar
polls it to snapshot the flight recorder on each one, and the chaos
harness scores detection lead time against injected fault edges. The
engine reads its series through the same
:class:`~repro.obs.forecast.SeriesFollower` walk as the forecast engine.
Pure reads — no RNG, no mesh access — so enabling detection cannot
perturb a run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from ..forecasting import EwmaForecaster
from .forecast import SeriesFollower, _series_id
from .timeseries import TimeSeriesStore

__all__ = ["DEFAULT_ANOMALY_TARGETS", "AnomalyEngine", "AnomalyEvent",
           "AnomalyLog"]

#: (series name, kind) pairs followed by default — the forecast targets
#: plus the failure/timeout counters chaos faults light up first.
DEFAULT_ANOMALY_TARGETS = (
    ("request_latency_p95", "gauge"),
    ("request_rate_rps", "gauge"),
    ("pool_queue_depth", "gauge"),
    ("wan_egress_cost_dollars_total", "counter"),
    ("gateway_failed_total", "counter"),
    ("calls_timed_out_total", "counter"),
)


@dataclass(frozen=True)
class AnomalyEvent:
    """One detector firing on one series."""

    #: series name, e.g. ``request_latency_p95``
    series: str
    #: label pairs of the offending series, sorted
    labels: tuple
    #: simulated clock when the detector fired
    sim_time: float
    #: ``"zscore"`` (spike) or ``"cusum"`` (changepoint)
    detector: str
    #: observed value at firing time
    value: float
    #: detector statistic at firing: |z| for zscore, the CUSUM sum
    score: float
    #: ``"up"`` or ``"down"``
    direction: str

    @property
    def series_id(self) -> str:
        return _series_id(self.series, self.labels)

    def as_dict(self) -> dict:
        return {
            "series": self.series,
            "labels": dict(self.labels),
            "sim_time": self.sim_time,
            "detector": self.detector,
            "value": self.value,
            "score": self.score,
            "direction": self.direction,
        }


@dataclass
class AnomalyLog:
    """Append-only, sim-time-ordered log of anomaly events for one run."""

    events: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def append(self, event: AnomalyEvent) -> None:
        self.events.append(event)

    def for_series(self, name: str) -> list:
        return [event for event in self.events if event.series == name]

    def times(self) -> list:
        """Event times, ascending (detection-lead scoring input)."""
        return sorted(event.sim_time for event in self.events)

    def to_jsonl_lines(self) -> list:
        return [json.dumps(event.as_dict(), sort_keys=True)
                for event in self.events]

    def render(self) -> str:
        """Fixed-width text table of the log (for the CLI)."""
        header = (f"{'t':>8} {'detector':<9} {'dir':<5} {'score':>7} "
                  f"{'value':>10} series")
        lines = [header, "-" * len(header)]
        for event in self.events:
            lines.append(
                f"{event.sim_time:>8.1f} {event.detector:<9} "
                f"{event.direction:<5} {event.score:>7.2f} "
                f"{event.value:>10.4g} {event.series_id}")
        lines.append(f"events={len(self.events)}")
        return "\n".join(lines)


@dataclass
class _DetectorState:
    """Per-series residual statistics and detector state."""

    #: Welford accumulators over residuals
    count: int = 0
    mean: float = 0.0
    m2: float = 0.0
    #: two-sided CUSUM sums over standardized residuals
    cusum_up: float = 0.0
    cusum_down: float = 0.0
    #: z-score detector armed (re-arms once |z| drops below threshold/2)
    armed: bool = True


class AnomalyEngine:
    """Residual-based detection over followed series, one pass per tick."""

    def __init__(self, store: TimeSeriesStore,
                 targets=DEFAULT_ANOMALY_TARGETS,
                 z_threshold: float = 4.0, min_samples: int = 8,
                 cusum_k: float = 0.5, cusum_h: float = 5.0,
                 ewma_alpha: float = 0.3) -> None:
        if z_threshold <= 0:
            raise ValueError(f"z_threshold must be > 0, got {z_threshold}")
        if min_samples < 2:
            raise ValueError(f"min_samples must be >= 2, got {min_samples}")
        if cusum_k < 0 or cusum_h <= 0:
            raise ValueError("need cusum_k >= 0 and cusum_h > 0")
        self.store = store
        self.follower = SeriesFollower(targets)
        self.z_threshold = z_threshold
        self.min_samples = min_samples
        self.cusum_k = cusum_k
        self.cusum_h = cusum_h
        self.predictor = EwmaForecaster(alpha=ewma_alpha)
        self.log = AnomalyLog()
        self._states: dict = {}
        self.samples = 0

    # ----------------------------------------------------------- sampling

    def sample(self, now: float) -> None:
        """Consume the newest scraped points and run both detectors."""
        for key, observations in self.follower.fresh(self.store):
            for time, observation in observations:
                self._step(key, time, observation)
        self.samples += 1

    def _step(self, key, time: float, value: float) -> None:
        state = self._states.get(key)
        if state is None:
            state = self._states[key] = _DetectorState()
        predicted = (self.predictor.forecast(key)
                     if self.predictor.known(key) else value)
        residual = value - predicted
        self.predictor.observe(key, value)

        # Welford update over residuals
        state.count += 1
        delta = residual - state.mean
        state.mean += delta / state.count
        state.m2 += delta * (residual - state.mean)
        if state.count < self.min_samples:
            return
        variance = state.m2 / (state.count - 1)
        sigma = math.sqrt(variance)
        if sigma <= 0:
            # a perfectly constant residual stream: any deviation at all
            # is infinitely surprising, but also already folded into the
            # stats above; skip rather than divide by zero
            return
        z = (residual - state.mean) / sigma

        # spike detector: edge-triggered with hysteresis re-arm
        if state.armed and abs(z) >= self.z_threshold:
            state.armed = False
            self._fire(key, time, "zscore", value, abs(z),
                       "up" if z > 0 else "down")
        elif not state.armed and abs(z) < self.z_threshold / 2:
            state.armed = True

        # changepoint detector: two-sided CUSUM on standardized residuals
        state.cusum_up = max(0.0, state.cusum_up + z - self.cusum_k)
        state.cusum_down = max(0.0, state.cusum_down - z - self.cusum_k)
        if state.cusum_up > self.cusum_h:
            self._fire(key, time, "cusum", value, state.cusum_up, "up")
            state.cusum_up = 0.0
        if state.cusum_down > self.cusum_h:
            self._fire(key, time, "cusum", value, state.cusum_down,
                       "down")
            state.cusum_down = 0.0

    def _fire(self, key, time: float, detector: str, value: float,
              score: float, direction: str) -> None:
        name, labels = key
        self.log.append(AnomalyEvent(
            series=name, labels=tuple(labels), sim_time=time,
            detector=detector, value=value, score=score,
            direction=direction))

    # ------------------------------------------------------------ queries

    def summary(self) -> dict:
        """JSON-friendly engine state for CLI/export."""
        by_detector: dict[str, int] = {}
        by_series: dict[str, int] = {}
        for event in self.log:
            by_detector[event.detector] = (
                by_detector.get(event.detector, 0) + 1)
            by_series[event.series_id] = by_series.get(event.series_id,
                                                       0) + 1
        return {
            "events": len(self.log),
            "samples": self.samples,
            "followed_series": len(self._states),
            "by_detector": dict(sorted(by_detector.items())),
            "by_series": dict(sorted(by_series.items())),
        }

    def __repr__(self) -> str:
        return (f"AnomalyEngine(series={len(self._states)}, "
                f"events={len(self.log)})")
