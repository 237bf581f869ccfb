"""Resilience scoring: how well did the system ride out each fault?

A :class:`ResilienceReport` compares a faulted run against its unfaulted
twin (same scenario, same seed, empty plan) and scores every fault
episode on the run's timeline:

* **detection** — seconds from injection until the control plane visibly
  reacted: a Cluster Controller's stale-rule guard tripping, or the first
  fresh ``solved`` re-plan at/after the injection.
* **time-to-recover** — seconds from injection until the sliding-window
  p95 latency is back within ``band`` × the pre-fault baseline p95,
  measured from the fault's scheduled recovery onward (a fallback can
  hold latency down *during* the fault; recovery is about the steady
  state after it clears).
* **requests failed / degraded** while the episode was open.
* run-level **egress-cost overhead** versus the twin.

All inputs are plain sim-time samples, so the report is as deterministic
as the runs it scores.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.stats import nearest_rank
from .inject import FaultRecord

__all__ = ["FaultEpisode", "ResilienceReport", "compute_resilience"]

#: latency samples needed before a window p95 is trusted
_MIN_WINDOW_SAMPLES = 5


@dataclass(frozen=True)
class FaultEpisode:
    """Scores for one fault on the timeline."""

    label: str
    kind: str
    injected_at: float
    recovered_at: float
    #: seconds from injection to the first control-plane reaction
    detection_seconds: float | None
    #: seconds from injection until latency re-entered the baseline band
    recovery_seconds: float | None
    #: p95 of the pre-fault window the band is relative to
    baseline_p95: float | None
    requests_failed: int
    requests_degraded: int
    requests_total: int
    #: seconds from injection until the anomaly engine flagged a followed
    #: series (None when detection is off or nothing fired)
    anomaly_detection_seconds: float | None = None
    #: control-plane detection minus anomaly detection: positive means
    #: the detectors saw the fault before the controller visibly reacted
    anomaly_lead_seconds: float | None = None

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "kind": self.kind,
            "injected_at": self.injected_at,
            "recovered_at": self.recovered_at,
            "detection_seconds": self.detection_seconds,
            "recovery_seconds": self.recovery_seconds,
            "anomaly_detection_seconds": self.anomaly_detection_seconds,
            "anomaly_lead_seconds": self.anomaly_lead_seconds,
            "baseline_p95": self.baseline_p95,
            "requests_failed": self.requests_failed,
            "requests_degraded": self.requests_degraded,
            "requests_total": self.requests_total,
        }


@dataclass
class ResilienceReport:
    """Per-fault episodes plus run-level overhead vs the unfaulted twin."""

    episodes: list[FaultEpisode] = field(default_factory=list)
    faulted_egress_cost: float = 0.0
    baseline_egress_cost: float = 0.0
    band: float = 1.5
    window: float = 2.0

    @property
    def egress_overhead_cost(self) -> float:
        return self.faulted_egress_cost - self.baseline_egress_cost

    @property
    def egress_overhead_ratio(self) -> float:
        if self.baseline_egress_cost <= 0:
            return 0.0
        return self.faulted_egress_cost / self.baseline_egress_cost

    def as_dict(self) -> dict:
        return {
            "episodes": [e.as_dict() for e in self.episodes],
            "faulted_egress_cost": self.faulted_egress_cost,
            "baseline_egress_cost": self.baseline_egress_cost,
            "egress_overhead_cost": self.egress_overhead_cost,
            "egress_overhead_ratio": self.egress_overhead_ratio,
            "band": self.band,
            "window": self.window,
        }

    def render(self) -> str:
        """Fixed-width text table (for the CLI)."""
        header = (f"{'fault':<28} {'inject':>8} {'recover':>8} "
                  f"{'detect(s)':>9} {'anom(s)':>8} {'lead(s)':>8} "
                  f"{'ttr(s)':>8} {'fail':>5} {'degr':>5} {'total':>6}")
        lines = [header, "-" * len(header)]
        for e in self.episodes:
            detect = ("-" if e.detection_seconds is None
                      else f"{e.detection_seconds:.2f}")
            anom = ("-" if e.anomaly_detection_seconds is None
                    else f"{e.anomaly_detection_seconds:.2f}")
            lead = ("-" if e.anomaly_lead_seconds is None
                    else f"{e.anomaly_lead_seconds:+.2f}")
            ttr = ("-" if e.recovery_seconds is None
                   else f"{e.recovery_seconds:.2f}")
            lines.append(
                f"{e.label:<28} {e.injected_at:>8.1f} {e.recovered_at:>8.1f} "
                f"{detect:>9} {anom:>8} {lead:>8} "
                f"{ttr:>8} {e.requests_failed:>5} "
                f"{e.requests_degraded:>5} {e.requests_total:>6}")
        lines.append(
            f"egress cost: faulted={self.faulted_egress_cost:.4f} "
            f"baseline={self.baseline_egress_cost:.4f} "
            f"overhead={self.egress_overhead_cost:+.4f} "
            f"({self.egress_overhead_ratio:.2f}x)")
        return "\n".join(lines)


def compute_resilience(timeline: list[FaultRecord],
                       samples: list[tuple[float, float | None]],
                       baseline_samples: list[tuple[float, float | None]],
                       detection_signals: list[float],
                       faulted_egress_cost: float,
                       baseline_egress_cost: float,
                       *, band: float = 1.5, window: float = 2.0,
                       horizon: float | None = None,
                       anomaly_signals: list[float] | None = None,
                       ) -> ResilienceReport:
    """Score every fault on ``timeline``.

    ``samples`` / ``baseline_samples`` are ``(arrival_time, latency)``
    pairs with ``latency is None`` marking a failed request.
    ``detection_signals`` are sim times at which the control plane
    visibly reacted (fallback trips, fresh re-plans); ``anomaly_signals``
    are sim times at which the streaming anomaly detectors fired (when
    the pillar was enabled) — each episode scores both, plus the lead of
    one over the other. ``horizon`` caps the recovery scan (defaults to
    the last sample's arrival).
    """
    if band < 1.0:
        raise ValueError(f"band must be >= 1.0, got {band}")
    if window <= 0:
        raise ValueError(f"window must be > 0, got {window}")
    signals = sorted(detection_signals)
    anomalies = sorted(anomaly_signals) if anomaly_signals else []
    completed = [(t, lat) for t, lat in samples if lat is not None]
    if horizon is None:
        horizon = max((t for t, _ in samples), default=0.0)
    baseline_all = nearest_rank([lat for _, lat in baseline_samples
                                 if lat is not None], 0.95)
    report = ResilienceReport(band=band, window=window,
                              faulted_egress_cost=faulted_egress_cost,
                              baseline_egress_cost=baseline_egress_cost)
    for record in timeline:
        # baseline band: the pre-fault window of the faulted run itself,
        # falling back to the twin's whole-run p95 early in the run
        pre = [lat for t, lat in completed
               if record.fired_at - window <= t < record.fired_at]
        baseline_p95 = (nearest_rank(pre, 0.95)
                        if len(pre) >= _MIN_WINDOW_SAMPLES else baseline_all)
        detection = None
        for signal in signals:
            if signal >= record.fired_at:
                detection = signal - record.fired_at
                break
        anomaly_detection = None
        for signal in anomalies:
            if signal >= record.fired_at:
                anomaly_detection = signal - record.fired_at
                break
        anomaly_lead = (detection - anomaly_detection
                        if detection is not None
                        and anomaly_detection is not None else None)
        recovery = None
        recovered_until = None
        if baseline_p95 is not None:
            threshold = band * baseline_p95
            start = record.resolved_at
            while start + window <= horizon + window:
                window_lat = [lat for t, lat in completed
                              if start <= t < start + window]
                if (len(window_lat) >= _MIN_WINDOW_SAMPLES
                        and nearest_rank(window_lat, 0.95) <= threshold):
                    recovery = start + window - record.fired_at
                    recovered_until = start + window
                    break
                start += window
        episode_end = (recovered_until if recovered_until is not None
                       else horizon)
        in_episode = [(t, lat) for t, lat in samples
                      if record.fired_at <= t <= episode_end]
        failed = sum(1 for _, lat in in_episode if lat is None)
        degraded = 0
        if baseline_p95 is not None:
            degraded = sum(1 for _, lat in in_episode
                           if lat is not None and lat > band * baseline_p95)
        report.episodes.append(FaultEpisode(
            label=record.label,
            kind=record.kind,
            injected_at=record.fired_at,
            recovered_at=record.resolved_at,
            detection_seconds=detection,
            recovery_seconds=recovery,
            anomaly_detection_seconds=anomaly_detection,
            anomaly_lead_seconds=anomaly_lead,
            baseline_p95=baseline_p95,
            requests_failed=failed,
            requests_degraded=degraded,
            requests_total=len(in_episode),
        ))
    return report
