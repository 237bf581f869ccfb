"""Time-varying workloads: demand timelines, diurnal curves, CSV traces.

The paper's evaluation drives constant RPS per scenario, but its §5
motivation (microbursts, load imbalance "for hours or longer") is about
demand that *moves*. This module provides:

* :class:`DemandTimeline` — piecewise-constant demand keyframes, the
  general representation every generator lowers to;
* :func:`diurnal_timeline` — the classic day/night sinusoid, phase-shifted
  per cluster (the usual source of long-lived cross-region imbalance);
* :func:`load_demand_csv` / :func:`save_demand_csv` — a plain-text trace
  format (``time,class,cluster,rps``) so recorded production demand can be
  played back (we have no production traces; the CSV path plus the synthetic
  generators is the substitution, see DESIGN.md §4);
* :func:`install_timeline` — attach the whole thing to a running
  :class:`~repro.sim.runner.MeshSimulation`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

from .workload import DemandMatrix, RateProfile, RateSegment, TrafficSource

__all__ = ["DemandTimeline", "diurnal_timeline", "load_demand_csv",
           "save_demand_csv", "install_timeline"]


@dataclass
class DemandTimeline:
    """Piecewise-constant demand: keyframes of (start time, demand matrix).

    Each keyframe's demand holds until the next keyframe; the timeline ends
    at ``end`` (no arrivals after it).
    """

    keyframes: list[tuple[float, DemandMatrix]] = field(default_factory=list)
    end: float = 0.0

    def __post_init__(self) -> None:
        times = [t for t, _ in self.keyframes]
        # NaN fails every comparison, so the order checks below pass it
        if not all(math.isfinite(t) for t in times):
            raise ValueError(f"keyframe times must be finite, got {times}")
        if not math.isfinite(self.end):
            raise ValueError(f"end must be finite, got {self.end}")
        if times != sorted(times):
            raise ValueError("keyframes must be time-ordered")
        if len(set(times)) != len(times):
            raise ValueError("duplicate keyframe times")
        if self.keyframes and self.end <= self.keyframes[-1][0]:
            raise ValueError("end must be after the last keyframe")

    @staticmethod
    def constant(demand: DemandMatrix, duration: float) -> "DemandTimeline":
        return DemandTimeline(keyframes=[(0.0, demand)], end=duration)

    def entries(self) -> set[tuple[str, str]]:
        """All (class, cluster) pairs with demand at any time."""
        return {(cls, cluster)
                for _, demand in self.keyframes
                for cls, cluster, _ in demand.items()}

    def demand_at(self, time: float) -> DemandMatrix:
        """The demand matrix in effect at ``time``."""
        current = DemandMatrix()
        for start, demand in self.keyframes:
            if start > time:
                break
            current = demand
        return current

    def profile_for(self, traffic_class: str, cluster: str) -> RateProfile:
        """The rate profile one (class, cluster) source should follow."""
        segments: list[RateSegment] = []
        for index, (start, demand) in enumerate(self.keyframes):
            stop = (self.keyframes[index + 1][0]
                    if index + 1 < len(self.keyframes) else self.end)
            rps = demand.rps(traffic_class, cluster)
            if rps > 0 and stop > start:
                segments.append(RateSegment(start, stop, rps))
        if not segments:
            # a silent source: one zero-rate segment keeps RateProfile valid
            segments = [RateSegment(0.0, self.end, 0.0)]
        return RateProfile(segments)

    def peak_total_rps(self) -> float:
        return max((demand.total_rps() for _, demand in self.keyframes),
                   default=0.0)


def diurnal_timeline(base: DemandMatrix, duration: float,
                     period: float = 86_400.0, amplitude: float = 0.5,
                     phase_by_cluster: dict[str, float] | None = None,
                     steps_per_period: int = 24) -> DemandTimeline:
    """A day/night sinusoid around ``base``: rate x (1 + A sin(...)).

    ``phase_by_cluster`` shifts each cluster's peak (radians) — opposite
    phases recreate the follow-the-sun imbalance that §2's survey
    respondents report lasting "hours or longer".
    """
    if not 0 <= amplitude < 1:
        raise ValueError(f"amplitude must be in [0, 1), got {amplitude}")
    # a non-positive period never advances the keyframe clock, and an
    # infinite duration is never reached
    if not (math.isfinite(period) and period > 0):
        raise ValueError(f"period must be finite and > 0, got {period}")
    if not math.isfinite(duration):
        raise ValueError(f"duration must be finite, got {duration}")
    if steps_per_period < 2:
        raise ValueError("need at least 2 steps per period")
    phases = phase_by_cluster or {}
    step = period / steps_per_period
    keyframes = []
    time = 0.0
    while time < duration:
        demand = DemandMatrix()
        for cls, cluster, rps in base.items():
            phase = phases.get(cluster, 0.0)
            factor = 1.0 + amplitude * math.sin(
                2 * math.pi * time / period + phase)
            demand.set(cls, cluster, rps * factor)
        keyframes.append((time, demand))
        time += step
    return DemandTimeline(keyframes=keyframes, end=duration)


def save_demand_csv(timeline: DemandTimeline, path: str | Path) -> None:
    """Write a timeline as ``time,class,cluster,rps`` rows."""
    # save/load pair for demand traces: the CSV is the artifact (D08)
    with open(path, "w", newline="",   # lint: ignore[D08]
              encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time", "class", "cluster", "rps"])
        for start, demand in timeline.keyframes:
            for cls, cluster, rps in demand.items():
                writer.writerow([start, cls, cluster, rps])
        writer.writerow([timeline.end, "", "", ""])   # end marker


def load_demand_csv(path: str | Path) -> DemandTimeline:
    """Read a timeline written by :func:`save_demand_csv` (or by hand)."""
    frames: dict[float, DemandMatrix] = {}
    end = 0.0
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        for row in reader:
            time = float(row["time"])
            if not row["class"]:
                end = max(end, time)
                continue
            frames.setdefault(time, DemandMatrix()).set(
                row["class"], row["cluster"], float(row["rps"]))
            end = max(end, time)
    keyframes = sorted(frames.items())
    if not keyframes:
        raise ValueError(f"no demand rows in {path}")
    if end <= keyframes[-1][0]:
        raise ValueError(f"{path}: missing or invalid end marker")
    return DemandTimeline(keyframes=keyframes, end=end)


def install_timeline(simulation, timeline: DemandTimeline,
                     deterministic: bool = False) -> list[TrafficSource]:
    """Create and start one source per (class, cluster) in the timeline.

    ``simulation`` is a :class:`~repro.sim.runner.MeshSimulation`; after
    installing, drive it with ``simulation.sim.run(until=timeline.end)``
    plus a drain.
    """
    sources = []
    for cls, cluster in sorted(timeline.entries()):
        source = TrafficSource(
            sim=simulation.sim,
            profile=timeline.profile_for(cls, cluster),
            attributes=simulation.app.traffic_class(cls).attributes,
            ingress_cluster=cluster,
            accept=simulation.gateways[cluster].accept,
            rng=simulation.rngs.stream(f"arrivals/{cls}/{cluster}"),
            deterministic=deterministic,
            request_ids=simulation.request_ids,
        )
        source.start()
        sources.append(source)
    return sources
