"""Workload generation: open-loop request arrivals per class and cluster.

Demands are expressed as a :class:`DemandMatrix` — requests/second of each
traffic class arriving at each cluster's ingress gateway, the ``d[k,i]`` of
the optimizer. Sources are *open loop* (arrivals do not wait for earlier
responses), matching the paper's RPS-controlled load generation.

Time-varying load (ramps, microbursts — §5 "fast reaction") is supported via
piecewise-constant rate profiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .engine import Simulator
from .request import Request, RequestAttributes, new_request_id

__all__ = ["DemandMatrix", "RateSegment", "RateProfile", "TrafficSource",
           "check_demand_names"]


class DemandMatrix:
    """Requests/second per (traffic class, ingress cluster)."""

    def __init__(self, entries: dict[tuple[str, str], float] | None = None) -> None:
        self._entries: dict[tuple[str, str], float] = {}
        for (cls, cluster), rps in (entries or {}).items():
            self.set(cls, cluster, rps)

    def set(self, traffic_class: str, cluster: str, rps: float) -> None:
        if rps < 0:
            raise ValueError(f"demand must be >= 0, got {rps}")
        if rps == 0:
            self._entries.pop((traffic_class, cluster), None)
        else:
            self._entries[(traffic_class, cluster)] = rps

    def rps(self, traffic_class: str, cluster: str) -> float:
        return self._entries.get((traffic_class, cluster), 0.0)

    def items(self) -> list[tuple[str, str, float]]:
        """(class, cluster, rps) triples, deterministic order."""
        return sorted((cls, cluster, rps)
                      for (cls, cluster), rps in self._entries.items())

    def total_rps(self) -> float:
        return sum(self._entries.values())

    def cluster_rps(self, cluster: str) -> float:
        return sum(rps for (_, c), rps in self._entries.items()
                   if c == cluster)

    def classes(self) -> list[str]:
        return sorted({cls for (cls, _) in self._entries})

    def clusters(self) -> list[str]:
        return sorted({cluster for (_, cluster) in self._entries})

    def scaled(self, factor: float) -> "DemandMatrix":
        if factor < 0:
            raise ValueError("scale factor must be >= 0")
        return DemandMatrix({key: rps * factor
                             for key, rps in self._entries.items()})

    def __repr__(self) -> str:
        return f"DemandMatrix({self._entries!r})"


def check_demand_names(entries, classes, clusters) -> None:
    """Reject demand for a traffic class or cluster the mesh does not have.

    ``entries`` are (class, cluster) pairs; the first unknown name in
    sorted order raises :class:`ValueError`.
    """
    for cls, cluster in sorted(entries):
        if cls not in classes:
            raise ValueError(
                f"demand references unknown traffic class {cls!r}")
        if cluster not in clusters:
            raise ValueError(
                f"demand references unknown cluster {cluster!r}")


@dataclass(frozen=True)
class RateSegment:
    """Constant arrival rate over ``[start, end)`` seconds."""

    start: float
    end: float
    rps: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(f"empty segment [{self.start}, {self.end})")
        if self.rps < 0:
            raise ValueError(f"negative rate {self.rps}")


class RateProfile:
    """A piecewise-constant arrival-rate schedule."""

    def __init__(self, segments: list[RateSegment]) -> None:
        if not segments:
            raise ValueError("profile needs at least one segment")
        ordered = sorted(segments, key=lambda s: s.start)
        for prev, cur in zip(ordered, ordered[1:]):
            if cur.start < prev.end:
                raise ValueError(
                    f"overlapping segments: [{prev.start},{prev.end}) and "
                    f"[{cur.start},{cur.end})")
        self.segments = ordered

    @staticmethod
    def constant(rps: float, duration: float) -> "RateProfile":
        return RateProfile([RateSegment(0.0, duration, rps)])

    @property
    def end(self) -> float:
        return self.segments[-1].end

    def segment_at(self, time: float) -> RateSegment | None:
        for segment in self.segments:
            if segment.start <= time < segment.end:
                return segment
            if segment.start > time:
                # gap before this segment: arrivals resume at segment.start
                return RateSegment(time, segment.start, 0.0)
        return None


class TrafficSource:
    """Open-loop arrival process for one (class, cluster) demand entry.

    Inter-arrival times are exponential (Poisson process) by default, or
    deterministic for variance-free microbenchmarks. Rate changes at segment
    boundaries are handled by restarting the draw at the boundary, which is
    exact for Poisson processes (memorylessness).
    """

    def __init__(self, sim: Simulator, profile: RateProfile,
                 attributes: RequestAttributes, ingress_cluster: str,
                 accept: Callable[[Request], None],
                 rng: np.random.Generator,
                 deterministic: bool = False,
                 request_ids: Callable[[], int] | None = None) -> None:
        self._sim = sim
        self._profile = profile
        self._attributes = attributes
        self._cluster = ingress_cluster
        self._accept = accept
        self._rng = rng
        self._deterministic = deterministic
        self._request_ids = request_ids or new_request_id
        self.generated = 0

    def start(self) -> None:
        """Begin scheduling arrivals from virtual time 0."""
        self._schedule_next(self._sim.now)

    def _schedule_next(self, now: float) -> None:
        segment = self._profile.segment_at(now)
        while segment is not None:
            if segment.rps <= 0:
                now = segment.end
                segment = self._profile.segment_at(now)
                continue
            gap = (1.0 / segment.rps if self._deterministic
                   else self._rng.exponential(1.0 / segment.rps))
            arrival = now + gap
            if arrival < segment.end:
                self._sim.schedule_at(arrival, self._emit, arrival)
                return
            # the draw crossed the boundary: restart from the next segment
            now = segment.end
            segment = self._profile.segment_at(now)

    def _emit(self, arrival: float) -> None:
        request = Request(
            request_id=self._request_ids(),
            attributes=self._attributes,
            ingress_cluster=self._cluster,
            arrival_time=arrival,
        )
        self.generated += 1
        self._accept(request)
        self._schedule_next(arrival)
