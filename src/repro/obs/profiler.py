"""Control-plane profiler: where the *wall* time goes.

The one observability component that intentionally reads a wall clock.
Simulated components must never do that (lint rule D02), but the control
plane's own compute cost is real wall time. The harness wraps its
``initial-plan`` and each ``epoch`` in a section; the optimizer inside
them is not timed again here — ``EpochSolver`` keeps its own build and
solve totals, which :mod:`repro.obs.collect` reads.

This module lives in ``repro.obs`` (outside the deterministic dirs) and
never feeds results back into simulated behaviour, so profiling a run
cannot change its outcome.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = ["ControlPlaneProfiler", "SectionStats"]


@dataclass
class SectionStats:
    """Aggregate wall-time stats for one named profiler section."""

    count: int = 0
    total: float = 0.0
    max: float = 0.0

    def add(self, elapsed: float) -> None:
        self.count += 1
        self.total += elapsed
        if elapsed > self.max:
            self.max = elapsed

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class ControlPlaneProfiler:
    """Wall-clock section timer for controller/solver work.

    >>> profiler = ControlPlaneProfiler()
    >>> with profiler.section("epoch"):
    ...     pass   # plan, distribute, ...
    """

    def __init__(self) -> None:
        self._sections: dict[str, SectionStats] = {}

    @contextmanager
    def section(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            stats = self._sections.get(name)
            if stats is None:
                stats = self._sections[name] = SectionStats()
            stats.add(elapsed)

    def stats(self, name: str) -> SectionStats | None:
        return self._sections.get(name)

    def section_names(self) -> list[str]:
        return sorted(self._sections)

    def summary(self) -> dict:
        """JSON-friendly per-section count/total/mean/max summary."""
        return {
            name: {
                "count": stats.count,
                "total_s": stats.total,
                "mean_s": stats.mean,
                "max_s": stats.max,
            }
            for name, stats in sorted(self._sections.items())
        }
