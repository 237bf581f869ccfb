"""Declarative fault campaigns: typed, sim-timestamped fault events.

The paper's §5 "Challenges" is about what happens when the things SLATE
depends on degrade: the WAN between clusters, the replicas behind a
service, the telemetry feed, and the Global Controller itself. A
:class:`FaultPlan` declares such a campaign as data — a list of typed
fault events, each with an inject time and a duration — which
:class:`~repro.chaos.inject.ChaosRuntime` compiles into engine-scheduled
inject/recover callbacks against a live
:class:`~repro.sim.runner.MeshSimulation`.

Plans are pure values: building one touches no simulator, no RNG stream
and no global state, so the same plan run again on the same seed yields a
byte-identical run, and the empty plan is indistinguishable from not
using chaos at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["FaultPlan", "WanFault", "ReplicaFault", "TelemetryFault",
           "ControlPlaneOutage"]


# NaN fails every comparison, so both bounds are written to reject it

def _check_non_negative(name: str, value: float) -> None:
    if not 0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


def _check_positive(name: str, value: float) -> None:
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be finite and > 0, got {value}")


def _check_window(start: float, duration: float) -> None:
    _check_non_negative("fault start", start)
    _check_positive("fault duration", duration)


@dataclass(frozen=True)
class WanFault:
    """Degrade (or sever) the WAN link between two clusters.

    The effective one-way delay while injected is
    ``base * multiplier + extra_delay`` plus uniform ``[0, jitter)``
    seconds per transfer; ``partition=True`` additionally blackholes all
    transfers on the pair (no delivery, no egress billing).
    """

    start: float
    duration: float
    src: str
    dst: str
    extra_delay: float = 0.0
    multiplier: float = 1.0
    jitter: float = 0.0
    partition: bool = False

    def __post_init__(self) -> None:
        _check_window(self.start, self.duration)
        if self.src == self.dst:
            raise ValueError(f"WAN fault needs two clusters, got {self.src!r}")
        _check_non_negative("extra_delay", self.extra_delay)
        _check_non_negative("multiplier", self.multiplier)
        _check_non_negative("jitter", self.jitter)

    @property
    def label(self) -> str:
        a, b = sorted((self.src, self.dst))
        kind = "partition" if self.partition else "wan"
        return f"{kind}:{a}<->{b}"


@dataclass(frozen=True)
class ReplicaFault:
    """Capacity fault on one (cluster, service) pool.

    ``crash`` removes that many replicas on inject (never the last one)
    and adds them back on recover; ``slowdown`` multiplies service times
    while injected — the slow-replica / noisy-neighbour mode, strictly
    in between healthy and today's all-or-nothing ``fail_service``.
    """

    start: float
    duration: float
    cluster: str
    service: str
    crash: int = 0
    slowdown: float = 1.0

    def __post_init__(self) -> None:
        _check_window(self.start, self.duration)
        if self.crash < 0:
            raise ValueError(f"crash must be >= 0, got {self.crash}")
        _check_positive("slowdown", self.slowdown)
        if self.crash == 0 and not self.slowdown > 1.0:
            raise ValueError(
                "replica fault must crash replicas and/or slow them down")

    @property
    def label(self) -> str:
        return f"replica:{self.service}@{self.cluster}"


@dataclass(frozen=True)
class TelemetryFault:
    """Drop or delay one cluster's epoch reports before the controller.

    Reports harvested while the fault is active never reach
    ``GlobalController.observe`` (``mode="drop"``) or reach it ``delay``
    sim-seconds late (``mode="delay"``), so the controller plans on stale
    EWMA state — the decision log's ``telemetry_age`` makes this visible.
    """

    start: float
    duration: float
    cluster: str
    mode: str = "drop"
    delay: float = 0.0

    def __post_init__(self) -> None:
        _check_window(self.start, self.duration)
        if self.mode not in ("drop", "delay"):
            raise ValueError(f"mode must be 'drop' or 'delay', got {self.mode!r}")
        if self.mode == "delay":
            _check_positive("delay", self.delay)
        if self.mode == "drop" and self.delay:
            raise ValueError("drop mode takes no delay")

    @property
    def label(self) -> str:
        return f"telemetry-{self.mode}:{self.cluster}"


@dataclass(frozen=True)
class ControlPlaneOutage:
    """The Global Controller is unreachable for the window.

    While active no epoch reports reach it and no rule updates leave it;
    clusters keep whatever rules they last received. Cluster Controllers
    armed with ``max_rule_age`` + a fallback policy detect the staleness
    and fail over to local-first routing (§5), reconciling when the
    controller returns.
    """

    start: float
    duration: float

    def __post_init__(self) -> None:
        _check_window(self.start, self.duration)

    @property
    def label(self) -> str:
        return "controller-outage"


#: every concrete fault type a plan may contain
_FAULT_TYPES = (WanFault, ReplicaFault, TelemetryFault, ControlPlaneOutage)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, time-ordered fault campaign."""

    faults: tuple = ()

    def __post_init__(self) -> None:
        faults = tuple(self.faults)
        for fault in faults:
            if not isinstance(fault, _FAULT_TYPES):
                raise TypeError(f"not a fault event: {fault!r}")
        # stable sort by start keeps declaration order among ties, so
        # compilation (and therefore the run) is reproducible
        object.__setattr__(self, "faults",
                           tuple(sorted(faults, key=lambda f: f.start)))

    @staticmethod
    def empty() -> "FaultPlan":
        return FaultPlan(())

    @property
    def is_empty(self) -> bool:
        return not self.faults

    @property
    def end(self) -> float:
        """Sim time at which the last fault has recovered (0.0 if empty)."""
        return max((f.start + f.duration for f in self.faults), default=0.0)

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def describe(self) -> list[str]:
        """One human-readable line per fault, in injection order."""
        return [f"[{f.start:>7.2f}s +{f.duration:<6.2f}s] {f.label}"
                for f in self.faults]
