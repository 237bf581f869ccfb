"""Alert log: sim-timestamped firing→resolved records from the SLO engine.

Every alert the burn-rate state machine (:mod:`repro.obs.slo`) fires lands
here as an :class:`Alert` with its firing interval in *simulated* seconds —
the same clock the decision log and traces use, so the three can be joined:
:func:`join_alerts_decisions` answers "did the Global Controller re-plan
*while* this SLO was burning?" directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = ["Alert", "AlertLog", "join_alerts_decisions"]


@dataclass
class Alert:
    """One firing (and possibly resolved) SLO violation."""

    rule: str
    kind: str
    fired_at: float
    #: burn rates at the moment the alert fired
    fired_fast_burn: float
    fired_slow_burn: float
    resolved_at: float | None = None
    #: highest fast-window burn rate observed while firing
    peak_burn: float = 0.0
    #: scrape evaluations spent in the firing state
    evaluations: int = 0

    @property
    def active(self) -> bool:
        return self.resolved_at is None

    @property
    def duration(self) -> float | None:
        """Firing interval length; None while still active."""
        if self.resolved_at is None:
            return None
        return self.resolved_at - self.fired_at

    def overlaps(self, time: float) -> bool:
        """True when ``time`` falls inside the firing interval."""
        if time < self.fired_at:
            return False
        return self.resolved_at is None or time <= self.resolved_at

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "kind": self.kind,
            "fired_at": self.fired_at,
            "resolved_at": self.resolved_at,
            "fired_fast_burn": self.fired_fast_burn,
            "fired_slow_burn": self.fired_slow_burn,
            "peak_burn": self.peak_burn,
            "evaluations": self.evaluations,
        }


@dataclass
class AlertLog:
    """Append-only, sim-time-ordered log of alerts for one run."""

    alerts: list[Alert] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.alerts)

    def __iter__(self):
        return iter(self.alerts)

    # ----------------------------------------------------------- recording

    def fire(self, rule: str, kind: str, time: float,
             fast_burn: float, slow_burn: float) -> Alert:
        """Open a new firing alert (called by the SLO state machine)."""
        alert = Alert(rule=rule, kind=kind, fired_at=time,
                      fired_fast_burn=fast_burn, fired_slow_burn=slow_burn,
                      peak_burn=fast_burn, evaluations=1)
        self.alerts.append(alert)
        return alert

    # ------------------------------------------------------------- queries

    def active(self) -> list[Alert]:
        return [alert for alert in self.alerts if alert.active]

    def resolved(self) -> list[Alert]:
        return [alert for alert in self.alerts if not alert.active]

    def for_rule(self, rule: str) -> list[Alert]:
        return [alert for alert in self.alerts if alert.rule == rule]

    def firing_at(self, time: float) -> list[Alert]:
        """Alerts whose firing interval contains ``time``."""
        return [alert for alert in self.alerts if alert.overlaps(time)]

    # ------------------------------------------------------------- exports

    def to_jsonl_lines(self) -> list[str]:
        return [json.dumps(alert.as_dict(), sort_keys=True)
                for alert in self.alerts]

    def render(self) -> str:
        """Fixed-width text table of the log (for the CLI)."""
        header = (f"{'rule':<24} {'kind':<12} {'fired':>8} {'resolved':>9} "
                  f"{'dur':>7} {'peak':>7}")
        lines = [header, "-" * len(header)]
        for alert in self.alerts:
            resolved = ("active" if alert.resolved_at is None
                        else f"{alert.resolved_at:.1f}")
            duration = ("-" if alert.duration is None
                        else f"{alert.duration:.1f}")
            lines.append(
                f"{alert.rule:<24} {alert.kind:<12} {alert.fired_at:>8.1f} "
                f"{resolved:>9} {duration:>7} {alert.peak_burn:>7.2f}")
        lines.append(f"alerts={len(self.alerts)} "
                     f"active={len(self.active())} "
                     f"resolved={len(self.resolved())}")
        return "\n".join(lines)


def join_alerts_decisions(alerts: AlertLog, decisions) -> list[dict]:
    """Join alerts against the Global Controller decision log by sim time.

    For each alert, collect the :class:`~repro.obs.decisions.EpochDecision`
    records whose ``sim_time`` falls inside the alert's firing interval.
    Returns one dict per alert: the alert, the overlapping decisions, and
    how many of those were re-plans on moved demand (solved with
    ``demand_delta > 0``; a plan of unchanged quantized demand reacts to
    nothing) — the "did the controller react *because* the SLO was
    burning" view.
    """
    joined = []
    for alert in alerts:
        overlapping = [decision for decision in decisions
                       if alert.overlaps(decision.sim_time)]
        joined.append({
            "alert": alert,
            "decisions": overlapping,
            "replans": sum(1 for decision in overlapping
                           if decision.outcome == "solved"
                           and decision.demand_delta > 0),
        })
    return joined
