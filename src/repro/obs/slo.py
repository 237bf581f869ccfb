"""SLO engine: declarative objectives with multi-window burn-rate alerting.

A :class:`SloRule` states an objective the way production alerting does
(latency-percentile targets, error budgets, egress-cost ceilings); the
:class:`SloEngine` evaluates every rule at each scrape tick against the
time-series store and drives a firing→resolved state machine into the
:class:`~repro.obs.alerts.AlertLog`.

Burn rate follows the multi-window pattern (Google SRE workbook, also what
TraDE's windowed-percentile triggers amount to): the *fraction of the error
budget consumed per unit time*, measured over a fast window (catches sharp
regressions quickly) **and** a slow window (suppresses blips). An alert
fires only when both windows exceed their thresholds and resolves once both
recover — so a diurnal surge that overloads a cluster produces one clean
firing interval instead of a flapping stream.

Rule kinds:

* ``latency`` — budget = allowed fraction of requests slower than
  ``threshold`` seconds. The engine counts each completed request (of the
  selected traffic class) against the threshold as scrapes deliver them.
* ``error-rate`` — budget = allowed fraction of failed requests, measured
  from the cumulative completed/failed counter series.
* ``egress-cost`` — ``threshold`` is a spend ceiling in dollars per
  simulated second; burn = windowed cost rate / ceiling (no budget term).
"""

from __future__ import annotations

from dataclasses import dataclass

from .alerts import Alert, AlertLog
from .timeseries import TimeSeriesStore

__all__ = ["RuleState", "SloEngine", "SloRule", "default_latency_slo"]

_KINDS = ("latency", "error-rate", "egress-cost")

#: avoids division blow-ups on empty windows
_EPSILON = 1e-12


@dataclass(frozen=True)
class SloRule:
    """One declarative objective, evaluated every scrape."""

    name: str
    #: "latency", "error-rate", or "egress-cost"
    kind: str
    #: latency: seconds a request may take; egress-cost: $/sim-second
    #: ceiling; error-rate: unused (the budget alone defines it)
    threshold: float = 0.0
    #: allowed bad fraction (latency / error-rate kinds), e.g. 0.01 = 99%
    budget: float = 0.01
    #: restrict to one traffic class (None = all classes)
    traffic_class: str | None = None
    fast_window: float = 15.0
    slow_window: float = 60.0
    #: burn-rate thresholds per window; both must be exceeded to fire
    fast_burn: float = 4.0
    slow_burn: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown SLO kind {self.kind!r}; "
                             f"choose from {_KINDS}")
        if self.kind != "error-rate" and self.threshold <= 0:
            raise ValueError(f"rule {self.name!r}: threshold must be > 0")
        if self.kind != "egress-cost" and not 0 < self.budget < 1:
            raise ValueError(f"rule {self.name!r}: budget must be in (0, 1)")
        if self.fast_window <= 0 or self.slow_window < self.fast_window:
            raise ValueError(
                f"rule {self.name!r}: need 0 < fast_window <= slow_window")
        if self.fast_burn <= 0 or self.slow_burn <= 0:
            raise ValueError(f"rule {self.name!r}: burn thresholds must "
                             f"be > 0")


def default_latency_slo(threshold: float = 0.25, budget: float = 0.01,
                        traffic_class: str | None = None,
                        **overrides) -> SloRule:
    """A ready-made p-latency rule (99% of requests under ``threshold``)."""
    return SloRule(name=f"latency-{threshold * 1000:g}ms",
                   kind="latency", threshold=threshold, budget=budget,
                   traffic_class=traffic_class, **overrides)


@dataclass
class RuleState:
    """Mutable evaluation state for one rule."""

    rule: SloRule
    #: cumulative events seen / events over budget threshold
    total: float = 0.0
    bad: float = 0.0
    alert: Alert | None = None

    @property
    def firing(self) -> bool:
        return self.alert is not None and self.alert.active


class SloEngine:
    """Evaluates every rule against the store at each scrape tick.

    The engine materialises per-rule cumulative ``slo_events_total`` /
    ``slo_bad_total`` series (and ``slo_burn_rate`` per window) into the
    same store the scrape loop fills, so burn rates are themselves
    plottable and diffable artifacts.
    """

    def __init__(self, rules, store: TimeSeriesStore,
                 alerts: AlertLog) -> None:
        self.rules = tuple(rules)
        names = [rule.name for rule in self.rules]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO rule names in {names}")
        self.store = store
        self.alerts = alerts
        self._states = {rule.name: RuleState(rule) for rule in self.rules}

    def state(self, name: str) -> RuleState:
        return self._states[name]

    # ---------------------------------------------------------- evaluation

    def observe(self, now: float, new_latencies_by_class: dict,
                simulation=None) -> None:
        """Fold one scrape window's observations in, then evaluate.

        ``new_latencies_by_class`` holds the end-to-end latencies completed
        since the previous scrape (empty when none did — latency rules then
        see no events and stay quiet rather than guess).
        """
        for rule in self.rules:
            state = self._states[rule.name]
            if rule.kind == "latency":
                classes = ([rule.traffic_class]
                           if rule.traffic_class is not None
                           else sorted(new_latencies_by_class))
                for cls in classes:
                    for latency in new_latencies_by_class.get(cls, ()):
                        state.total += 1
                        if latency > rule.threshold:
                            state.bad += 1
                self.store.record("slo_events_total", now, state.total,
                                  slo=rule.name)
                self.store.record("slo_bad_total", now, state.bad,
                                  slo=rule.name)
        self.evaluate(now)

    def evaluate(self, now: float) -> None:
        """Run every rule's burn-rate check and state machine at ``now``."""
        for rule in self.rules:
            state = self._states[rule.name]
            fast = self.burn_rate(rule, now, rule.fast_window)
            slow = self.burn_rate(rule, now, rule.slow_window)
            self.store.record("slo_burn_rate", now, fast,
                              slo=rule.name, window="fast")
            self.store.record("slo_burn_rate", now, slow,
                              slo=rule.name, window="slow")
            if state.firing:
                alert = state.alert
                alert.evaluations += 1
                alert.peak_burn = max(alert.peak_burn, fast)
                if fast < rule.fast_burn and slow < rule.slow_burn:
                    alert.resolved_at = now
            elif fast >= rule.fast_burn and slow >= rule.slow_burn:
                state.alert = self.alerts.fire(
                    rule.name, rule.kind, now, fast, slow)

    # ---------------------------------------------------------- burn rates

    def burn_rate(self, rule: SloRule, now: float, window: float) -> float:
        """Budget-burn multiple over ``[now - window, now]``.

        1.0 means "consuming exactly the allowed budget"; 10 means ten
        times over. Windows with no events burn 0.
        """
        start = max(0.0, now - window)
        if rule.kind == "latency":
            return self._ratio_burn("slo_events_total", "slo_bad_total",
                                    rule, start, now, slo=rule.name)
        if rule.kind == "error-rate":
            return self._error_burn(rule, start, now)
        # egress-cost: windowed $/s against the ceiling
        rate = self.store.rate("wan_egress_cost_dollars_total", start, now)
        return rate / rule.threshold

    def _ratio_burn(self, total_name: str, bad_name: str, rule: SloRule,
                    start: float, end: float, **labels) -> float:
        total_series = self.store.series(total_name, **labels)
        bad_series = self.store.series(bad_name, **labels)
        if total_series is None or bad_series is None:
            return 0.0
        total = total_series.value_at(end) - total_series.value_at(start)
        if total <= 0:
            return 0.0
        bad = bad_series.value_at(end) - bad_series.value_at(start)
        return (bad / max(total, _EPSILON)) / rule.budget

    def _error_burn(self, rule: SloRule, start: float, end: float) -> float:
        classes = ([rule.traffic_class] if rule.traffic_class is not None
                   else None)
        total = bad = 0.0
        for series in self.store.all_series("requests_completed_total"):
            labels = dict(series.labels)
            if classes is not None and labels.get("traffic_class") not in classes:
                continue
            total += series.value_at(end) - series.value_at(start)
        for series in self.store.all_series("requests_failed_total"):
            labels = dict(series.labels)
            if classes is not None and labels.get("traffic_class") not in classes:
                continue
            delta = series.value_at(end) - series.value_at(start)
            total += delta
            bad += delta
        if total <= 0:
            return 0.0
        return (bad / max(total, _EPSILON)) / rule.budget

    def __repr__(self) -> str:
        firing = sum(1 for state in self._states.values() if state.firing)
        return f"SloEngine(rules={len(self.rules)}, firing={firing})"
