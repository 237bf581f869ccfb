"""Predictive pillar: online forecasts over scraped series + SLO breaches.

The time-series pipeline (PR 4) tells us where the mesh *is*; this module
says where it is *going*. A :class:`ForecastEngine` rides the scrape loop:
each tick it folds the newest samples of a target set of series (per-class
latency p95 and request rate, per-pool queue depth, the WAN egress-cost
rate) into a shared online model from :mod:`repro.forecasting` — EWMA,
Holt damped-trend, or Holt–Winters with seasonality matched to the
scenario's diurnal period — wrapped in a :class:`~repro.forecasting
.BacktestTracker` so every forecast carries a rolling MASE/sMAPE against
the naive baseline. Forecast values are recorded back into the same store
(``forecast_<name>`` series), so they are plottable and diffable like any
other telemetry. :class:`SeriesFollower` is the one walk over followed
series that this engine and :class:`~repro.obs.anomaly.AnomalyEngine`
share: it hands each engine only the points scraped since its last tick.

:class:`BreachPredictor` turns forecasts into *predictive SLO alerts*: it
fits the same Holt model to each rule's fast/slow ``slo_burn_rate``
series, projects the trajectories up to ``horizon`` scrapes forward, and
when both windows are projected to cross their firing thresholds it emits
an alert-shaped :class:`PredictedBreach` with the estimated lead time.
Predictions are scored post-hoc against the real
:class:`~repro.obs.alerts.AlertLog` (:func:`score_predictions`: lead
time, precision, recall), and — being alert-shaped — join the decision
log via ``join_alerts_decisions`` and trip the provenance flight recorder
like every other anomaly trigger. Each kind of event has one record: the
``forecast_<name>`` series, :attr:`BreachPredictor.predictions`, and the
anomaly engine's :class:`~repro.obs.anomaly.AnomalyLog`.

Everything here is pure arithmetic over already-scraped values: no RNG,
no mesh access, no mutation outside the obs layer — enabling the pillar
cannot perturb a run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..forecasting import (BacktestTracker, EwmaForecaster, HoltForecaster,
                           HoltWintersForecaster)
from .timeseries import TimeSeriesStore

if TYPE_CHECKING:  # imports for annotations only — obs stays decoupled
    from .alerts import AlertLog
    from .slo import SloEngine

__all__ = ["DEFAULT_FORECAST_TARGETS", "FORECAST_MODELS", "BreachPredictor",
           "ForecastEngine", "PredictedBreach", "PredictionScore",
           "SeriesFollower", "make_model", "score_predictions"]

#: (series name, kind) pairs the engine follows by default. ``gauge``
#: series are forecast directly; ``counter`` series are differenced into
#: per-second rates first (forecasting a cumulative total is meaningless).
DEFAULT_FORECAST_TARGETS = (
    ("request_latency_p95", "gauge"),
    ("request_rate_rps", "gauge"),
    ("pool_queue_depth", "gauge"),
    ("wan_egress_cost_dollars_total", "counter"),
)

#: model name -> needs_season flag (see :func:`make_model`)
FORECAST_MODELS = ("ewma", "holt", "holt-winters")


def make_model(model: str, season_length: int = 0):
    """Build a keyed forecaster by name.

    ``season_length`` is the seasonal period in *observations* (scrape
    ticks); it is required (>= 2) for ``holt-winters`` and ignored
    otherwise.
    """
    if model == "ewma":
        return EwmaForecaster()
    if model == "holt":
        return HoltForecaster()
    if model == "holt-winters":
        if season_length < 2:
            raise ValueError(
                "holt-winters needs season_length >= 2 scrape ticks, "
                f"got {season_length}")
        return HoltWintersForecaster(season_length=season_length)
    raise ValueError(
        f"unknown forecast model {model!r}; choose from {FORECAST_MODELS}")


class SeriesFollower:
    """Walks a store's followed series, yielding each point once.

    ``targets`` are ``(series name, kind)`` pairs. :meth:`fresh` yields,
    per series that gained points since the last call, its
    ``(name, labels)`` key and the new points as ``(time, observation)``:
    a ``gauge`` value as scraped, a ``counter`` differenced against its
    previous point into a per-second rate (a counter's first point yields
    none). The cursor counts appended points, not retained ones, so a full
    ring keeps yielding its newest points, and only the fresh tail is read.
    """

    def __init__(self, targets) -> None:
        self.targets = tuple(targets)
        #: (name, labelkey) -> points appended (retained + evicted) when
        #: last read
        self._cursors: dict = {}
        #: (name, labelkey) -> last (time, value) read, for counter rates
        self._prev_point: dict = {}

    def fresh(self, store: TimeSeriesStore):
        for name, kind in self.targets:
            for series in store.all_series(name):
                key = (name, series.labels)
                appended = len(series) + series.dropped_points
                count = appended - self._cursors.get(key, 0)
                if count <= 0:
                    continue
                self._cursors[key] = appended
                observations = []
                for time, value in series.tail(count):
                    if kind == "counter":
                        previous = self._prev_point.get(key)
                        self._prev_point[key] = (time, value)
                        if previous is None or time <= previous[0]:
                            continue
                        value = (value - previous[1]) / (time - previous[0])
                    observations.append((time, value))
                yield key, observations


class ForecastEngine:
    """Fits online models to scraped series, one observation per tick."""

    def __init__(self, store: TimeSeriesStore, model: str = "holt",
                 season_length: int = 0, horizon: int = 5,
                 targets=DEFAULT_FORECAST_TARGETS) -> None:
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        self.store = store
        self.model_name = model
        self.horizon = horizon
        self.follower = SeriesFollower(targets)
        self.tracker = BacktestTracker(make_model(model, season_length))
        self.samples = 0

    # ----------------------------------------------------------- sampling

    def sample(self, now: float) -> None:
        """Fold the newest scraped points in; record the forecasts."""
        for key, observations in self.follower.fresh(self.store):
            for _, observation in observations:
                self.tracker.observe(key, observation)
            if not self.tracker.known(key):
                continue
            predicted = max(0.0, self.tracker.forecast(key, self.horizon))
            self.store.record(f"forecast_{key[0]}", now, predicted,
                              **dict(key[1]))
        self.samples += 1

    # ------------------------------------------------------------ queries

    def backtests(self) -> dict:
        """``"name{labels}" -> BacktestScore`` for every evaluated series."""
        return {_series_id(key[0], key[1]): score
                for key, score in self.tracker.scores().items()
                if score is not None}

    def summary(self) -> dict:
        """JSON-friendly engine state: model, per-series backtests."""
        return {
            "model": self.model_name,
            "horizon": self.horizon,
            "samples": self.samples,
            "series": {sid: score.as_dict()
                       for sid, score in sorted(self.backtests().items())},
        }

    def __repr__(self) -> str:
        return (f"ForecastEngine(model={self.model_name!r}, "
                f"series={len(self.tracker.model)}, samples={self.samples})")


def _series_id(name: str, labels) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


# --------------------------------------------------------------- breaches


@dataclass
class PredictedBreach:
    """A projected SLO breach — alert-shaped, so joins and logs apply.

    ``fired_at`` is the *prediction* time (when the projection first
    crossed both burn thresholds), ``breach_eta`` the projected firing
    time. ``resolved_at`` closes the prediction when it is matched to a
    real alert (``outcome="hit"``) or expires unmatched past its grace
    window (``outcome="miss"``).
    """

    rule: str
    kind: str
    fired_at: float
    #: projected sim time of the real alert firing
    breach_eta: float
    #: breach_eta - fired_at at prediction time
    lead_estimate: float
    #: projected burn rates at the eta
    predicted_fast_burn: float
    predicted_slow_burn: float
    resolved_at: float | None = None
    #: "open" while unresolved, then "hit" or "miss"
    outcome: str = "open"
    #: fired_at of the matched real alert (hits only)
    actual_fired_at: float | None = None

    @property
    def active(self) -> bool:
        return self.resolved_at is None

    @property
    def actual_lead(self) -> float | None:
        """Real warning time delivered: alert firing - prediction time."""
        if self.actual_fired_at is None:
            return None
        return self.actual_fired_at - self.fired_at

    def overlaps(self, time: float) -> bool:
        """True when ``time`` falls inside the open-prediction interval."""
        if time < self.fired_at:
            return False
        return self.resolved_at is None or time <= self.resolved_at

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "kind": self.kind,
            "fired_at": self.fired_at,
            "resolved_at": self.resolved_at,
            "breach_eta": self.breach_eta,
            "lead_estimate": self.lead_estimate,
            "predicted_fast_burn": self.predicted_fast_burn,
            "predicted_slow_burn": self.predicted_slow_burn,
            "outcome": self.outcome,
            "actual_fired_at": self.actual_fired_at,
            "actual_lead": self.actual_lead,
        }


@dataclass
class PredictionScore:
    """Post-hoc quality of a run's breach predictions vs. real alerts."""

    predictions: int
    hits: int
    misses: int
    open: int
    alerts_total: int
    alerts_predicted: int
    #: hits / closed predictions (1.0 when nothing closed)
    precision: float
    #: alerts_predicted / alerts_total (1.0 when no alerts fired)
    recall: float
    #: mean actual lead time over hits, sim-seconds (0.0 without hits)
    mean_lead_seconds: float

    def as_dict(self) -> dict:
        return {
            "predictions": self.predictions, "hits": self.hits,
            "misses": self.misses, "open": self.open,
            "alerts_total": self.alerts_total,
            "alerts_predicted": self.alerts_predicted,
            "precision": self.precision, "recall": self.recall,
            "mean_lead_seconds": self.mean_lead_seconds,
        }


def score_predictions(predictions, alerts: "AlertLog") -> PredictionScore:
    """Score predicted breaches against the real alert log.

    A prediction is a *hit* when a real alert for its rule fired inside
    its open interval (``outcome="hit"``, set by the predictor as the run
    progresses); an alert counts as *predicted* when some hit prediction
    preceded it. Precision is over closed predictions only — a prediction
    still open at end of run is neither right nor wrong yet.
    """
    predictions = list(predictions)
    hits = [p for p in predictions if p.outcome == "hit"]
    misses = [p for p in predictions if p.outcome == "miss"]
    still_open = [p for p in predictions if p.outcome == "open"]
    closed = len(hits) + len(misses)
    predicted_alerts = {(p.rule, p.actual_fired_at) for p in hits}
    all_alerts = list(alerts)
    leads = [p.actual_lead for p in hits if p.actual_lead is not None]
    return PredictionScore(
        predictions=len(predictions), hits=len(hits), misses=len(misses),
        open=len(still_open), alerts_total=len(all_alerts),
        alerts_predicted=sum(
            1 for a in all_alerts if (a.rule, a.fired_at) in predicted_alerts),
        precision=(len(hits) / closed) if closed else 1.0,
        recall=(sum(1 for a in all_alerts
                    if (a.rule, a.fired_at) in predicted_alerts)
                / len(all_alerts)) if all_alerts else 1.0,
        mean_lead_seconds=(sum(leads) / len(leads)) if leads else 0.0,
    )


class BreachPredictor:
    """Projects each rule's burn-rate trajectory; emits PredictedBreach.

    Per scrape tick and per rule: fold the freshly recorded fast/slow
    ``slo_burn_rate`` samples into a Holt model, then — if the rule is not
    already firing and no prediction is open — walk the projection
    ``1..horizon`` steps out and emit a prediction at the first step where
    *both* windows are projected at or above their firing thresholds
    (mirroring the engine's two-window AND). Open predictions are matched
    against the real :class:`AlertLog` (hit) or expired once
    ``breach_eta`` plus one grace horizon passes without an alert (miss).
    """

    #: burn observations required per rule before projecting
    MIN_OBSERVATIONS = 3

    def __init__(self, slo_engine: "SloEngine", store: TimeSeriesStore,
                 alerts: "AlertLog", interval: float = 1.0,
                 horizon: int = 30) -> None:
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        self.slo_engine = slo_engine
        self.store = store
        self.alerts = alerts
        self.interval = interval
        self.horizon = horizon
        self.model = HoltForecaster(alpha=0.5, beta=0.3)
        self.predictions: list[PredictedBreach] = []
        self._open: dict[str, PredictedBreach] = {}
        self._observations: dict[str, int] = {}
        self._matched_alerts: set = set()

    # ----------------------------------------------------------- sampling

    def sample(self, now: float) -> None:
        for rule in self.slo_engine.rules:
            self._observe_rule(rule, now)
            self._settle(rule, now)
            if (rule.name not in self._open
                    and not self.slo_engine.state(rule.name).firing):
                self._project(rule, now)

    def _observe_rule(self, rule, now: float) -> None:
        for window in ("fast", "slow"):
            series = self.store.series("slo_burn_rate", slo=rule.name,
                                       window=window)
            last = series.last if series is not None else None
            if last is None:
                continue
            key = (rule.name, window)
            self.model.observe(key, max(0.0, last[1]))
            self.store.record("slo_burn_forecast", now,
                              self.model.forecast(key, steps_ahead=1),
                              slo=rule.name, window=window)
        self._observations[rule.name] = (
            self._observations.get(rule.name, 0) + 1)

    def _settle(self, rule, now: float) -> None:
        """Match or expire the rule's open prediction, if any."""
        prediction = self._open.get(rule.name)
        if prediction is None:
            return
        for alert in self.alerts.for_rule(rule.name):
            marker = (alert.rule, alert.fired_at)
            if marker in self._matched_alerts:
                continue
            if alert.fired_at >= prediction.fired_at:
                prediction.outcome = "hit"
                prediction.actual_fired_at = alert.fired_at
                prediction.resolved_at = alert.fired_at
                self._matched_alerts.add(marker)
                del self._open[rule.name]
                return
        grace = self.horizon * self.interval
        if now > prediction.breach_eta + grace:
            prediction.outcome = "miss"
            prediction.resolved_at = now
            del self._open[rule.name]

    def _project(self, rule, now: float) -> None:
        if self._observations.get(rule.name, 0) < self.MIN_OBSERVATIONS:
            return
        fast_key = (rule.name, "fast")
        slow_key = (rule.name, "slow")
        if not (self.model.known(fast_key) and self.model.known(slow_key)):
            return
        for step in range(1, self.horizon + 1):
            fast = self.model.forecast(fast_key, steps_ahead=step)
            slow = self.model.forecast(slow_key, steps_ahead=step)
            if fast >= rule.fast_burn and slow >= rule.slow_burn:
                eta = now + step * self.interval
                prediction = PredictedBreach(
                    rule=rule.name, kind=f"pred-{rule.kind}", fired_at=now,
                    breach_eta=eta, lead_estimate=step * self.interval,
                    predicted_fast_burn=fast, predicted_slow_burn=slow)
                self.predictions.append(prediction)
                self._open[rule.name] = prediction
                return

    # ------------------------------------------------------------ queries

    def score(self) -> PredictionScore:
        return score_predictions(self.predictions, self.alerts)

    def to_jsonl_lines(self) -> list:
        return [json.dumps(p.as_dict(), sort_keys=True)
                for p in self.predictions]

    def __len__(self) -> int:
        return len(self.predictions)

    def __repr__(self) -> str:
        return (f"BreachPredictor(rules={len(self.slo_engine.rules)}, "
                f"predictions={len(self.predictions)})")
