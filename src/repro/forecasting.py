"""Deterministic online forecasting models shared across layers.

§5 "Scalability & fast reaction" asks the routing system to plan for where
load is *going*, not where it was; Demand Engineering (PAPERS.md) shows
acting on predicted demand beats reacting to observed demand. This module
is the single home for the incremental models both consumers share:

- the Global Controller's ``forecast_demand`` mode
  (:mod:`repro.core.controller.global_controller` imports
  :class:`HoltForecaster` from here), and
- the predictive observability pillar (:mod:`repro.obs.forecast`), which
  fits the same models over scraped time series and backtests them.

It deliberately lives outside both ``repro.core`` and ``repro.obs``: the
layering contract (analyzer rule A04) forbids the core from importing the
observability layer, so the shared implementation sits in neutral ground.

Every model is purely arithmetic — no RNG, no wall clock — and fitted one
observation at a time in O(1) per update, so fitting inside the sim-time
scrape loop can never perturb a run. :class:`BacktestTracker` wraps any
model with a rolling one-step-ahead evaluation (MASE and sMAPE against
the naive last-value forecast) so forecast quality is a measured,
diffable quantity rather than an article of faith.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "BacktestScore",
    "BacktestTracker",
    "EwmaForecaster",
    "HoltForecaster",
    "HoltWintersForecaster",
]


@dataclass
class _SeriesState:
    level: float
    trend: float = 0.0
    observations: int = 1


class EwmaForecaster:
    """Exponentially weighted moving average per keyed series.

    The flat baseline model: no trend, no seasonality. Forecasts at any
    horizon equal the current level. One forecaster tracks many series,
    keyed by hashable keys.
    """

    def __init__(self, alpha: float = 0.3) -> None:
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._series: dict = {}

    def observe(self, key, value: float) -> None:
        """Fold one observation into the keyed series."""
        state = self._series.get(key)
        if state is None:
            self._series[key] = _SeriesState(level=value)
            return
        state.level = self.alpha * value + (1 - self.alpha) * state.level
        state.observations += 1

    def forecast(self, key, steps_ahead: int = 1) -> float:
        """Forecast ``steps_ahead`` out; 0.0 for unseen keys."""
        if steps_ahead < 0:
            raise ValueError("steps_ahead must be >= 0")
        state = self._series.get(key)
        if state is None:
            return 0.0
        return state.level

    def known(self, key) -> bool:
        return key in self._series

    def __len__(self) -> int:
        return len(self._series)


class HoltForecaster:
    """Holt's linear (double exponential) smoothing per keyed series.

    ``alpha`` smooths the level, ``beta`` the trend, and ``phi`` damps the
    trend (Gardner–McKenzie): ``phi=1`` is classic Holt — the default, and
    bit-identical to the historical controller implementation — while
    ``phi<1`` flattens long-horizon forecasts toward an asymptote instead
    of extrapolating a straight line forever. Forecasts are clamped at
    zero (demand cannot be negative). One forecaster tracks many series
    (one per (class, cluster) in the controller), keyed by hashable keys.
    """

    def __init__(self, alpha: float = 0.6, beta: float = 0.3,
                 phi: float = 1.0) -> None:
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if not 0 <= beta <= 1:
            raise ValueError(f"beta must be in [0, 1], got {beta}")
        if not 0 < phi <= 1:
            raise ValueError(f"phi must be in (0, 1], got {phi}")
        self.alpha = alpha
        self.beta = beta
        self.phi = phi
        self._series: dict = {}

    def observe(self, key, value: float) -> None:
        """Fold one observation into the keyed series."""
        if value < 0:
            raise ValueError(f"negative observation {value} for {key!r}")
        state = self._series.get(key)
        if state is None:
            self._series[key] = _SeriesState(level=value)
            return
        previous_level = state.level
        if self.phi == 1.0:
            state.level = (self.alpha * value
                           + (1 - self.alpha) * (state.level + state.trend))
            state.trend = (self.beta * (state.level - previous_level)
                           + (1 - self.beta) * state.trend)
        else:
            damped = self.phi * state.trend
            state.level = (self.alpha * value
                           + (1 - self.alpha) * (state.level + damped))
            state.trend = (self.beta * (state.level - previous_level)
                           + (1 - self.beta) * damped)
        state.observations += 1

    def forecast(self, key, steps_ahead: int = 1) -> float:
        """Forecast ``steps_ahead`` epochs out; 0.0 for unseen keys."""
        if steps_ahead < 0:
            raise ValueError("steps_ahead must be >= 0")
        state = self._series.get(key)
        if state is None:
            return 0.0
        if self.phi == 1.0:
            return max(0.0, state.level + steps_ahead * state.trend)
        damping = 0.0
        factor = self.phi
        for _ in range(steps_ahead):
            damping += factor
            factor *= self.phi
        return max(0.0, state.level + damping * state.trend)

    def known(self, key) -> bool:
        return key in self._series

    def __len__(self) -> int:
        return len(self._series)


@dataclass
class _SeasonalState:
    level: float = 0.0
    trend: float = 0.0
    seasonal: list = None  # type: ignore[assignment]
    warmup: list = None  # type: ignore[assignment]
    observations: int = 0
    ready: bool = False


class HoltWintersForecaster:
    """Additive Holt–Winters (triple exponential) smoothing per series.

    Extends Holt with an additive seasonal component of integer period
    ``season_length`` (in observations — the obs pillar derives it from
    the scenario's diurnal period over the scrape interval). The first
    full season bootstraps the state: level = season mean, trend = 0,
    seasonal[i] = value_i - mean. Before the bootstrap completes,
    forecasts fall back to the running mean of what has been seen, so
    early reads are defined and deterministic.
    """

    def __init__(self, alpha: float = 0.3, beta: float = 0.1,
                 gamma: float = 0.3, season_length: int = 12) -> None:
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if not 0 <= beta <= 1:
            raise ValueError(f"beta must be in [0, 1], got {beta}")
        if not 0 <= gamma <= 1:
            raise ValueError(f"gamma must be in [0, 1], got {gamma}")
        if season_length < 2:
            raise ValueError(
                f"season_length must be >= 2, got {season_length}")
        self.alpha = alpha
        self.beta = beta
        self.gamma = gamma
        self.season_length = season_length
        self._series: dict = {}

    def observe(self, key, value: float) -> None:
        """Fold one observation into the keyed series."""
        state = self._series.get(key)
        if state is None:
            state = _SeasonalState(seasonal=[], warmup=[])
            self._series[key] = state
        if not state.ready:
            state.warmup.append(value)
            state.observations += 1
            if len(state.warmup) == self.season_length:
                mean = sum(state.warmup) / self.season_length
                state.level = mean
                state.trend = 0.0
                state.seasonal = [v - mean for v in state.warmup]
                state.warmup = []
                state.ready = True
            return
        idx = state.observations % self.season_length
        previous_level = state.level
        state.level = (self.alpha * (value - state.seasonal[idx])
                       + (1 - self.alpha) * (state.level + state.trend))
        state.trend = (self.beta * (state.level - previous_level)
                       + (1 - self.beta) * state.trend)
        state.seasonal[idx] = (self.gamma * (value - state.level)
                               + (1 - self.gamma) * state.seasonal[idx])
        state.observations += 1

    def forecast(self, key, steps_ahead: int = 1) -> float:
        """Forecast ``steps_ahead`` out; 0.0 for unseen keys."""
        if steps_ahead < 0:
            raise ValueError("steps_ahead must be >= 0")
        state = self._series.get(key)
        if state is None:
            return 0.0
        if not state.ready:
            return sum(state.warmup) / len(state.warmup)
        if steps_ahead == 0:
            idx = (state.observations - 1) % self.season_length
            return state.level + state.seasonal[idx]
        idx = (state.observations + steps_ahead - 1) % self.season_length
        return state.level + steps_ahead * state.trend + state.seasonal[idx]

    def known(self, key) -> bool:
        return key in self._series

    def __len__(self) -> int:
        return len(self._series)


@dataclass(frozen=True)
class BacktestScore:
    """Rolling one-step-ahead forecast quality for one keyed series."""

    #: one-step-ahead forecasts evaluated so far
    evaluations: int
    #: mean absolute scaled error vs. the naive last-value forecast
    #: (< 1.0 means the model beats naive)
    mase: float
    #: symmetric mean absolute percentage error, in [0, 2]
    smape: float
    #: mean absolute one-step-ahead error of the model
    mae: float

    def as_dict(self) -> dict:
        return {"evaluations": self.evaluations, "mase": self.mase,
                "smape": self.smape, "mae": self.mae}


class BacktestTracker:
    """Wrap any keyed forecaster with a rolling one-step-ahead backtest.

    On every :meth:`observe`, the wrapped model's standing one-step-ahead
    forecast (made *before* seeing the new value) is scored against the
    value, alongside the naive forecast (previous value carried forward).
    MASE is the ratio of the model's mean absolute error to naive's —
    the standard scale-free "did forecasting help at all" statistic —
    and sMAPE the bounded relative error.
    """

    # the precise union (not a duck-typed Any) lets the flow analyzer
    # prove `self.model.observe(...)` only reaches these pure models, so
    # obs-read-only (A01) holds without a suppression
    def __init__(
        self,
        model: EwmaForecaster | HoltForecaster | HoltWintersForecaster,
    ) -> None:
        self.model: (EwmaForecaster | HoltForecaster
                     | HoltWintersForecaster) = model
        self._last_value: dict = {}
        self._abs_error: dict = {}
        self._naive_error: dict = {}
        self._smape_sum: dict = {}
        self._evaluations: dict = {}

    def observe(self, key, value: float) -> float:
        """Score the standing forecast against ``value``, then fold it in.

        Returns the one-step-ahead forecast that was scored (the model's
        prediction for this observation), or ``value`` itself on the very
        first observation of a key.
        """
        predicted = value
        if self.model.known(key):
            predicted = self.model.forecast(key, steps_ahead=1)
            last = self._last_value[key]
            self._abs_error[key] = (self._abs_error.get(key, 0.0)
                                    + abs(predicted - value))
            self._naive_error[key] = (self._naive_error.get(key, 0.0)
                                      + abs(last - value))
            denominator = abs(predicted) + abs(value)
            if denominator > 0:
                self._smape_sum[key] = (self._smape_sum.get(key, 0.0)
                                        + 2 * abs(predicted - value)
                                        / denominator)
            else:
                self._smape_sum[key] = self._smape_sum.get(key, 0.0)
            self._evaluations[key] = self._evaluations.get(key, 0) + 1
        self._last_value[key] = value
        self.model.observe(key, value)
        return predicted

    def forecast(self, key, steps_ahead: int = 1) -> float:
        return self.model.forecast(key, steps_ahead=steps_ahead)

    def known(self, key) -> bool:
        return self.model.known(key)

    def score(self, key) -> BacktestScore | None:
        """The rolling backtest for one key; ``None`` before 1 evaluation."""
        count = self._evaluations.get(key, 0)
        if count == 0:
            return None
        mae = self._abs_error[key] / count
        naive_mae = self._naive_error[key] / count
        mase = mae / naive_mae if naive_mae > 0 else (
            0.0 if mae == 0 else float("inf"))
        return BacktestScore(evaluations=count, mase=mase,
                             smape=self._smape_sum[key] / count, mae=mae)

    def scores(self) -> dict:
        """Backtest scores for every evaluated key, sorted by key."""
        return {key: self.score(key)
                for key in sorted(self._evaluations, key=repr)}
