"""Tests for the shared online forecasting library (repro.forecasting)."""

import math

import pytest

from repro.forecasting import (BacktestTracker, EwmaForecaster,
                               HoltForecaster, HoltWintersForecaster)


class TestEwmaForecaster:
    def test_first_observation_is_the_forecast(self):
        model = EwmaForecaster()
        model.observe("k", 42.0)
        assert model.forecast("k") == pytest.approx(42.0)
        assert model.known("k") and not model.known("other")

    def test_flat_at_every_horizon(self):
        model = EwmaForecaster(alpha=0.5)
        for value in (10.0, 20.0, 30.0):
            model.observe("k", value)
        assert model.forecast("k", 1) == model.forecast("k", 50)

    def test_alpha_one_tracks_exactly(self):
        model = EwmaForecaster(alpha=1.0)
        for value in (5.0, 7.0, 11.0):
            model.observe("k", value)
        assert model.forecast("k") == pytest.approx(11.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            EwmaForecaster(alpha=0.0)
        with pytest.raises(ValueError):
            EwmaForecaster(alpha=1.5)
        with pytest.raises(ValueError):
            EwmaForecaster().forecast("k", steps_ahead=-1)


class _ReferenceHolt:
    """The controller's pre-refactor Holt implementation, inlined verbatim
    so the shared model can be proven bit-identical to it."""

    def __init__(self, alpha=0.6, beta=0.3):
        self.alpha = alpha
        self.beta = beta
        self.state = None   # (level, trend)

    def observe(self, value):
        if self.state is None:
            self.state = (value, 0.0)
            return
        level, trend = self.state
        new_level = self.alpha * value + (1 - self.alpha) * (level + trend)
        new_trend = (self.beta * (new_level - level)
                     + (1 - self.beta) * trend)
        self.state = (new_level, new_trend)

    def forecast(self, steps_ahead=1):
        level, trend = self.state
        return max(0.0, level + steps_ahead * trend)


class TestHoltDampingAndEquivalence:
    def test_default_phi_bit_identical_to_reference(self):
        """phi=1 must run the exact historical arithmetic, not merely an
        approximation of it — forecast_demand runs stay byte-identical."""
        shared = HoltForecaster(alpha=0.6, beta=0.3)
        reference = _ReferenceHolt(alpha=0.6, beta=0.3)
        # an irregular but deterministic sequence
        values = [abs(math.sin(i * 0.7)) * 400 + i * 3.1 for i in range(50)]
        for value in values:
            shared.observe("k", value)
            reference.observe(value)
            for steps in (1, 2, 5, 12):
                assert shared.forecast("k", steps) \
                    == reference.forecast(steps)

    def test_damped_flattens_long_horizons(self):
        undamped = HoltForecaster(alpha=0.8, beta=0.5)
        damped = HoltForecaster(alpha=0.8, beta=0.5, phi=0.8)
        for value in range(100, 200, 10):
            undamped.observe("k", float(value))
            damped.observe("k", float(value))
        assert damped.forecast("k", 20) < undamped.forecast("k", 20)

    def test_damped_forecast_approaches_asymptote(self):
        phi = 0.7
        model = HoltForecaster(alpha=0.8, beta=0.5, phi=phi)
        for value in range(100, 200, 10):
            model.observe("k", float(value))
        state = model._series["k"]
        asymptote = state.level + phi / (1 - phi) * state.trend
        assert model.forecast("k", 500) == pytest.approx(asymptote)
        assert model.forecast("k", 500) == pytest.approx(
            model.forecast("k", 1000))

    def test_phi_validation(self):
        with pytest.raises(ValueError):
            HoltForecaster(phi=0.0)
        with pytest.raises(ValueError):
            HoltForecaster(phi=1.1)


class TestHoltWinters:
    def test_warmup_forecast_is_running_mean(self):
        model = HoltWintersForecaster(season_length=4)
        model.observe("k", 10.0)
        model.observe("k", 20.0)
        assert model.forecast("k", 3) == pytest.approx(15.0)

    def test_learns_a_pure_seasonal_pattern(self):
        pattern = [10.0, 50.0, 90.0, 50.0]
        model = HoltWintersForecaster(alpha=0.3, beta=0.0, gamma=0.5,
                                      season_length=4)
        for cycle in range(6):
            for value in pattern:
                model.observe("k", value)
        # next observation would be pattern[0]; four ahead wraps to it too
        assert model.forecast("k", 1) == pytest.approx(10.0, abs=3.0)
        assert model.forecast("k", 2) == pytest.approx(50.0, abs=3.0)
        assert model.forecast("k", 3) == pytest.approx(90.0, abs=3.0)

    def test_beats_holt_on_seasonal_data(self):
        values = [100 + 80 * math.sin(2 * math.pi * i / 12)
                  for i in range(96)]
        seasonal = BacktestTracker(HoltWintersForecaster(season_length=12))
        trend_only = BacktestTracker(HoltForecaster())
        for value in values:
            seasonal.observe("k", value)
            trend_only.observe("k", value)
        assert seasonal.score("k").mase < 1.0        # beats naive
        assert seasonal.score("k").mae < trend_only.score("k").mae

    def test_validation(self):
        with pytest.raises(ValueError):
            HoltWintersForecaster(season_length=1)
        with pytest.raises(ValueError):
            HoltWintersForecaster(gamma=1.5)
        assert HoltWintersForecaster().forecast("unseen") == 0.0


class TestBacktestTracker:
    def test_no_score_before_second_observation(self):
        tracker = BacktestTracker(HoltForecaster())
        assert tracker.score("k") is None
        tracker.observe("k", 10.0)
        assert tracker.score("k") is None
        tracker.observe("k", 12.0)
        score = tracker.score("k")
        assert score is not None and score.evaluations == 1

    def test_model_equal_to_naive_scores_mase_one(self):
        # alpha=1 EWMA *is* the naive last-value forecast
        tracker = BacktestTracker(EwmaForecaster(alpha=1.0))
        for value in (10.0, 14.0, 9.0, 20.0):
            tracker.observe("k", value)
        assert tracker.score("k").mase == pytest.approx(1.0)

    def test_hand_computed_errors(self):
        tracker = BacktestTracker(EwmaForecaster(alpha=1.0))
        tracker.observe("k", 10.0)
        predicted = tracker.observe("k", 16.0)   # standing forecast was 10
        assert predicted == pytest.approx(10.0)
        score = tracker.score("k")
        assert score.mae == pytest.approx(6.0)
        assert score.smape == pytest.approx(2 * 6.0 / 26.0)

    def test_zero_denominator_smape_guard(self):
        tracker = BacktestTracker(EwmaForecaster())
        tracker.observe("k", 0.0)
        tracker.observe("k", 0.0)
        assert tracker.score("k").smape == 0.0

    def test_perfect_model_mase_zero(self):
        tracker = BacktestTracker(EwmaForecaster(alpha=1.0))
        for value in (5.0, 5.0, 5.0):
            tracker.observe("k", value)
        score = tracker.score("k")
        assert score.mae == 0.0 and score.mase == 0.0

    def test_scores_covers_every_evaluated_key(self):
        tracker = BacktestTracker(HoltForecaster())
        for key in ("b", "a"):
            tracker.observe(key, 1.0)
            tracker.observe(key, 2.0)
        scores = tracker.scores()
        assert list(scores) == ["a", "b"]
        assert all(s.evaluations == 1 for s in scores.values())

    def test_as_dict_round_trip(self):
        tracker = BacktestTracker(HoltForecaster())
        tracker.observe("k", 1.0)
        tracker.observe("k", 2.0)
        payload = tracker.score("k").as_dict()
        assert set(payload) == {"evaluations", "mase", "smape", "mae"}
