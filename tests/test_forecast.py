"""Tests for demand forecasting and predictive planning."""

import pytest

from repro.core.controller.global_controller import (GlobalController,
                                                     GlobalControllerConfig)
from repro.forecasting import HoltForecaster
from repro.mesh.telemetry import ClusterEpochReport
from repro.sim import (DeploymentSpec, linear_chain_app, two_region_latency)


class TestHoltForecaster:
    def test_first_observation_is_the_forecast(self):
        forecaster = HoltForecaster()
        forecaster.observe("k", 100.0)
        assert forecaster.forecast("k") == pytest.approx(100.0)

    def test_linear_ramp_extrapolated(self):
        forecaster = HoltForecaster(alpha=0.8, beta=0.5)
        for value in range(100, 200, 10):   # +10 per step
            forecaster.observe("k", float(value))
        one_ahead = forecaster.forecast("k", steps_ahead=1)
        # last observation 190; the trend should push the forecast beyond it
        assert one_ahead > 192.0
        assert forecaster.forecast("k", 2) > one_ahead

    def test_constant_series_no_trend(self):
        forecaster = HoltForecaster()
        for _ in range(10):
            forecaster.observe("k", 50.0)
        assert forecaster.forecast("k", 5) == pytest.approx(50.0)

    def test_forecast_clamped_at_zero(self):
        forecaster = HoltForecaster(alpha=0.9, beta=0.9)
        for value in (100.0, 60.0, 20.0, 1.0):
            forecaster.observe("k", value)
        assert forecaster.forecast("k", 10) == 0.0

    def test_unknown_key(self):
        assert HoltForecaster().forecast("nope") == 0.0
        assert not HoltForecaster().known("nope")

    def test_validation(self):
        with pytest.raises(ValueError):
            HoltForecaster(alpha=0.0)
        with pytest.raises(ValueError):
            HoltForecaster(beta=1.5)
        forecaster = HoltForecaster()
        with pytest.raises(ValueError):
            forecaster.observe("k", -1.0)
        with pytest.raises(ValueError):
            forecaster.forecast("k", steps_ahead=-1)

    def test_independent_series(self):
        forecaster = HoltForecaster()
        forecaster.observe("a", 10.0)
        forecaster.observe("b", 99.0)
        assert forecaster.forecast("a") == pytest.approx(10.0)
        assert forecaster.forecast("b") == pytest.approx(99.0)
        assert len(forecaster) == 2


def make_report(cluster, rps, duration=2.0):
    return ClusterEpochReport(
        cluster=cluster, start_time=0.0, duration=duration,
        ingress_counts={"default": int(rps * duration)})


class TestPredictiveController:
    def make(self, forecast):
        app = linear_chain_app()
        deployment = DeploymentSpec.uniform(
            app.services(), ["west", "east"], replicas=5,
            latency=two_region_latency(25.0))
        config = GlobalControllerConfig(forecast_demand=forecast,
                                        learn_profiles=False,
                                        demand_alpha=0.5)
        return GlobalController(app, deployment, config)

    def test_predictive_leads_reactive_on_a_ramp(self):
        reactive = self.make(forecast=False)
        predictive = self.make(forecast=True)
        for rps in (100.0, 200.0, 300.0, 400.0):
            for controller in (reactive, predictive):
                controller.observe([make_report("west", rps)])
        # reactive EWMA lags below the latest observation; the forecast
        # extrapolates beyond it
        assert reactive.demand_estimate("default", "west") < 400.0
        assert predictive.demand_estimate("default", "west") > 400.0

    def test_infeasible_forecast_degrades_gracefully(self):
        controller = self.make(forecast=True)
        # a ramp whose forecast exceeds the 950-rps global service capacity
        for rps in (400.0, 700.0, 1000.0, 1300.0):
            controller.observe([make_report("west", rps)])
        assert controller.demand_estimate("default", "west") > 1000.0
        result = controller.plan()   # must not raise
        assert result is not None and result.ok
        # scaled demand saturates capacity; rules still offload sensibly
        rules = result.rules()
        rule = rules.rule_for("S1", "default", "west")
        assert rule is not None
        assert rule.local_fraction() < 0.7

    def test_constant_load_same_plan_both_modes(self):
        reactive = self.make(forecast=False)
        predictive = self.make(forecast=True)
        for _ in range(6):
            for controller in (reactive, predictive):
                controller.observe([make_report("west", 300.0),
                                    make_report("east", 100.0)])
        assert (predictive.demand_estimate("default", "west")
                == pytest.approx(
                    reactive.demand_estimate("default", "west"), rel=0.02))
