"""Tests for the Global and Cluster controllers."""

import math

import pytest

from repro.core.controller.cluster_controller import ClusterController
from repro.core.controller.global_controller import (GlobalController,
                                                     GlobalControllerConfig)
from repro.core.rules import RoutingRule, RuleSet
from repro.mesh.routing_table import RoutingTable
from repro.mesh.telemetry import ClusterEpochReport, ServiceClassWindow
from repro.sim import (DemandMatrix, DeploymentSpec, linear_chain_app,
                       two_region_latency)
from repro.sim.request import Span


def make_deployment(app, replicas=5):
    return DeploymentSpec.uniform(app.services(), ["west", "east"],
                                  replicas=replicas,
                                  latency=two_region_latency(25.0))


def make_report(cluster, ingress_rps, duration=5.0, exec_times=None):
    report = ClusterEpochReport(cluster=cluster, start_time=0.0,
                                duration=duration)
    for cls, rps in ingress_rps.items():
        report.ingress_counts[cls] = int(rps * duration)
    for (service, cls), exec_time in (exec_times or {}).items():
        window = ServiceClassWindow()
        for _ in range(10):
            window.observe(Span(
                request_id=1, traffic_class=cls, service=service,
                cluster=cluster, caller_service=None, caller_cluster=cluster,
                enqueue_time=0.0, start_time=0.0, end_time=exec_time,
                exec_time=exec_time))
        report.service_class[(service, cls)] = window
    return report


class TestClusterController:
    def test_ingest_validates_cluster(self):
        controller = ClusterController("west")
        with pytest.raises(ValueError):
            controller.ingest(make_report("east", {}))

    def test_relay_clears_pending(self):
        controller = ClusterController("west")
        controller.ingest(make_report("west", {"default": 10}))
        assert len(controller.relay()) == 1
        assert controller.relay() == []
        assert controller.reports_relayed == 1

    def test_distribute_filters_by_source_cluster(self):
        controller = ClusterController("west")
        table = RoutingTable()
        rules = RuleSet([
            RoutingRule.make("S1", "c", "west", {"east": 1.0}),
            RoutingRule.make("S1", "c", "east", {"east": 1.0}),
        ])
        installed = controller.distribute(rules, table)
        assert installed == 1
        assert table.weights_for("S1", "c", "west") == {"east": 1.0}
        assert table.weights_for("S1", "c", "east") is None


class TestGlobalController:
    def test_no_plan_before_demand(self):
        app = linear_chain_app()
        controller = GlobalController(app, make_deployment(app))
        assert controller.plan() is None
        assert len(controller.rules()) == 0

    def test_demand_estimation_ewma(self):
        app = linear_chain_app()
        controller = GlobalController(
            app, make_deployment(app),
            GlobalControllerConfig(demand_alpha=0.5))
        controller.observe([make_report("west", {"default": 100.0})])
        assert controller.demand_estimate("default", "west") == pytest.approx(100.0)
        controller.observe([make_report("west", {"default": 200.0})])
        assert controller.demand_estimate("default", "west") == pytest.approx(150.0)

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5, math.nan])
    def test_demand_alpha_outside_unit_interval_is_rejected(self, alpha):
        # 0 froze the EWMA at the first report; above 1 it overshot, and
        # could store a negative estimate once demand fell
        with pytest.raises(ValueError, match="demand_alpha"):
            GlobalControllerConfig(demand_alpha=alpha)

    @pytest.mark.parametrize("quantum", [-25.0, math.nan, math.inf])
    def test_demand_quantum_negative_or_non_finite_is_rejected(self, quantum):
        with pytest.raises(ValueError, match="demand_quantum"):
            GlobalControllerConfig(demand_quantum=quantum)

    @pytest.mark.parametrize("field,value", [
        ("formulation", "bogus"),
        ("path_k", 2.5), ("path_k", 0), ("path_k", True),
        ("path_prune_limit", 0), ("path_prune_limit", 1.5),
    ])
    def test_unplannable_path_settings_are_rejected(self, field, value):
        # each used to construct, then fail only at the first plan (a
        # float k as a TypeError deep in candidate enumeration) or when
        # a GlobalController was built
        with pytest.raises(ValueError, match=field):
            GlobalControllerConfig(**{"formulation": "path", field: value})

    @pytest.mark.parametrize("report", [
        ClusterEpochReport(cluster="west", start_time=0.0,
                           duration=math.nan,
                           ingress_counts={"default": 500}),
        ClusterEpochReport(cluster="west", start_time=0.0, duration=5.0,
                           ingress_counts={"default": math.nan}),
        ClusterEpochReport(cluster="west", start_time=0.0, duration=5.0,
                           ingress_counts={"default": math.inf}),
    ], ids=["nan-duration", "nan-count", "inf-count"])
    def test_non_finite_observation_is_rejected_before_any_write(
            self, report):
        # a NaN rate once entered the EWMA and stayed there: every later
        # estimate was NaN and plan() returned None as if no demand was seen
        app = linear_chain_app()
        controller = GlobalController(
            app, make_deployment(app),
            GlobalControllerConfig(demand_alpha=0.5))
        controller.observe([make_report("west", {"default": 100.0})])
        with pytest.raises(ValueError, match="non-finite observation"):
            controller.observe([make_report("east", {"default": 40.0}),
                                report])
        # nothing of the rejected batch was learned, east's report included
        assert controller.demand_estimate("default", "west") == 100.0
        assert controller.demand_estimate("default", "east") == 0.0
        assert controller.epochs_observed == 1
        controller.observe([make_report("west", {"default": 200.0})])
        assert controller.demand_estimate("default", "west") == 150.0
        assert controller.plan().ok

    def test_plan_after_observation(self):
        app = linear_chain_app()
        controller = GlobalController(app, make_deployment(app))
        controller.observe([make_report("west", {"default": 600.0}),
                            make_report("east", {"default": 100.0})])
        result = controller.plan()
        assert result is not None and result.ok
        rules = controller.rules()
        assert rules.rule_for("S1", "default", "west") is not None

    def test_learned_profiles_override_spec(self):
        app = linear_chain_app(exec_time=0.010)
        controller = GlobalController(
            app, make_deployment(app),
            GlobalControllerConfig(learn_profiles=True))
        # telemetry says the service is twice as expensive as the spec
        exec_times = {("S1", "default"): 0.020, ("S2", "default"): 0.020,
                      ("S3", "default"): 0.020}
        controller.observe([make_report("west", {"default": 300.0},
                                        exec_times=exec_times)])
        problem = controller.build_problem()
        spec = problem.workloads["default"].spec
        assert spec.exec_time_of("S1") == pytest.approx(0.020)

    def test_nan_compute_window_does_not_poison_the_profile(self):
        # a NaN sample once made the profile NaN for good, and plan()
        # then reported optimal with the service planned as free
        app = linear_chain_app(exec_time=0.010)
        controller = GlobalController(
            app, make_deployment(app),
            GlobalControllerConfig(learn_profiles=True))
        for exec_time in (math.nan, 0.020):
            controller.observe([make_report(
                "west", {"default": 300.0},
                exec_times={("S1", "default"): exec_time})])
        assert controller.profiles.service_time("S1", "default") \
            == pytest.approx(0.020)
        spec = controller.build_problem().workloads["default"].spec
        assert spec.exec_time_of("S1") == pytest.approx(0.020)
        assert controller.plan().ok

    def test_negative_compute_window_is_skipped(self):
        # a negative sample once made plan() raise ValueError from the
        # class spec's validation
        app = linear_chain_app(exec_time=0.010)
        controller = GlobalController(
            app, make_deployment(app),
            GlobalControllerConfig(learn_profiles=True))
        controller.observe([make_report(
            "west", {"default": 300.0},
            exec_times={("S1", "default"): -0.020})])
        assert controller.plan().ok
        assert not controller.profiles.known("S1", "default")
        spec = controller.build_problem().workloads["default"].spec
        assert spec.exec_time_of("S1") == pytest.approx(0.010)

    def test_unobserved_services_keep_spec_exec_time(self):
        app = linear_chain_app(exec_time=0.010)
        controller = GlobalController(
            app, make_deployment(app),
            GlobalControllerConfig(learn_profiles=True))
        controller.observe([make_report(
            "west", {"default": 300.0},
            exec_times={("S1", "default"): 0.020})])
        spec = controller.build_problem().workloads["default"].spec
        assert spec.exec_time_of("S1") == pytest.approx(0.020)
        assert spec.exec_time_of("S2") == pytest.approx(0.010)   # spec value

    def test_learn_profiles_off_uses_spec(self):
        app = linear_chain_app(exec_time=0.010)
        controller = GlobalController(
            app, make_deployment(app),
            GlobalControllerConfig(learn_profiles=False))
        controller.observe([make_report(
            "west", {"default": 300.0},
            exec_times={("S1", "default"): 0.050})])
        spec = controller.build_problem().workloads["default"].spec
        assert spec.exec_time_of("S1") == pytest.approx(0.010)

    def test_oracle_matches_manual_problem(self):
        app = linear_chain_app()
        deployment = make_deployment(app)
        demand = DemandMatrix({("default", "west"): 600.0,
                               ("default", "east"): 100.0})
        result = GlobalController.oracle(app, deployment, demand)
        assert result.ok
        assert result.total_demand == 700.0
