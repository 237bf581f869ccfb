"""Tests for the TE problem, LP model, and solver."""

import math

import pytest

from repro.core.optimizer import (INGRESS_EDGE, SolverError, TEProblem,
                                  build_model, solve)
from repro.core.optimizer.problem import ClassWorkload
from repro.sim import (DemandMatrix, DeploymentSpec, linear_chain_app,
                       two_class_app, two_region_latency)
from repro.sim.topology import ClusterSpec


def chain_specs(west_rps=700.0, east_rps=100.0, replicas=5,
                latency_ms=25.0):
    """(app, deployment, demand) of the two-cluster 3-service chain."""
    app = linear_chain_app(n_services=3, exec_time=0.010)
    deployment = DeploymentSpec.uniform(
        app.services(), ["west", "east"], replicas=replicas,
        latency=two_region_latency(latency_ms))
    demand = DemandMatrix({("default", "west"): west_rps,
                           ("default", "east"): east_rps})
    return app, deployment, demand


def chain_problem(west_rps=700.0, east_rps=100.0, replicas=5,
                  cost_weight=0.0, latency_ms=25.0, **kwargs):
    return TEProblem.from_specs(
        *chain_specs(west_rps, east_rps, replicas, latency_ms),
        cost_weight=cost_weight, **kwargs)


class TestProblem:
    def test_from_specs_structure(self):
        problem = chain_problem()
        assert problem.clusters == ["west", "east"]
        assert problem.replica_count("S1", "west") == 5
        assert problem.workloads["default"].demand == {
            "west": 700.0, "east": 100.0}
        assert problem.total_demand() == 800.0

    def test_pools_only_deployed_and_used(self):
        problem = chain_problem()
        assert len(problem.pools()) == 6   # 3 services x 2 clusters

    def test_validation_unknown_cluster_in_demand(self):
        problem = chain_problem()
        with pytest.raises(ValueError, match="unknown cluster"):
            TEProblem(
                clusters=problem.clusters,
                latency=problem.latency, pricing=problem.pricing,
                replicas=problem.replicas,
                workloads={"default": ClassWorkload(
                    spec=problem.workloads["default"].spec,
                    demand={"mars": 1.0})})

    def test_validation_rho_max(self):
        with pytest.raises(ValueError):
            chain_problem(rho_max=1.5)

    @pytest.mark.parametrize("field", ["cost_weight", "egress_budget"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_validation_rejects_non_finite_or_negative_prices(self, field,
                                                              value):
        # a NaN once passed the `< 0` check and failed only inside linprog
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            chain_problem(**{field: value})

    def test_validation_service_deployed_nowhere(self):
        app = linear_chain_app()
        deployment = DeploymentSpec(
            clusters=[ClusterSpec("west", {"S1": 1, "S2": 1})],   # no S3
            latency=two_region_latency(10.0, west="west", east="unused"))
        demand = DemandMatrix({("default", "west"): 10.0})
        with pytest.raises(ValueError, match="deployed nowhere"):
            TEProblem.from_specs(app, deployment, demand)


class TestModel:
    def test_variable_counts(self):
        model = build_model(chain_problem())
        # 4 edges x 2 src x 2 dst = wait: ingress edge has 2 sources
        # (west, east demand), edges have 2 sources (deployed callers)
        route_vars = len(model.route_vars)
        assert route_vars == (2 * 2) * 3   # 3 logical edges incl. ingress
        assert len(model.pool_columns) == 6


class TestSolve:
    def test_light_load_stays_local(self):
        result = solve(chain_problem(west_rps=200.0, east_rps=100.0))
        assert result.ok
        assert result.ingress_local_fraction("default", "west") == pytest.approx(1.0)
        assert result.predicted_egress_cost_rate == 0.0

    def test_overload_offloads_just_enough(self):
        result = solve(chain_problem(west_rps=700.0, east_rps=100.0))
        local = result.ingress_local_fraction("default", "west")
        assert 0.4 < local < 0.9   # offloads some, not all
        # capacity respected everywhere
        for rho in result.pool_utilization.values():
            assert rho <= 0.951

    def test_demand_conserved_in_flows(self):
        result = solve(chain_problem())
        ingress_total = sum(
            rate for (cls, e, src, dst), rate in result.flows.items()
            if e == INGRESS_EDGE)
        assert ingress_total == pytest.approx(800.0, rel=1e-6)

    def test_downstream_executions_match_demand(self):
        result = solve(chain_problem())
        for edge_index in (0, 1):   # S1->S2, S2->S3
            edge_total = sum(
                rate for (cls, e, src, dst), rate in result.flows.items()
                if e == edge_index)
            assert edge_total == pytest.approx(800.0, rel=1e-6)

    def test_infeasible_demand_raises(self):
        # total capacity 2 clusters x 5 replicas x 100 rps = 1000/service
        with pytest.raises(SolverError):
            solve(chain_problem(west_rps=1500.0, east_rps=100.0))

    def test_predicted_latency_reasonable(self):
        result = solve(chain_problem(west_rps=200.0, east_rps=100.0))
        # lightly loaded local chain: ~3x10ms + small queueing
        assert 0.030 < result.predicted_mean_latency < 0.060

    def test_higher_rtt_means_less_offload(self):
        def local_fraction(one_way_ms):
            app = linear_chain_app(n_services=3, exec_time=0.010)
            deployment = DeploymentSpec.uniform(
                app.services(), ["west", "east"], replicas=5,
                latency=two_region_latency(one_way_ms))
            demand = DemandMatrix({("default", "west"): 600.0,
                                   ("default", "east"): 100.0})
            result = solve(TEProblem.from_specs(app, deployment, demand))
            return result.ingress_local_fraction("default", "west")

        assert local_fraction(5.0) <= local_fraction(50.0)

    def test_cost_weight_keeps_traffic_local(self):
        cheap = solve(chain_problem(west_rps=600.0, cost_weight=0.0))
        pricey = solve(chain_problem(west_rps=600.0, cost_weight=1e7))
        assert (pricey.ingress_local_fraction("default", "west")
                >= cheap.ingress_local_fraction("default", "west"))

    def test_rules_cover_loaded_sources(self):
        result = solve(chain_problem())
        rules = result.rules()
        assert rules.rule_for("S1", "default", "west") is not None
        assert rules.rule_for("S2", "default", "west") is not None
        # east never has load at S-services from west only when offloaded
        assert len(rules) >= 4

    def test_partial_replication_forces_remote(self):
        app = linear_chain_app(n_services=2, exec_time=0.010)
        deployment = DeploymentSpec(
            clusters=[ClusterSpec("west", {"S1": 5}),
                      ClusterSpec("east", {"S1": 5, "S2": 5})],
            latency=two_region_latency(25.0))
        demand = DemandMatrix({("default", "west"): 100.0})
        result = solve(TEProblem.from_specs(app, deployment, demand))
        # S2 only exists east: all S1->S2 flow crosses
        crossing = sum(rate for (cls, e, src, dst), rate
                       in result.flows.items()
                       if e == 0 and src != dst)
        assert crossing == pytest.approx(100.0, rel=1e-6)

    def test_per_class_routing_offloads_heavy_first(self):
        app = two_class_app(light_exec=0.003, heavy_exec=0.045, n_services=2)
        deployment = DeploymentSpec.uniform(
            app.services(), ["west", "east"], replicas=8,
            latency=two_region_latency(25.0))
        demand = DemandMatrix({("L", "west"): 450.0, ("H", "west"): 130.0,
                               ("L", "east"): 100.0, ("H", "east"): 30.0})
        result = solve(TEProblem.from_specs(app, deployment, demand))
        light_local = result.ingress_local_fraction("L", "west")
        heavy_local = result.ingress_local_fraction("H", "west")
        assert heavy_local < light_local
        assert light_local == pytest.approx(1.0, abs=0.01)

    def test_solve_time_recorded(self):
        result = solve(chain_problem())
        assert result.solve_time > 0
