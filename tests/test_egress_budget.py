"""Tests for the hard egress-budget constraint."""

import pytest

from repro.core.optimizer import SolverError, TEProblem, solve
from repro.sim import (DemandMatrix, DeploymentSpec, anomaly_detection_app,
                       two_region_latency)
from repro.sim.topology import ClusterSpec


def make_problem(egress_budget=None, west_rps=300.0):
    """The fig6c-like setting where latency optimum costs real egress."""
    app = anomaly_detection_app()
    deployment = DeploymentSpec(
        clusters=[ClusterSpec("west", {"FR": 4, "MP": 5}),     # no DB
                  ClusterSpec("east", {"FR": 4, "MP": 8, "DB": 8})],
        latency=two_region_latency(25.0))
    demand = DemandMatrix({("default", "west"): west_rps,
                           ("default", "east"): 100.0})
    return TEProblem.from_specs(app, deployment, demand,
                                egress_budget=egress_budget)


def test_unconstrained_baseline_cost():
    result = solve(make_problem())
    assert result.predicted_egress_cost_rate > 0


def test_budget_binds_and_is_respected():
    unconstrained = solve(make_problem())
    budget = unconstrained.predicted_egress_cost_rate * 0.5
    constrained = solve(make_problem(egress_budget=budget))
    assert constrained.predicted_egress_cost_rate <= budget * 1.001
    # paying less means accepting worse latency
    assert (constrained.predicted_mean_latency
            >= unconstrained.predicted_mean_latency - 1e-9)


def test_loose_budget_changes_nothing():
    unconstrained = solve(make_problem())
    loose = solve(make_problem(
        egress_budget=unconstrained.predicted_egress_cost_rate * 10))
    assert loose.objective == pytest.approx(unconstrained.objective,
                                            rel=1e-6)


def test_impossible_budget_infeasible():
    # West traffic MUST reach DB in east somehow: zero budget is infeasible
    with pytest.raises(SolverError):
        solve(make_problem(egress_budget=0.0))


def test_negative_budget_rejected():
    with pytest.raises(ValueError):
        make_problem(egress_budget=-1.0)


def test_budget_tightening_is_monotone():
    unconstrained = solve(make_problem())
    base_cost = unconstrained.predicted_egress_cost_rate
    latencies = []
    for fraction in (1.0, 0.7, 0.4):
        result = solve(make_problem(egress_budget=base_cost * fraction))
        latencies.append(result.predicted_mean_latency)
    assert latencies == sorted(latencies)   # tighter budget, more latency


def test_static_slate_policy_honours_the_budget():
    """Regression: ``SlatePolicy.compute_rules`` used to drop
    ``config.egress_budget`` on its way to the oracle and plan uncapped."""
    from repro.analysis.fluid import evaluate_rules
    from repro.baselines.base import PolicyContext
    from repro.core.controller.global_controller import GlobalControllerConfig
    from repro.core.controller.policy import SlatePolicy

    app = anomaly_detection_app()
    deployment = DeploymentSpec(
        clusters=[ClusterSpec("west", {"FR": 4, "MP": 5}),
                  ClusterSpec("east", {"FR": 4, "MP": 8, "DB": 8})],
        latency=two_region_latency(25.0))
    demand = DemandMatrix({("default", "west"): 300.0,
                           ("default", "east"): 100.0})
    ctx = PolicyContext(app, deployment, demand)

    def planned(budget):
        rules = SlatePolicy(GlobalControllerConfig(
            egress_budget=budget)).compute_rules(ctx)
        cost = evaluate_rules(app, deployment, demand, rules).egress_cost_rate
        return rules, cost

    uncapped_rules, uncapped_cost = planned(None)
    budget = uncapped_cost * 0.5
    capped_rules, capped_cost = planned(budget)
    assert uncapped_cost > 0
    assert capped_cost <= budget * 1.001
    assert capped_rules.by_key() != uncapped_rules.by_key()
