"""Repeated models: fingerprints, hot starts and controller wiring.

``model_fingerprint`` tells models apart byte for byte. The epoch
solver's one-slot hot start must return each model's own optimum when
demand alternates, and a failed solve must leave no basis behind. The
wiring contract: an adaptive Global Controller with quantized demand
re-plans a steady epoch's unchanged LP in zero simplex iterations.
"""

from __future__ import annotations

import pytest

from repro.core.controller.global_controller import (GlobalController,
                                                     GlobalControllerConfig)
from repro.core.optimizer import (EpochSolver, TEProblem, build_model,
                                  model_fingerprint)
from repro.core.optimizer.solve import SolverError
from repro.mesh.telemetry import ClusterEpochReport
from repro.sim import (DemandMatrix, DeploymentSpec, linear_chain_app,
                       two_region_latency)


def problems_on_one_deployment(n_services=3):
    """``(west_rps, east_rps) → TEProblem`` over one app and deployment,
    so successive problems share a model structure (a hot start needs
    the same latency object)."""
    app = linear_chain_app(n_services=n_services, exec_time=0.008)
    deployment = DeploymentSpec.uniform(
        app.services(), ["west", "east"], replicas=5,
        latency=two_region_latency(25.0))

    def problem(west_rps, east_rps=100.0):
        demand = DemandMatrix({("default", "west"): west_rps,
                               ("default", "east"): east_rps})
        return TEProblem.from_specs(app, deployment, demand)
    return problem


def make_problem(west_rps=300.0, east_rps=100.0, n_services=3):
    return problems_on_one_deployment(n_services)(west_rps, east_rps)


def make_report(cluster, rps, duration=5.0):
    report = ClusterEpochReport(cluster=cluster, start_time=0.0,
                                duration=duration)
    report.ingress_counts["default"] = int(rps * duration)
    return report


# ------------------------------------------------------------ fingerprints


def test_fingerprint_deterministic_across_builds():
    first = build_model(make_problem())
    second = build_model(make_problem())
    assert model_fingerprint(first) == model_fingerprint(second)


def test_fingerprint_distinguishes_models():
    base = model_fingerprint(build_model(make_problem()))
    more_demand = model_fingerprint(build_model(make_problem(west_rps=310.0)))
    bigger_app = model_fingerprint(build_model(make_problem(n_services=4)))
    assert len({base, more_demand, bigger_app}) == 3


# ------------------------------------------------- repeated and failed LPs


def test_distinct_models_never_collide():
    """Alternating between two demands, each hot start returns its own
    model's optimum, never the other's."""
    problem = problems_on_one_deployment()
    solver = EpochSolver()
    first = solver.solve(problem(300.0))
    second = solver.solve(problem(420.0))
    assert second.warm_start and second.flows != first.flows
    again_first = solver.solve(problem(300.0))
    again_second = solver.solve(problem(420.0))
    assert again_first.warm_start and again_second.warm_start
    assert again_first.flows == first.flows
    assert again_second.flows == second.flows


def test_failed_solves_are_not_cached():
    """An infeasible epoch keeps no basis: the next epoch solves cold and
    returns what a fresh solver returns."""
    problem = problems_on_one_deployment()
    solver = EpochSolver()
    solver.solve(problem(300.0))
    with pytest.raises(SolverError):
        solver.solve(problem(50_000.0))   # beyond global capacity
    after = solver.solve(problem(300.0))
    assert after.warm_build and after.hot_start is None
    assert after == EpochSolver().solve(problem(300.0))


# ---------------------------------------------------- controller wiring


def controller_with(config):
    app = linear_chain_app(n_services=3, exec_time=0.008)
    deployment = DeploymentSpec.uniform(
        app.services(), ["west", "east"], replicas=5,
        latency=two_region_latency(25.0))
    return GlobalController(app, deployment, config)


def test_quantized_controller_hot_starts_an_unchanged_lp():
    """Sub-quantum jitter leaves the quantized LP unchanged: every epoch
    after the first re-plans it as a hot start that ends optimal after
    zero simplex iterations, and ships the previous epoch's rules."""
    controller = controller_with(GlobalControllerConfig(
        learn_profiles=False, demand_quantum=25.0))
    previous = None
    # steady demand with sub-quantum telemetry jitter across epochs
    for jitter in (0.0, 4.0, -6.0, 3.0):
        controller.observe([make_report("west", 300.0 + jitter),
                            make_report("east", 120.0 + jitter)])
        result = controller.plan()
        assert result is not None and result.ok
        if previous is not None:
            assert result.hot_start == "optimal"
            assert result.certificate.simplex_iteration_count == 0
            assert result.rules().by_key() == previous.rules().by_key()
        previous = result
    stats = controller.epoch_solver.stats()
    assert stats["solves"] == 4 and stats["warm_solves"] == 3


def test_unquantized_controller_resolves_every_epoch():
    controller = controller_with(GlobalControllerConfig(
        learn_profiles=False, demand_quantum=0.0))
    planned = []
    for jitter in (0.0, 4.0, -6.0):
        controller.observe([make_report("west", 300.0 + jitter),
                            make_report("east", 120.0)])
        result = controller.plan()
        assert result.ok
        planned.append(result.total_demand)
    # EWMA jitter makes every instance numerically fresh
    assert len(set(planned)) == 3
