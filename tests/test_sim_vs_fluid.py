"""Cross-validation: the simulator, the fluid kernel and the optimizer agree.

The discrete-event simulator (with real queueing and sampling noise) and
the steady-state fluid evaluator — the fluid substrate's propagation
kernel priced with the queueing models — must agree on means for stable
scenarios, and the optimizer's own prediction for its plan must equal the
kernel's evaluation of the rules it emits. Disagreement indicates a bug in
one of them — this is the strongest correctness check in the suite.
"""

import pytest

from repro.analysis.fluid import evaluate_rules
from repro.core.controller.global_controller import (GlobalController,
                                                     GlobalControllerConfig)
from repro.experiments.scenarios import (fig6a_how_much, fig6b_which_cluster,
                                         fig6c_multihop,
                                         fig6d_traffic_classes)
from repro.core.rules import RoutingRule, RuleSet
from repro.mesh.routing_table import WILDCARD_CLASS
from repro.sim import (DemandMatrix, DeploymentSpec, linear_chain_app,
                       two_region_latency)
from repro.sim.runner import MeshSimulation


def setup(replicas=5):
    app = linear_chain_app(n_services=3, exec_time=0.010)
    deployment = DeploymentSpec.uniform(
        app.services(), ["west", "east"], replicas=replicas,
        latency=two_region_latency(25.0))
    return app, deployment


def simulate(app, deployment, demand, rules, duration=60.0, seed=11):
    sim = MeshSimulation(app, deployment, seed=seed)
    rules.apply(sim.table)
    sim.run(demand, duration=duration)
    lats = sim.telemetry.latencies(after=duration / 6)
    mean = sum(lats) / len(lats)
    egress_rate = sim.network.ledger.total_cost / duration
    return mean, egress_rate


def split_rules(app, fraction_east):
    rules = RuleSet()
    for service in app.services():
        for cluster in ("west", "east"):
            if cluster == "west" and service == "S1":
                rules.add(RoutingRule.make(
                    service, WILDCARD_CLASS, cluster,
                    {"west": 1 - fraction_east, "east": fraction_east}))
            else:
                rules.add(RoutingRule.make(service, WILDCARD_CLASS, cluster,
                                           {cluster: 1.0}))
    return rules


@pytest.mark.parametrize("west_rps,frac_east", [
    (200.0, 0.0),       # light, all local
    (400.0, 0.0),       # moderate, all local
    (400.0, 0.3),       # moderate with a WAN split
])
def test_sim_mean_matches_fluid(west_rps, frac_east):
    app, deployment = setup()
    demand = DemandMatrix({("default", "west"): west_rps,
                           ("default", "east"): 100.0})
    rules = split_rules(app, frac_east)
    prediction = evaluate_rules(app, deployment, demand, rules)
    measured_mean, measured_egress = simulate(app, deployment, demand, rules)
    assert measured_mean == pytest.approx(prediction.mean_latency, rel=0.08)
    assert measured_egress == pytest.approx(prediction.egress_cost_rate,
                                            rel=0.10, abs=1e-9)


def test_sim_matches_optimizer_prediction_under_slate_rules():
    app, deployment = setup()
    demand = DemandMatrix({("default", "west"): 650.0,
                           ("default", "east"): 100.0})
    result = GlobalController.oracle(app, deployment, demand)
    measured_mean, _ = simulate(app, deployment, demand, result.rules(),
                                duration=60.0)
    # the optimizer's own latency prediction should be realised by the
    # data plane within sampling tolerance
    assert measured_mean == pytest.approx(result.predicted_mean_latency,
                                          rel=0.15)


def test_fluid_agrees_with_optimizer_on_slate_rules():
    app, deployment = setup()
    demand = DemandMatrix({("default", "west"): 650.0,
                           ("default", "east"): 100.0})
    result = GlobalController.oracle(app, deployment, demand)
    prediction = evaluate_rules(app, deployment, demand, result.rules())
    # two independent evaluations of the same routing plan
    assert prediction.mean_latency == pytest.approx(
        result.predicted_mean_latency, rel=1e-9)
    assert prediction.egress_cost_rate == pytest.approx(
        result.predicted_egress_cost_rate, rel=1e-9, abs=1e-12)


FIGURES = {"fig6a": fig6a_how_much, "fig6b": fig6b_which_cluster,
           "fig6c": fig6c_multihop, "fig6d": fig6d_traffic_classes}
CONFIGS = {
    "arc": GlobalControllerConfig(),
    "path-k4": GlobalControllerConfig(formulation="path", path_k=4),
    "mm1": GlobalControllerConfig(delay_model="mm1"),
    "cost": GlobalControllerConfig(cost_weight=1e4),
}


@pytest.mark.parametrize("setting", CONFIGS)
@pytest.mark.parametrize("figure", FIGURES)
def test_optimizer_prediction_equals_the_kernel_on_its_own_rules(figure,
                                                                 setting):
    """The optimizer prices its plan's flows; the kernel re-derives those
    flows from the emitted rules. Same queueing model, same numbers."""
    scenario = FIGURES[figure]().scenario
    config = CONFIGS[setting]
    result = GlobalController(scenario.app, scenario.deployment,
                              config).plan_known(scenario.demand)
    prediction = evaluate_rules(scenario.app, scenario.deployment,
                                scenario.demand, result.rules(),
                                delay_model=config.delay_model)
    assert prediction.mean_latency == pytest.approx(
        result.predicted_mean_latency, rel=1e-9)
    assert prediction.pool_work.keys() <= result.pool_load.keys()
    for pool, work in prediction.pool_work.items():
        assert work == pytest.approx(result.pool_load[pool], rel=1e-9), pool
    for pool in result.pool_load.keys() - prediction.pool_work.keys():
        assert result.pool_load[pool] == 0.0, pool
    assert prediction.egress_cost_rate == pytest.approx(
        result.predicted_egress_cost_rate, rel=1e-9)
