"""Tests for the fluid-model evaluator."""

import math

import pytest

from repro.analysis.fluid import evaluate_rules
from repro.core.rules import RoutingRule, RuleSet
from repro.mesh.routing_table import WILDCARD_CLASS
from repro.sim import (DemandMatrix, DeploymentSpec, MeshSimulation,
                       linear_chain_app, two_region_latency)
from repro.sim.topology import ClusterSpec


def chain_setup(replicas=5):
    app = linear_chain_app(n_services=3, exec_time=0.010)
    deployment = DeploymentSpec.uniform(
        app.services(), ["west", "east"], replicas=replicas,
        latency=two_region_latency(25.0))
    return app, deployment


def local_rules(app, clusters):
    rules = RuleSet()
    for service in app.services():
        for cluster in clusters:
            rules.add(RoutingRule.make(service, WILDCARD_CLASS, cluster,
                                       {cluster: 1.0}))
    return rules


def test_local_rules_load_all_local():
    app, deployment = chain_setup()
    demand = DemandMatrix({("default", "west"): 300.0})
    prediction = evaluate_rules(app, deployment, demand,
                                local_rules(app, ["west", "east"]))
    assert prediction.pool_work[("S1", "west")] == pytest.approx(3.0)
    assert ("S1", "east") not in prediction.pool_work
    assert prediction.egress_cost_rate == 0.0
    assert prediction.cross_cluster_rate() == 0.0


def test_mean_latency_matches_queueing_theory():
    app, deployment = chain_setup()
    demand = DemandMatrix({("default", "west"): 300.0})
    prediction = evaluate_rules(app, deployment, demand,
                                local_rules(app, ["west", "east"]))
    from repro.core.latency.mm1 import mmc_sojourn
    per_service = mmc_sojourn(300.0, 0.010, 5)
    hops = 3 * 2 * 0.00025
    assert prediction.mean_latency == pytest.approx(3 * per_service + hops,
                                                    rel=1e-9)


def test_split_rule_divides_load():
    app, deployment = chain_setup()
    demand = DemandMatrix({("default", "west"): 400.0})
    rules = local_rules(app, ["west", "east"])
    rules = RuleSet([r for r in rules
                     if not (r.service == "S1" and r.src_cluster == "west")])
    rules.add(RoutingRule.make("S1", "default", "west",
                               {"west": 0.75, "east": 0.25}))
    prediction = evaluate_rules(app, deployment, demand, rules)
    assert prediction.pool_work[("S1", "west")] == pytest.approx(3.0)
    assert prediction.pool_work[("S1", "east")] == pytest.approx(1.0)
    # offloaded requests continue at their serving cluster (S2 east local)
    assert prediction.pool_work[("S2", "east")] == pytest.approx(1.0)
    assert prediction.cross_cluster_rate() == pytest.approx(100.0)


def test_unstable_pool_infinite_latency():
    app, deployment = chain_setup(replicas=2)   # capacity 200 rps
    demand = DemandMatrix({("default", "west"): 300.0})
    prediction = evaluate_rules(app, deployment, demand,
                                local_rules(app, ["west", "east"]))
    assert not prediction.stable
    assert prediction.mean_latency == math.inf


def test_default_routing_when_no_rules():
    app, deployment = chain_setup()
    demand = DemandMatrix({("default", "west"): 100.0})
    prediction = evaluate_rules(app, deployment, demand, RuleSet())
    # proxy default: local
    assert prediction.pool_work[("S1", "west")] == pytest.approx(1.0)


def test_default_failover_when_missing_locally():
    app = linear_chain_app(n_services=2, exec_time=0.010)
    deployment = DeploymentSpec(
        clusters=[ClusterSpec("west", {"S1": 5}),
                  ClusterSpec("east", {"S1": 5, "S2": 5})],
        latency=two_region_latency(25.0))
    demand = DemandMatrix({("default", "west"): 100.0})
    prediction = evaluate_rules(app, deployment, demand, RuleSet())
    assert prediction.pool_work[("S2", "east")] == pytest.approx(1.0)
    assert prediction.cross_cluster_rate() == pytest.approx(100.0)
    assert prediction.egress_cost_rate > 0


def test_egress_cost_accounting():
    app, deployment = chain_setup()
    demand = DemandMatrix({("default", "west"): 100.0})
    rules = local_rules(app, ["west", "east"])
    rules = RuleSet([r for r in rules
                     if not (r.service == "S2" and r.src_cluster == "west")])
    rules.add(RoutingRule.make("S2", "default", "west", {"east": 1.0}))
    prediction = evaluate_rules(app, deployment, demand, rules)
    # 100 rps crossing with 1KB request + 10KB response at $0.02/GB
    expected = 100.0 * (1000 + 10000) * 0.02 / 1e9
    assert prediction.egress_cost_rate == pytest.approx(expected)
    assert prediction.egress_bytes_rate == pytest.approx(100.0 * 11000)


def test_wildcard_rules_apply():
    app, deployment = chain_setup()
    demand = DemandMatrix({("default", "west"): 100.0})
    rules = RuleSet([RoutingRule.make("S1", WILDCARD_CLASS, "west",
                                      {"east": 1.0})])
    prediction = evaluate_rules(app, deployment, demand, rules)
    assert prediction.pool_work[("S1", "east")] == pytest.approx(1.0)


def test_network_delay_rate():
    app, deployment = chain_setup()
    demand = DemandMatrix({("default", "west"): 100.0})
    rules = RuleSet([RoutingRule.make("S1", WILDCARD_CLASS, "west",
                                      {"east": 1.0})])
    prediction = evaluate_rules(app, deployment, demand, rules)
    # ingress crossing west->east at 50ms RTT plus intra hops
    intra = 0.00025 * 2
    expected = 100.0 * (0.050 + 2 * intra)   # ingress WAN + 2 local calls
    assert prediction.network_delay_rate == pytest.approx(expected)


@pytest.mark.parametrize("entry,message", [
    (("ghost", "west"), "unknown traffic class 'ghost'"),
    (("default", "wset"), "unknown cluster 'wset'"),
], ids=["class", "cluster"])
def test_demand_naming_an_unknown_class_or_cluster_is_rejected(entry,
                                                               message):
    """Demand the mesh cannot carry must not dilute the mean latency: the
    evaluator rejects it with the simulator's own messages (it used to skip
    the entry but count it in ``total_demand``, halving 35.04 ms)."""
    app, deployment = chain_setup()
    demand = DemandMatrix({("default", "west"): 300.0, entry: 300.0})
    with pytest.raises(ValueError, match=message):
        evaluate_rules(app, deployment, demand, RuleSet())
    with pytest.raises(ValueError, match=message):
        MeshSimulation(app, deployment).run(demand, duration=1.0)
