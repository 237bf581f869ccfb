"""One rule-precedence chain: the proxy, the fluid tick's routing matrix and
the steady-state evaluator resolve every call the same way.

"Matched rule restricted to deployed clusters → local → nearest deployed"
is :func:`repro.mesh.routing_table.effective_weights`, and the matched
rule is the exact class's if installed, else the wildcard's — never both.
"""

import numpy as np
import pytest

from repro.analysis.fluid import evaluate_rules
from repro.core.rules import RoutingRule, RuleSet
from repro.mesh.proxy import SlateProxy
from repro.mesh.routing_table import (WILDCARD_CLASS, RoutingTable,
                                      effective_weights, matched_weights)
from repro.sim import (DemandMatrix, DeploymentSpec, gcp_four_region_latency,
                       linear_chain_app)
from repro.sim.fluid.flows import FlowModel

SRC = "OR"


def mesh(rules, undeploy=()):
    """GCP four regions, three-service chain, ``rules`` installed; the
    (service, cluster) pairs in ``undeploy`` removed from the placement."""
    app = linear_chain_app(3)
    deployment = DeploymentSpec.uniform(
        app.services(), ["OR", "UT", "IOW", "SC"], replicas=4,
        latency=gcp_four_region_latency())
    for service, cluster in undeploy:
        del deployment.cluster(cluster).replicas[service]
    rule_set = RuleSet([RoutingRule.make(service, cls, SRC, weights)
                        for service, cls, weights in rules])
    return app, deployment, rule_set


def three_views(app, deployment, rule_set, service="S2"):
    """Where 100 rps of ``service`` calls issued at ``SRC`` go, according
    to the proxy, the fluid routing matrix and ``evaluate_rules``."""
    table = RoutingTable()
    rule_set.apply(table)
    proxy = SlateProxy(SRC, table, deployment, deployment.latency,
                       np.random.default_rng(0))
    draws = [proxy.choose_cluster(service, "default") for _ in range(400)]
    proxy_split = {c: draws.count(c) / len(draws)
                   for c in sorted(set(draws))}

    flows = FlowModel(app, deployment, table, deployment.latency,
                      deployment.pricing)
    row = flows.routing_matrix(service, "default")[flows.clusters.index(SRC)]
    matrix_split = {c: w for c, w in zip(flows.clusters, row) if w > 0}

    prediction = evaluate_rules(
        app, deployment, DemandMatrix({("default", SRC): 100.0}), rule_set)
    edge = app.classes["default"].services().index(service) - 1
    issued = [f for f in prediction.flows
              if f.edge_index == edge and f.src == SRC]
    total = sum(f.rate for f in issued)
    fluid_split = {f.dst: f.rate / total for f in issued}
    return proxy_split, matrix_split, fluid_split


def test_class_rule_with_no_usable_destination_does_not_reach_the_wildcard():
    """A class rule that outlived a decommission (S2 gone from UT) while a
    wildcard rule is installed: the class rule still *is* the match, so
    the call falls back to the local cluster — in all three views."""
    views = three_views(*mesh(
        [("S2", "default", {"UT": 1.0}), ("S2", WILDCARD_CLASS, {"IOW": 1.0})],
        undeploy=[("S2", "UT")]))
    assert views == ({"OR": 1.0},) * 3


@pytest.mark.parametrize("rules,undeploy,expected", [
    ([], [], {"OR": 1.0}),                                   # no rule: local
    ([("S2", "default", {"OR": 1.0})], [], {"OR": 1.0}),       # local rule
    ([], [("S2", "OR")], {"UT": 1.0}),         # nearest failover (30 ms RTT)
    ([("S2", WILDCARD_CLASS, {"IOW": 1.0})], [], {"IOW": 1.0}),  # wildcard
    ([("S2", "default", {"UT": 1.0, "SC": 1.0})], [("S2", "UT")],
     {"SC": 1.0}),                             # rule restricted to deployed
], ids=["no-rule", "local", "nearest-failover", "wildcard", "restricted"])
def test_three_views_agree(rules, undeploy, expected):
    assert three_views(*mesh(rules, undeploy)) == (expected,) * 3


def test_split_rule_agrees_within_sampling_error():
    proxy_split, matrix_split, fluid_split = three_views(*mesh(
        [("S2", "default", {"OR": 3.0, "UT": 1.0})]))
    assert matrix_split == fluid_split == {"OR": 0.75, "UT": 0.25}
    assert proxy_split == pytest.approx(matrix_split, abs=0.08)


def test_effective_weights_keeps_installed_weights():
    latency = gcp_four_region_latency()
    rules = {}
    assert matched_weights(rules, "S2", "default", SRC) is None
    assert effective_weights({"UT": 0.25, "SC": 0.5, "IOW": 0.25}, SRC,
                             ["OR", "UT", "SC"], latency) == {
        "UT": 0.25, "SC": 0.5}
    assert effective_weights(None, SRC, ["UT", "SC"], latency) == {"UT": 1.0}
