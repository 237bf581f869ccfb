"""One rule-precedence chain: the proxy, the fluid tick's routing matrix and
the steady-state evaluator resolve every call the same way.

"Matched rule restricted to deployed clusters → local → nearest deployed"
is :func:`repro.mesh.routing_table.effective_weights`, and the matched
rule is the exact class's if installed, else the wildcard's — never both
(:func:`~repro.mesh.routing_table.matched_weights`). Both functions have a
fixed set of callers, checked by walking the package's syntax trees.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro
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

    # the root service stays at SRC (no rule names it), so every call of
    # ``service`` is issued there and its execution rates are the split
    solution = evaluate_rules(
        app, deployment, DemandMatrix({("default", SRC): 100.0}),
        rule_set).solution
    rates = solution.hop_exec_rates[solution.hops.index(("default", service))]
    total = float(rates.sum())
    fluid_split = {c: rate / total
                   for c, rate in zip(solution.clusters, rates.tolist())
                   if rate > 0}
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


PRECEDENCE_FUNCTIONS = {"effective_weights", "matched_weights"}


class _PrecedenceCalls(ast.NodeVisitor):
    """Collects ``(enclosing Class.function, callee)`` for every call of a
    ``PRECEDENCE_FUNCTIONS`` name in one module: bare, imported under
    another name, or as a module attribute."""

    def __init__(self) -> None:
        self.names = {name: name for name in PRECEDENCE_FUNCTIONS}
        self.scope: list[str] = []
        self.calls: list[tuple[str, str]] = []

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            if alias.name in PRECEDENCE_FUNCTIONS:
                self.names[alias.asname or alias.name] = alias.name

    def _scoped(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _scoped

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            name = self.names.get(func.id)
        elif isinstance(func, ast.Attribute):
            name = func.attr if func.attr in PRECEDENCE_FUNCTIONS else None
        else:
            name = None
        if name is not None:
            self.calls.append((".".join(self.scope), name))
        self.generic_visit(node)


def precedence_calls(source: str) -> list[tuple[str, str]]:
    visitor = _PrecedenceCalls()
    visitor.visit(ast.parse(source))
    return visitor.calls


@pytest.mark.parametrize("source", [
    "from m import effective_weights\nclass C:\n    def f(self):\n"
    "        effective_weights()",
    "from m import effective_weights as ew\nclass C:\n    def f(self):\n"
    "        ew()",
    "import m\nclass C:\n    def f(self):\n        m.effective_weights()",
])
def test_the_precedence_call_finder_sees_every_spelling(source):
    assert precedence_calls(source) == [("C.f", "effective_weights")]


def test_the_precedence_chain_has_exactly_its_three_callers():
    """The proxy's route compiler and the fluid kernel's routing matrix are
    the only places a matched rule becomes a split, and the routing table
    is the only place a rule is matched: the steady-state evaluator runs
    the kernel, so a fourth resolution of a call fails here."""
    root = Path(repro.__file__).parent
    calls = [(path.relative_to(root).as_posix(), *call)
             for path in sorted(root.rglob("*.py"))
             for call in precedence_calls(path.read_text(encoding="utf-8"))]
    assert calls == [
        ("mesh/proxy.py", "SlateProxy._compile", "effective_weights"),
        ("mesh/routing_table.py", "RoutingTable.weights_for",
         "matched_weights"),
        ("sim/fluid/flows.py", "FlowModel.routing_matrix",
         "effective_weights"),
    ]
