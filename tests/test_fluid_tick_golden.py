"""Tick-equivalence goldens for the fluid flow model (ISSUE 12).

``tests/golden/fluid_ticks.json`` freezes, float for float, what
:meth:`FlowModel.propagate` returned *before* the tick was compiled into
depth-batched array operations: per-class execution/remote rates, failed
rate, WAN delay rate and mean latency; per-pool arrival, offered work and
M/M/c wait; the egress matrix and its cost rate. The compiled tick must
reproduce every number exactly (``==``, not ``approx``): it evaluates the
same floating-point expressions in the same association order, only
batched.

The scenarios cover each branch of the propagation: local-only defaults,
weighted cross-cluster rules with egress, partial replication (nearest
deployed fallback), branching trees of unequal depth with fan-outs other
than 1 (including a zero-call edge) and classes sharing services, an
active partition, a degraded pool, a saturated pool that sheds, and a
wide synthetic mesh whose 12 clusters and 600-replica pools exercise
numpy's pairwise summation and the series form of Erlang-C.

Regenerate (only when the *model* is meant to change):
``PYTHONPATH=src python tests/test_fluid_tick_golden.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.scenarios import synthetic_te_problem
from repro.mesh.routing_table import RouteKey, RoutingTable
from repro.sim import (DemandMatrix, DeploymentSpec, linear_chain_app,
                       two_region_latency)
from repro.sim.apps import (AppSpec, CallEdge, RequestAttributes,
                            TrafficClassSpec, fanout_app,
                            social_network_app, two_class_app)
from repro.sim.fluid import FlowModel
from repro.sim.rng import RngRegistry
from repro.sim.topology import ClusterSpec, gcp_four_region_latency

GOLDEN = Path(__file__).parent / "golden" / "fluid_ticks.json"


def pool_state_of(deployment, slowdowns=None):
    slowdowns = slowdowns or {}
    return {(service, spec.name): (count, slowdowns.get((service, spec.name),
                                                        1.0))
            for spec in deployment.clusters
            for service, count in spec.replicas.items() if count > 0}


def flow_model(app, deployment, rules=None) -> FlowModel:
    table = RoutingTable()
    for (service, cls, src), weights in (rules or {}).items():
        table.set_weights(RouteKey(service, cls, src), weights)
    return FlowModel(app, deployment, table, deployment.latency,
                     deployment.pricing)


def chain_world(replicas: int = 8):
    app = linear_chain_app(n_services=3, exec_time=0.010)
    deployment = DeploymentSpec.uniform(
        app.services(), ["west", "east"], replicas=replicas,
        latency=two_region_latency(25.0))
    return app, deployment


def west_heavy() -> DemandMatrix:
    return DemandMatrix({("default", "west"): 650.0,
                         ("default", "east"): 100.0})


def chain_rules(app):
    s1, s2, s3 = app.services()
    return {(s1, "default", "west"): {"west": 0.7, "east": 0.3},
            (s2, "default", "west"): {"west": 0.55, "east": 0.45},
            (s3, "default", "east"): {"east": 0.9, "west": 0.1},
            (s3, "*", "west"): {"west": 1.0, "east": 2.0}}


def all_local():
    app, deployment = chain_world()
    return flow_model(app, deployment), west_heavy(), pool_state_of(deployment)


def weighted_splits():
    app, deployment = chain_world()
    return (flow_model(app, deployment, chain_rules(app)), west_heavy(),
            pool_state_of(deployment))


def partial_replication():
    app = linear_chain_app(n_services=3, exec_time=0.006)
    s1, s2, s3 = app.services()
    deployment = DeploymentSpec(
        [ClusterSpec("OR", {s1: 6, s2: 6}),
         ClusterSpec("UT", {s1: 6, s3: 9}),
         ClusterSpec("IOW", {s1: 6, s2: 6, s3: 9}),
         ClusterSpec("SC", {s1: 6})],
        gcp_four_region_latency())
    demand = DemandMatrix({("default", "OR"): 210.0, ("default", "UT"): 95.5,
                           ("default", "IOW"): 130.25,
                           ("default", "SC"): 77.0})
    # a rule naming an undeployed cluster is restricted to deployed ones
    rules = {(s2, "default", "SC"): {"SC": 0.5, "OR": 0.25, "IOW": 0.25}}
    return (flow_model(app, deployment, rules), demand,
            pool_state_of(deployment))


def social_network():
    app = social_network_app()
    deployment = DeploymentSpec.uniform(
        app.services(), ["OR", "UT", "IOW", "SC"], replicas=12,
        latency=gcp_four_region_latency())
    demand = DemandMatrix({("read", "OR"): 400.0, ("read", "SC"): 150.0,
                           ("compose", "OR"): 60.0,
                           ("compose", "UT"): 45.0})
    rules = {("TL", "read", "OR"): {"OR": 0.5, "UT": 0.3, "IOW": 0.2},
             ("PS", "*", "UT"): {"UT": 1.0, "IOW": 1.0},
             ("TL", "compose", "OR"): {"UT": 1.0},
             ("MD", "compose", "UT"): {"SC": 0.125, "UT": 0.875}}
    return (flow_model(app, deployment, rules), demand,
            pool_state_of(deployment))


def uneven_trees():
    """Two classes over shared services; depths 4 and 2; odd fan-outs."""
    deep = TrafficClassSpec(
        name="deep",
        attributes=RequestAttributes.make("FE", "GET", "/deep"),
        root_service="FE",
        edges=[CallEdge("FE", "A", calls_per_request=2.5),
               CallEdge("FE", "B", calls_per_request=0.25,
                        request_bytes=0, response_bytes=0),
               CallEdge("A", "C", calls_per_request=1.5,
                        request_bytes=3_000, response_bytes=0),
               CallEdge("C", "D", calls_per_request=0.0),
               CallEdge("D", "E"),
               CallEdge("B", "F", calls_per_request=3.0)],
        exec_time={"FE": 0.001, "A": 0.002, "B": 0.004, "C": 0.003,
                   "F": 0.0005},
        ingress_request_bytes=0, ingress_response_bytes=0)
    wide = TrafficClassSpec(
        name="wide",
        attributes=RequestAttributes.make("FE", "GET", "/wide"),
        root_service="FE",
        edges=[CallEdge("FE", "C"), CallEdge("FE", "F", 0.75),
               CallEdge("FE", "A", 1.25)],
        exec_time={"FE": 0.002, "A": 0.001, "C": 0.006, "F": 0.002})
    idle = TrafficClassSpec(
        name="idle",
        attributes=RequestAttributes.make("FE", "GET", "/idle"),
        root_service="FE", edges=[CallEdge("FE", "A")],
        exec_time={"FE": 0.001, "A": 0.001})
    app = AppSpec(name="uneven", classes={"wide": wide, "deep": deep,
                                          "idle": idle})
    deployment = DeploymentSpec.uniform(
        app.services(), ["OR", "UT", "IOW", "SC"], replicas=10,
        latency=gcp_four_region_latency())
    demand = DemandMatrix({("deep", "OR"): 120.0, ("deep", "IOW"): 33.3,
                           ("wide", "UT"): 210.0, ("wide", "SC"): 18.75})
    rules = {("A", "deep", "OR"): {"OR": 0.4, "UT": 0.6},
             ("C", "*", "UT"): {"UT": 0.5, "IOW": 0.5},
             ("F", "wide", "UT"): {"SC": 1.0},
             ("F", "deep", "UT"): {"OR": 0.3, "UT": 0.7}}
    return (flow_model(app, deployment, rules), demand,
            pool_state_of(deployment))


def fanout():
    app = fanout_app(width=3)
    deployment = DeploymentSpec.uniform(
        app.services(), ["west", "east"], replicas=6,
        latency=two_region_latency(12.5))
    demand = DemandMatrix({("default", "west"): 300.0,
                           ("default", "east"): 40.0})
    rules = {("B2", "default", "west"): {"west": 0.6, "east": 0.4}}
    return (flow_model(app, deployment, rules), demand,
            pool_state_of(deployment))


def partitioned():
    app = linear_chain_app(n_services=3, exec_time=0.008)
    s1, s2, s3 = app.services()
    deployment = DeploymentSpec.uniform(
        app.services(), ["OR", "UT", "IOW", "SC"], replicas=10,
        latency=gcp_four_region_latency())
    deployment.latency.apply_override("OR", "UT", partition=True)
    deployment.latency.apply_override("IOW", "SC", extra_delay=0.010,
                                      multiplier=1.5)
    demand = DemandMatrix({("default", "OR"): 300.0,
                           ("default", "UT"): 120.0,
                           ("default", "SC"): 80.0})
    rules = {(s2, "default", "OR"): {"OR": 0.5, "UT": 0.3, "IOW": 0.2},
             (s3, "default", "UT"): {"OR": 0.25, "UT": 0.75},
             (s3, "default", "SC"): {"IOW": 0.5, "SC": 0.5}}
    return (flow_model(app, deployment, rules), demand,
            pool_state_of(deployment))


def degraded():
    app, deployment = chain_world()
    s1, s2, s3 = app.services()
    slow = {(s2, "west"): 2.5, (s3, "east"): 0.5}
    return (flow_model(app, deployment, chain_rules(app)), west_heavy(),
            pool_state_of(deployment, slow))


def saturated():
    app = two_class_app()
    deployment = DeploymentSpec.uniform(
        app.services(), ["west", "east"], replicas=4,
        latency=two_region_latency(25.0))
    # west S1/S2 offered: 500*0.004 + 90*0.040 = 5.6 erlangs on 4 replicas
    demand = DemandMatrix({("L", "west"): 500.0, ("H", "west"): 90.0,
                           ("L", "east"): 100.0, ("H", "east"): 10.0})
    rules = {("S2", "H", "west"): {"west": 0.8, "east": 0.2}}
    return (flow_model(app, deployment, rules), demand,
            pool_state_of(deployment, {("S1", "west"): 1.25}))


def specs_of(problem):
    """The (app, deployment, demand) a synthetic ``TEProblem`` stands for."""
    app = AppSpec(name="synthetic", classes={
        name: workload.spec for name, workload in problem.workloads.items()})
    deployment = DeploymentSpec(
        [ClusterSpec(cluster, {service: count for (service, where), count
                               in problem.replicas.items()
                               if where == cluster})
         for cluster in problem.clusters],
        problem.latency, problem.pricing)
    demand = DemandMatrix({
        (name, cluster): rps
        for name, workload in problem.workloads.items()
        for cluster, rps in workload.demand.items()})
    return app, deployment, demand


def wide_synthetic():
    app, deployment, even = specs_of(synthetic_te_problem(
        12, 3, 10, rps_per_class=16000.0, replication=0.5,
        ingresses_per_class=3, replicas=600, seed=7))
    growth = {name: 1.0 + 0.03125 * index
              for index, name in enumerate(sorted(app.classes))}
    demand = DemandMatrix({(name, cluster): rps * growth[name]
                           for name, cluster, rps in even.items()})
    rng = RngRegistry(seed=7).stream("golden/wide-rules")
    rules = {}
    for name in sorted(app.classes):
        for service in app.services():
            deployed = deployment.clusters_with(service)
            for src in deployment.cluster_names:
                if rng.random() < 0.5:
                    continue
                chosen = rng.choice(len(deployed), size=2, replace=False)
                rules[(service, name, src)] = {
                    deployed[int(slot)]: float(rng.integers(1, 9))
                    for slot in chosen}
    return (flow_model(app, deployment, rules), demand,
            pool_state_of(deployment))


SCENARIOS = {fn.__name__: fn for fn in (
    all_local, weighted_splits, partial_replication, social_network,
    uneven_trees, fanout, partitioned, degraded, saturated, wide_synthetic)}


def _pools(values: dict) -> dict:
    return {f"{service}@{cluster}": value
            for (service, cluster), value in values.items()}


def snapshot(solution) -> dict:
    """A ``FluidTickSolution`` as JSON-exact plain data."""
    return {
        "clusters": list(solution.clusters),
        "per_class": {
            name: {
                "demand": state.demand.tolist(),
                "exec_rates": {service: rates.tolist() for service, rates
                               in state.exec_rates.items()},
                "remote_rates": {service: rates.tolist() for service, rates
                                 in state.remote_rates.items()},
                "network_delay_rate": state.network_delay_rate,
                "failed_rate": state.failed_rate,
                "mean_latency": state.mean_latency,
            } for name, state in solution.per_class.items()},
        "pool_arrival": _pools(solution.pool_arrival),
        "pool_offered": _pools(solution.pool_offered),
        "pool_wait": _pools(solution.pool_wait),
        "egress_bytes": solution.egress_bytes.tolist(),
        "egress_cost_rate": solution.egress_cost_rate,
    }


def solve(name: str) -> dict:
    model, demand, pool_state = SCENARIOS[name]()
    # through JSON, so -0.0/int-vs-float spellings compare as stored
    return json.loads(json.dumps(snapshot(model.propagate(demand,
                                                          pool_state))))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_scenario(golden):
    assert sorted(golden) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_compiled_tick_reproduces_frozen_solution(name, golden):
    assert solve(name) == golden[name]


def test_goldens_exercise_the_branches_they_claim(golden):
    """Guards the goldens themselves: each scenario hits its branch."""
    def failed(name):
        return sum(state["failed_rate"]
                   for state in golden[name]["per_class"].values())

    def egress(name):
        return sum(map(sum, golden[name]["egress_bytes"]))

    assert egress("all_local") == 0 and failed("all_local") == 0
    assert egress("weighted_splits") > 0
    assert failed("partitioned") > 0
    assert failed("saturated") > 0
    assert failed("degraded") == 0
    assert (golden["degraded"]["pool_offered"]
            != golden["weighted_splits"]["pool_offered"])
    uneven = golden["uneven_trees"]["per_class"]
    assert uneven["idle"]["exec_rates"] == {}
    # the zero-call edge C->D prunes D and E from the deep class
    assert sorted(uneven["deep"]["exec_rates"]) == ["A", "B", "C", "F", "FE"]
    placed = golden["partial_replication"]["pool_arrival"]
    assert "S2@SC" not in placed and "S3@OR" not in placed
    wide = golden["wide_synthetic"]
    assert any(0 < wait < 1 for wait in wide["pool_wait"].values())
    assert len(golden["wide_synthetic"]["clusters"]) == 12


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({name: solve(name) for name in sorted(SCENARIOS)},
                   indent=1, sort_keys=True) + "\n", encoding="utf-8")
