"""Plan goldens for the path-formulation control epoch.

``tests/golden/path_plans.json`` freezes what a six-epoch
:class:`GlobalController` run under ``formulation="path"`` planned: per
epoch the LP objective, the predicted mean latency, every pool's offered
load and every routing rule. Every scenario must reproduce every number
float for float — observe, build, solve, extraction and pricing evaluate
the same expressions in the same order or the plan moved.

Regenerate (only when the *model* is meant to change):
``PYTHONPATH=src:. python tests/test_path_plan_golden.py``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.core.controller.global_controller import (GlobalController,
                                                     GlobalControllerConfig)
from repro.experiments.scenarios import synthetic_te_problem
from repro.mesh.telemetry import ClusterEpochReport
from repro.sim import DeploymentSpec, linear_chain_app, two_region_latency
from repro.sim.apps import fanout_app, social_network_app
from repro.sim.network import EgressPricing
from repro.sim.topology import ClusterSpec, gcp_four_region_latency
from tests.test_fluid_tick_golden import specs_of

GOLDEN = Path(__file__).parent / "golden" / "path_plans.json"

EPOCHS = 6
EPOCH_SECONDS = 10.0


def epoch_reports(names, base: dict[tuple[str, str], float],
                  repeat_at: int | None = 4
                  ) -> list[list[ClusterEpochReport]]:
    """Six epochs of ingress counts swinging ±30% around ``base`` rps, each
    cluster on its own phase; epoch ``repeat_at`` repeats the one before."""
    epochs = []
    counts: dict[str, dict[str, int]] = {}
    for e in range(EPOCHS):
        if e != repeat_at:
            counts = {name: {} for name in names}
            for (cls, cluster), rps in sorted(base.items()):
                swing = math.sin(2 * math.pi * (
                    e / 7.3 + names.index(cluster) / len(names)))
                counts[cluster][cls] = round(
                    rps * EPOCH_SECONDS * (1 + 0.3 * swing))
        epochs.append([ClusterEpochReport(
            cluster=name, start_time=e * EPOCH_SECONDS,
            duration=EPOCH_SECONDS, ingress_counts=dict(counts[name]))
            for name in names])
    return epochs


def mesh_of(problem):
    """The app, deployment and base demand behind a synthetic problem."""
    app, deployment, demand = specs_of(problem)
    return app, deployment, {(cls, cluster): rps
                             for cls, cluster, rps in demand.items()}


def _spill_over():
    app = linear_chain_app(n_services=3, exec_time=0.010)
    deployment = DeploymentSpec.uniform(
        app.services(), ["west", "east"], replicas=5,
        latency=two_region_latency(25.0))
    base = {("default", "west"): 520.0, ("default", "east"): 90.0}
    return (app, deployment,
            GlobalControllerConfig(formulation="path", learn_profiles=False,
                                   demand_alpha=0.5),
            epoch_reports(deployment.cluster_names, base))


def _fanout_tree():
    """Two trees of unequal depth over four regions; ``compose`` only
    enters at OR from epoch 0, ``read`` everywhere."""
    app = social_network_app()
    deployment = DeploymentSpec.uniform(
        app.services(), list(gcp_four_region_latency().clusters),
        replicas=3, latency=gcp_four_region_latency())
    base = {("read", "OR"): 700.0, ("read", "UT"): 60.0,
            ("read", "IOW"): 80.0, ("read", "SC"): 40.0,
            ("compose", "OR"): 120.0}
    return (app, deployment,
            GlobalControllerConfig(formulation="path", path_k=6,
                                   learn_profiles=False, demand_alpha=0.7),
            epoch_reports(deployment.cluster_names, base))


def _scatter_gather():
    """A parallel fan-out whose third backend runs in two regions only."""
    app = fanout_app(width=3)
    latency = gcp_four_region_latency()
    clusters = []
    for name in latency.clusters:
        replicas = {"FE": 3, "B1": 3, "B2": 3}
        if name in ("UT", "SC"):
            replicas["B3"] = 7
        clusters.append(ClusterSpec(name, replicas))
    deployment = DeploymentSpec(clusters, latency)
    base = {("default", "OR"): 250.0, ("default", "UT"): 120.0,
            ("default", "IOW"): 150.0, ("default", "SC"): 60.0}
    return (app, deployment,
            GlobalControllerConfig(formulation="path", path_k=5,
                                   path_prune_limit=3, learn_profiles=False,
                                   demand_alpha=1.0),
            epoch_reports(deployment.cluster_names, base))


def _egress_budget():
    """West must spill to stay under ``rho_max``; the budget caps how much
    of the spill may cross the WAN, so it binds together with capacity."""
    app = linear_chain_app(n_services=3, exec_time=0.010)
    deployment = DeploymentSpec.uniform(
        app.services(), ["west", "east"], replicas=6,
        latency=two_region_latency(25.0),
        pricing=EgressPricing(default_price_per_gb=0.05))
    base = {("default", "west"): 500.0, ("default", "east"): 60.0}
    return (app, deployment,
            GlobalControllerConfig(formulation="path", learn_profiles=False,
                                   demand_alpha=1.0, egress_budget=9.0e-5),
            epoch_reports(deployment.cluster_names, base))


def _cost_weight():
    app = social_network_app()
    deployment = DeploymentSpec.uniform(
        app.services(), list(gcp_four_region_latency().clusters),
        replicas=3, latency=gcp_four_region_latency(),
        pricing=EgressPricing(default_price_per_gb=0.08))
    base = {("read", "OR"): 650.0, ("read", "IOW"): 70.0,
            ("compose", "OR"): 90.0, ("compose", "SC"): 12.0}
    return (app, deployment,
            GlobalControllerConfig(formulation="path", path_k=5,
                                   learn_profiles=False, demand_alpha=0.5,
                                   cost_weight=40.0, demand_quantum=0.5),
            epoch_reports(deployment.cluster_names, base))


def _sparse_mesh():
    """The benchmark's shape in small: partial replication, two ingresses
    per class, pruned candidates; one class gains an ingress at epoch 3
    (a new structure, so a cold build mid-run)."""
    app, deployment, base = mesh_of(synthetic_te_problem(
        8, 3, 6, rps_per_class=400.0, replication=0.75,
        ingresses_per_class=2, headroom=1.5, seed=4))
    names = deployment.cluster_names
    reports = epoch_reports(names, base)
    late = next(c for c in names if ("class0", c) not in base)
    for epoch in reports[3:]:
        for report in epoch:
            if report.cluster == late:
                report.ingress_counts["class0"] = 2500
    return (app, deployment,
            GlobalControllerConfig(formulation="path", path_k=4,
                                   path_prune_limit=4, learn_profiles=False,
                                   demand_alpha=1.0),
            reports)


SCENARIOS = {
    "spill_over": _spill_over,
    "fanout_tree": _fanout_tree,
    "scatter_gather": _scatter_gather,
    "egress_budget": _egress_budget,
    "cost_weight": _cost_weight,
    "sparse_mesh": _sparse_mesh,
}


def run_scenario(name: str) -> list[dict]:
    app, deployment, config, reports = SCENARIOS[name]()
    controller = GlobalController(app, deployment, config)
    epochs = []
    for batch in reports:
        controller.observe(batch)
        result = controller.plan()
        assert result is not None and result.ok
        epochs.append({
            "objective": result.objective,
            "latency": result.predicted_mean_latency,
            "pool_load": [[service, cluster, load] for (service, cluster),
                          load in sorted(result.pool_load.items())],
            "rules": [[rule.service, rule.traffic_class, rule.src_cluster,
                       [list(pair) for pair in rule.weights]]
                      for rule in result.rules()],
        })
    return epochs


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_scenario(golden):
    assert sorted(golden) == sorted(SCENARIOS)
    assert all(len(epochs) == EPOCHS for epochs in golden.values())


# scatter_gather and sparse_mesh have tied optima: this pins HiGHS's vertex
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_plans_match_the_frozen_goldens(name, golden):
    assert run_scenario(name) == golden[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {name: run_scenario(name) for name in sorted(SCENARIOS)}, indent=1)
        + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
