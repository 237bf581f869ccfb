"""Failure-injection tests: partial replication born at runtime (§2).

Clusters lose services mid-run; proxies must fail over immediately and the
adaptive controller must re-plan around the hole.
"""

import pytest

from repro.core.controller.global_controller import (GlobalController,
                                                     GlobalControllerConfig)
from repro.sim import (DemandMatrix, DeploymentSpec, linear_chain_app,
                       two_region_latency)
from repro.obs import ObservabilityConfig
from repro.sim.runner import MeshSimulation


def make_sim(seed=9):
    app = linear_chain_app(n_services=3, exec_time=0.010)
    deployment = DeploymentSpec.uniform(
        app.services(), ["west", "east"], replicas=5,
        latency=two_region_latency(25.0))
    return app, deployment, MeshSimulation(app, deployment, seed=seed)


def test_fail_unknown_service_rejected():
    _, _, sim = make_sim()
    with pytest.raises(KeyError):
        sim.fail_service("west", "nope")


def test_failure_updates_deployment_view():
    _, deployment, sim = make_sim()
    sim.fail_service("west", "S2")
    assert deployment.clusters_with("S2") == ["east"]
    assert not sim.clusters["west"].has("S2")


def test_traffic_fails_over_after_failure():
    app, _, sim = make_sim()
    sim.sim.schedule(5.0, sim.fail_service, "west", "S3")
    sim.run(DemandMatrix({("default", "west"): 100.0}), duration=15.0)
    # before t=5: all local, no egress; after: S2->S3 crosses to east
    assert sim.network.ledger.total_bytes > 0
    reports = {r.cluster: r for r in sim.harvest_reports()}
    assert reports["east"].service_rps("S3", "default") > 0


def test_in_flight_requests_at_failed_service_are_lost():
    app = linear_chain_app(n_services=3, exec_time=0.010)
    deployment = DeploymentSpec.uniform(
        app.services(), ["west", "east"], replicas=1,
        latency=two_region_latency(25.0))
    sim = MeshSimulation(app, deployment, seed=9,
                         observability=ObservabilityConfig(tracing=True))
    at_kill = {}

    def kill():
        at_kill["in_flight"] = sim.clusters["west"].pool("S3").in_flight
        sim.fail_service("west", "S3")

    sim.sim.schedule(5.0, kill)
    sim.run(DemandMatrix({("default", "west"): 80.0}), duration=15.0)
    # every job queued or running at S3 west when it died is lost ...
    assert at_kill["in_flight"] > 0
    assert sim.dropped_calls == at_kill["in_flight"]
    # ... so the dead pool reports nothing after the kill ...
    assert not [s for s in sim.telemetry.spans
                if (s.service, s.cluster) == ("S3", "west")
                and s.end_time > 5.0]
    # ... and, with no TimeoutPolicy to retry them, the requests hang
    gateway = sim.gateways["west"]
    assert gateway.open_requests == sim.dropped_calls
    assert gateway.failed_count == 0
    assert (gateway.admitted_count
            == gateway.completed_count + gateway.open_requests)
    assert len(sim.telemetry.requests) == gateway.completed_count


def test_restore_brings_traffic_back_local():
    app, deployment, sim = make_sim()
    sim.fail_service("west", "S2")
    sim.sim.schedule(5.0, sim.restore_service, "west", "S2", 5)
    sim.run(DemandMatrix({("default", "west"): 100.0}), duration=15.0)
    assert deployment.clusters_with("S2") == ["west", "east"]
    reports = {r.cluster: r for r in sim.harvest_reports()}
    # after restore, local S2 serves again
    assert reports["west"].service_rps("S2", "default") > 0


def test_restore_validation():
    _, _, sim = make_sim()
    with pytest.raises(ValueError):
        sim.restore_service("west", "S2", 0)


def test_restore_never_failed_service_resizes_pool():
    # restoring a healthy service is a resize, not an error
    _, deployment, sim = make_sim()
    assert sim.clusters["west"].pool("S2").replicas == 5
    sim.restore_service("west", "S2", 8)
    assert sim.clusters["west"].pool("S2").replicas == 8
    assert deployment.cluster("west").replicas["S2"] == 8
    assert deployment.clusters_with("S2") == ["west", "east"]


def test_double_restore_is_idempotent():
    _, deployment, sim = make_sim()
    sim.fail_service("west", "S2")
    sim.restore_service("west", "S2", 5)
    pool_after_first = sim.clusters["west"].pool("S2")
    sim.restore_service("west", "S2", 5)
    # second restore keeps the same live pool (no queued-job loss)
    assert sim.clusters["west"].pool("S2") is pool_after_first
    assert pool_after_first.replicas == 5
    assert deployment.cluster("west").replicas["S2"] == 5


def test_restore_with_different_replica_count():
    _, deployment, sim = make_sim()
    sim.fail_service("west", "S2")
    sim.restore_service("west", "S2", 2)   # degraded comeback
    assert sim.clusters["west"].pool("S2").replicas == 2
    assert deployment.cluster("west").replicas["S2"] == 2
    sim.restore_service("west", "S2", 9)   # scale-up later
    assert sim.clusters["west"].pool("S2").replicas == 9
    assert deployment.cluster("west").replicas["S2"] == 9


def test_restore_keeps_clusters_with_consistent():
    _, deployment, sim = make_sim()
    sim.fail_service("west", "S2")
    assert deployment.clusters_with("S2") == ["east"]
    sim.restore_service("west", "S2", 1)
    # deployment view and live pools must agree after every transition
    assert deployment.clusters_with("S2") == ["west", "east"]
    assert sim.clusters["west"].has("S2")
    sim.fail_service("west", "S2")
    assert deployment.clusters_with("S2") == ["east"]
    assert not sim.clusters["west"].has("S2")


def test_adaptive_controller_replans_around_failure():
    app, deployment, sim = make_sim()
    controller = GlobalController(
        app, deployment, GlobalControllerConfig(learn_profiles=False))

    def on_epoch(reports, simulation):
        controller.observe(reports)
        result = controller.plan()
        if result is not None:
            result.rules().apply(simulation.table)

    sim.sim.schedule(6.0, sim.fail_service, "west", "S3")
    sim.run(DemandMatrix({("default", "west"): 200.0,
                          ("default", "east"): 50.0}),
            duration=20.0, epoch=3.0, on_epoch=on_epoch)
    result = controller.last_result
    assert result is not None and result.ok
    # the final plan routes no S3 work to west
    assert result.pool_load.get(("S3", "west"), 0.0) == 0.0
    assert result.pool_load[("S3", "east")] > 0.0
