"""Integration tests for the simulation runner (request execution)."""

import pytest

from repro.mesh.routing_table import RouteKey
from repro.obs import ObservabilityConfig
from repro.sim import (CallEdge, DemandMatrix, DeploymentSpec, TrafficClassSpec,
                       AppSpec, linear_chain_app, fanout_app,
                       two_region_latency)
from repro.sim.request import RequestAttributes
from repro.sim.runner import MeshSimulation
from repro.sim.traces import DemandTimeline


def chain_sim(replicas=5, one_way_ms=25.0, **sim_kwargs):
    app = linear_chain_app(n_services=3, exec_time=0.010)
    deployment = DeploymentSpec.uniform(
        app.services(), ["west", "east"], replicas=replicas,
        latency=two_region_latency(one_way_ms))
    return app, MeshSimulation(app, deployment, seed=1, **sim_kwargs)


def test_all_requests_complete():
    _, sim = chain_sim()
    demand = DemandMatrix({("default", "west"): 100.0})
    sim.run(demand, duration=5.0)
    assert len(sim.telemetry.requests) > 300
    assert all(r.done for r in sim.telemetry.requests)


def test_local_run_has_no_egress():
    _, sim = chain_sim()
    sim.run(DemandMatrix({("default", "west"): 100.0}), duration=5.0)
    assert sim.network.ledger.total_bytes == 0


def test_deterministic_given_seed():
    def latencies():
        _, sim = chain_sim()
        sim.run(DemandMatrix({("default", "west"): 100.0}), duration=5.0)
        return sim.telemetry.latencies()

    assert latencies() == latencies()


def test_latency_floor_is_exec_plus_hops():
    _, sim = chain_sim(deterministic_exec=True)
    sim.run(DemandMatrix({("default", "west"): 10.0}), duration=5.0,
            deterministic_arrivals=True)
    lats = sim.telemetry.latencies()
    # 3 x 10ms exec + 3 calls x 2 intra-cluster hops x 0.25ms; no queueing
    floor = 3 * 0.010 + 3 * 2 * 0.00025
    assert min(lats) == pytest.approx(floor, rel=0.01)


def test_remote_routing_rule_adds_rtt_and_egress():
    app, sim = chain_sim(deterministic_exec=True)
    # route the middle hop east: S2 crossing adds one WAN RTT
    sim.table.set_weights(RouteKey("S2", "default", "west"), {"east": 1.0})
    sim.run(DemandMatrix({("default", "west"): 10.0}), duration=5.0,
            deterministic_arrivals=True)
    lats = sim.telemetry.latencies()
    # exactly one WAN crossing: S1(west)->S2(east); S2->S3 stays east
    assert min(lats) == pytest.approx(3 * 0.010 + 0.050 + 2 * 2 * 0.00025,
                                      rel=0.01)
    assert sim.network.ledger.total_bytes > 0


def test_spans_report_to_owning_cluster():
    app, sim = chain_sim()
    sim.table.set_weights(RouteKey("S3", "default", "west"), {"east": 1.0})
    sim.run(DemandMatrix({("default", "west"): 50.0}), duration=5.0)
    reports = {r.cluster: r for r in sim.harvest_reports()}
    assert reports["west"].service_rps("S1", "default") > 0
    assert reports["east"].service_rps("S3", "default") > 0
    assert reports["west"].service_rps("S3", "default") == 0


def test_epoch_hook_invoked():
    _, sim = chain_sim()
    epochs = []
    sim.run(DemandMatrix({("default", "west"): 50.0}), duration=10.0,
            epoch=2.5, on_epoch=lambda reports, s: epochs.append(
                sum(r.ingress_counts.get("default", 0) for r in reports)))
    # 3 mid-run boundaries + final harvest
    assert len(epochs) == 4
    assert sum(epochs) == len(sim.telemetry.requests)


def test_unknown_demand_class_rejected():
    _, sim = chain_sim()
    with pytest.raises(ValueError, match="unknown traffic class"):
        sim.run(DemandMatrix({("nope", "west"): 10.0}), duration=1.0)


def test_unknown_demand_cluster_rejected():
    _, sim = chain_sim()
    with pytest.raises(ValueError, match="unknown cluster"):
        sim.run(DemandMatrix({("default", "mars"): 10.0}), duration=1.0)


def test_parallel_fanout_latency_is_max_not_sum():
    app = fanout_app(width=4, exec_time=0.020, parallel=True)
    deployment = DeploymentSpec.uniform(
        app.services(), ["west"],
        replicas=50, latency=two_region_latency(25.0, west="west",
                                                east="unused-east"))
    # single-cluster deployment: add the unused cluster to satisfy matrix
    sim = MeshSimulation(app, deployment, seed=2, deterministic_exec=True)
    sim.run(DemandMatrix({("default", "west"): 10.0}), duration=5.0,
            deterministic_arrivals=True)
    lats = sim.telemetry.latencies()
    # sequential would be 10ms + 4x20ms = 90ms; parallel is 10 + 20 = 30ms
    assert max(lats) < 0.045


def test_sequential_fanout_latency_is_sum():
    app = fanout_app(width=4, exec_time=0.020, parallel=False)
    deployment = DeploymentSpec.uniform(
        app.services(), ["west"],
        replicas=50, latency=two_region_latency(25.0, west="west",
                                                east="unused-east"))
    sim = MeshSimulation(app, deployment, seed=2, deterministic_exec=True)
    sim.run(DemandMatrix({("default", "west"): 10.0}), duration=5.0,
            deterministic_arrivals=True)
    lats = sim.telemetry.latencies()
    assert min(lats) > 0.010 + 4 * 0.020 - 0.001


def test_fractional_calls_per_request_realised_probabilistically():
    spec = TrafficClassSpec(
        name="default",
        attributes=RequestAttributes.make("P"),
        root_service="P",
        edges=[CallEdge("P", "Q", calls_per_request=0.5)],
        exec_time={"P": 0.001, "Q": 0.001},
    )
    app = AppSpec(name="frac", classes={"default": spec})
    deployment = DeploymentSpec.uniform(
        ["P", "Q"], ["west", "east"], replicas=20,
        latency=two_region_latency(10.0))
    sim = MeshSimulation(app, deployment, seed=3,
                         observability=ObservabilityConfig(tracing=True))
    sim.run(DemandMatrix({("default", "west"): 200.0}), duration=10.0)
    q_spans = sum(1 for s in sim.telemetry.spans if s.service == "Q")
    p_spans = sum(1 for s in sim.telemetry.spans if s.service == "P")
    assert q_spans / p_spans == pytest.approx(0.5, abs=0.05)


def test_queueing_latency_grows_with_load():
    def mean_latency(rps):
        _, sim = chain_sim()
        sim.run(DemandMatrix({("default", "west"): rps}), duration=15.0)
        lats = sim.telemetry.latencies(after=3.0)
        return sum(lats) / len(lats)

    assert mean_latency(450.0) > 1.5 * mean_latency(100.0)


NAN = float("nan")


@pytest.mark.parametrize("start", [
    lambda sim, demand: sim.run(demand, duration=NAN),
    lambda sim, demand: sim.run(demand, duration=2.0, epoch=NAN),
    lambda sim, demand: sim.run_timeline(
        DemandTimeline.constant(demand, 2.0), epoch=NAN),
], ids=["run-duration", "run-epoch", "run_timeline-epoch"])
def test_nan_run_arguments_rejected(start):
    """A NaN duration or epoch fails every ``> 0`` comparison; the guards
    reject it instead of simulating nothing or running with no epochs."""
    _, sim = chain_sim()
    with pytest.raises(ValueError, match="must be > 0"):
        start(sim, DemandMatrix({("default", "west"): 50.0}))
    assert sim.sim.events_processed == 0


def test_nan_fluid_tick_rejected_at_construction():
    with pytest.raises(ValueError, match="fluid_tick must be > 0"):
        chain_sim(fidelity="fluid", fluid_tick=NAN)

