"""Event-path equivalence goldens for the data plane (ISSUE 13).

``tests/golden/event_paths.json`` freezes what an event-level run of
:class:`~repro.sim.runner.MeshSimulation` produced *before* the per-call
closure nest became one call object and the proxies' routing decisions
were compiled: per scenario, a sha256 over every request
``(id, class, ingress, arrival, completion, failed)`` in record order,
over every span in record order, over the egress ledger, and over the
final state of every random stream that was drawn from — plus the plain
counters (``events_processed``, dropped/timed-out/hedged calls, gateway
conservation). Floats enter the digests through ``repr``, so a match is
bit-for-bit: event sequence numbers and per-stream draw counts are part
of the contract, not only the statistics.

The scenarios cover each branch of the call path: weighted cross-cluster
rules with a wildcard fallback (Fig. 6b), parallel fan-out with
fractional ``calls_per_request``, sequential multi-child trees with two
classes and sampled span forwarding, edge caches under sticky affinity,
deadline + retry with ``exclude_failed_cluster`` across a mid-run
``fail_service``/``restore_service``, hedging with erring branches, a
chaos partition + replica crash, per-replica queues, and the sampled
slice of a hybrid run (``FluidPool.submit``).

Regenerate (only when the *model* is meant to change):
``PYTHONPATH=src python tests/test_event_path_golden.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.chaos import ChaosRuntime, FaultPlan, ReplicaFault, WanFault
from repro.core.classes import AppSpecClassifier
from repro.experiments.scenarios import fig6b_which_cluster
from repro.mesh.routing_table import RouteKey
from repro.obs import ObservabilityConfig
from repro.sim import (DemandMatrix, DeploymentSpec, anomaly_detection_app,
                       linear_chain_app, two_region_latency)
from repro.sim.apps import AppSpec, fanout_app, social_network_app
from repro.sim.cache import CacheSpec
from repro.sim.rng import RngRegistry
from repro.sim.runner import MeshSimulation, TimeoutPolicy
from repro.sim.topology import ClusterSpec, gcp_four_region_latency

GOLDEN = Path(__file__).parent / "golden" / "event_paths.json"

#: every scenario keeps its spans (the tracing switch) for the span digest
TRACING = ObservabilityConfig(tracing=True)


def install(sim: MeshSimulation, rules) -> None:
    for (service, cls, src), weights in rules.items():
        sim.table.set_weights(RouteKey(service, cls, src), weights)


def chain_world(replicas: int = 5, n_services: int = 3):
    app = linear_chain_app(n_services=n_services, exec_time=0.010)
    deployment = DeploymentSpec.uniform(
        app.services(), ["west", "east"], replicas=replicas,
        latency=two_region_latency(25.0))
    return app, deployment


FIG6B_RULES = {
    ("S1", "default", "OR"): {"OR": 0.62, "UT": 0.21, "SC": 0.17},
    ("S1", "default", "IOW"): {"IOW": 0.71, "UT": 0.09, "SC": 0.2},
    ("S2", "default", "OR"): {"OR": 0.9, "UT": 0.1},
    ("S2", "*", "IOW"): {"IOW": 3.0, "SC": 1.0},
    ("S3", "default", "UT"): {"UT": 1.0},
    ("S3", "*", "SC"): {"SC": 0.5, "IOW": 0.25, "UT": 0.125, "OR": 0.125},
}


def fig6b_sim(seed: int = 1, **kwargs) -> tuple[MeshSimulation, DemandMatrix]:
    """Fig. 6b's app, topology and demand under fixed weighted rules.

    The rules are written out (not solved for) so the digests do not hang
    on an LP solver's last bits.
    """
    scenario = fig6b_which_cluster(seed=seed).scenario
    sim = MeshSimulation(scenario.app, scenario.deployment, seed=seed,
                         classifier=AppSpecClassifier(scenario.app),
                         **kwargs)
    install(sim, FIG6B_RULES)
    return sim, scenario.demand


def fig6b_static():
    sim, demand = fig6b_sim(observability=TRACING)
    sim.run(demand, duration=2.0)
    return sim


def fanout_parallel_fractional():
    base = fanout_app(width=3)
    spec = base.classes["default"]
    counts = {"B1": 1.0, "B2": 0.4, "B3": 2.5}
    spec = dataclasses.replace(spec, edges=[
        dataclasses.replace(edge, calls_per_request=counts[edge.callee])
        for edge in spec.edges])
    app = AppSpec(name=base.name, classes={"default": spec})
    deployment = DeploymentSpec.uniform(
        app.services(), ["west", "east"], replicas=6,
        latency=two_region_latency(12.5))
    sim = MeshSimulation(app, deployment, seed=3, observability=TRACING)
    install(sim, {("B2", "default", "west"): {"west": 0.5, "east": 0.5},
                  ("B3", "*", "west"): {"west": 0.8, "east": 0.2}})
    sim.run(DemandMatrix({("default", "west"): 220.0,
                          ("default", "east"): 40.0}), duration=4.0)
    return sim


def social_network_sampled_spans():
    app = social_network_app()
    deployment = DeploymentSpec.uniform(
        app.services(), ["OR", "UT", "IOW", "SC"], replicas=8,
        latency=gcp_four_region_latency())
    sim = MeshSimulation(app, deployment, seed=5, observability=TRACING,
                         classifier=AppSpecClassifier(app),
                         trace_sample_rate=0.3)
    install(sim, {
        ("TL", "read", "OR"): {"OR": 0.5, "UT": 0.3, "IOW": 0.2},
        ("PS", "*", "UT"): {"UT": 1.0, "IOW": 1.0},
        ("TL", "compose", "OR"): {"UT": 1.0},
        ("MD", "compose", "UT"): {"SC": 0.125, "UT": 0.875}})
    sim.run(DemandMatrix({("read", "OR"): 160.0, ("read", "SC"): 60.0,
                          ("compose", "OR"): 30.0,
                          ("compose", "UT"): 25.0}),
            duration=4.0, epoch=1.5)
    return sim


def caching_sticky_affinity():
    """The ``bench_caching`` scenario with per-key cluster affinity."""
    base = anomaly_detection_app()
    spec = dataclasses.replace(base.classes["default"], key_space=1500,
                               sticky_affinity=True)
    app = AppSpec(name=base.name, classes={"default": spec},
                  caches={("MP", "DB"): CacheSpec("MP", "DB", ttl=2.0,
                                                  capacity=400)})
    deployment = DeploymentSpec(
        clusters=[ClusterSpec("west", {"FR": 4, "MP": 8}),      # no DB
                  ClusterSpec("east", {"FR": 4, "MP": 8, "DB": 8})],
        latency=two_region_latency(25.0))
    sim = MeshSimulation(app, deployment, seed=29, observability=TRACING)
    install(sim, {("MP", "default", "west"): {"west": 0.6, "east": 0.4}})
    sim.run(DemandMatrix({("default", "west"): 300.0,
                          ("default", "east"): 60.0}), duration=6.0)
    return sim


def timeout_retry_fail_restore():
    app, deployment = chain_world(replicas=4)
    sim = MeshSimulation(
        app, deployment, seed=11, observability=TRACING,
        timeouts=TimeoutPolicy(call_timeout=0.3, max_attempts=3,
                               exclude_failed_cluster=True))
    install(sim, {("S2", "default", "west"): {"west": 0.5, "east": 0.5},
                  ("S3", "default", "east"): {"east": 0.7, "west": 0.3}})
    sim.sim.schedule(1.0, sim.fail_service, "east", "S2")
    sim.sim.schedule(2.0, sim.restore_service, "east", "S2", 3)
    sim.sim.schedule(2.5, sim.fail_service, "west", "S3")
    sim.run(DemandMatrix({("default", "west"): 250.0,
                          ("default", "east"): 50.0}), duration=3.5)
    return sim


def hedging_with_failing_branches():
    """Hedges race primaries; single-attempt deadlines make branches err."""
    app = linear_chain_app(n_services=2, exec_time=0.010)
    deployment = DeploymentSpec(
        clusters=[ClusterSpec("west", {"S1": 4, "S2": 2}),   # S2 runs hot
                  ClusterSpec("east", {"S1": 10, "S2": 10})],
        latency=two_region_latency(20.0))
    sim = MeshSimulation(
        app, deployment, seed=41, observability=TRACING,
        timeouts=TimeoutPolicy(call_timeout=0.085, max_attempts=1,
                               hedge_delay=0.03))
    sim.sim.schedule(4.0, sim.fail_service, "east", "S2")
    sim.run(DemandMatrix({("default", "west"): 180.0}), duration=6.0)
    return sim


def chaos_partition_and_crash():
    app, deployment = chain_world(replicas=5)
    sim = MeshSimulation(
        app, deployment, seed=7, observability=TRACING,
        timeouts=TimeoutPolicy(call_timeout=0.25, max_attempts=2))
    install(sim, {("S2", "default", "west"): {"west": 0.6, "east": 0.4}})
    ChaosRuntime(sim, FaultPlan((
        WanFault(start=1.0, duration=0.75, src="west", dst="east",
                 partition=True),
        WanFault(start=2.0, duration=0.5, src="west", dst="east",
                 multiplier=2.0, jitter=0.004),
        ReplicaFault(start=1.5, duration=1.0, cluster="west", service="S3",
                     crash=2, slowdown=1.2))))
    sim.run(DemandMatrix({("default", "west"): 300.0,
                          ("default", "east"): 80.0}), duration=3.5)
    return sim


def per_replica_queues():
    app, deployment = chain_world(replicas=4)
    sim = MeshSimulation(app, deployment, seed=13, observability=TRACING,
                         service_model="replicas", intra_lb="round-robin",
                         deterministic_exec=True)
    install(sim, {("S1", "default", "west"): {"west": 0.75, "east": 0.25}})
    sim.run(DemandMatrix({("default", "west"): 280.0,
                          ("default", "east"): 60.0}), duration=3.0,
            deterministic_arrivals=True)
    return sim


def hybrid_sampled_slice():
    app, deployment = chain_world(replicas=40)
    sim = MeshSimulation(app, deployment, seed=17, observability=TRACING,
                         fidelity="hybrid", sample_rate=0.1,
                         fluid_tick=0.1)
    install(sim, {("S2", "default", "west"): {"west": 0.55, "east": 0.45},
                  ("S3", "*", "west"): {"west": 1.0, "east": 2.0}})
    sim.run(DemandMatrix({("default", "west"): 3000.0,
                          ("default", "east"): 600.0}), duration=3.0,
            epoch=1.0)
    return sim


SCENARIOS = {
    "fig6b_static": fig6b_static,
    "fanout_parallel_fractional": fanout_parallel_fractional,
    "social_network_sampled_spans": social_network_sampled_spans,
    "caching_sticky_affinity": caching_sticky_affinity,
    "timeout_retry_fail_restore": timeout_retry_fail_restore,
    "hedging_with_failing_branches": hedging_with_failing_branches,
    "chaos_partition_and_crash": chaos_partition_and_crash,
    "per_replica_queues": per_replica_queues,
    "hybrid_sampled_slice": hybrid_sampled_slice,
}


def _sha(rows) -> str:
    digest = hashlib.sha256()
    for row in rows:
        digest.update(repr(row).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def _drawn_streams(sim: MeshSimulation):
    """(name, final state) of every stream a draw was made from."""
    fresh = RngRegistry(sim.rngs.seed)
    for name, stream in sorted(sim.rngs._streams.items()):
        state = stream.bit_generator.state
        if state != fresh.stream(name).bit_generator.state:
            yield name, sorted(state["state"].items()), state["has_uint32"]


def fingerprint(sim: MeshSimulation) -> dict:
    telemetry = sim.telemetry
    requests = telemetry.requests + telemetry.failed_requests
    ledger = sim.network.ledger
    gateways = sim.gateways.values()
    return {
        "requests": len(requests),
        "requests_sha": _sha(
            (r.request_id, r.traffic_class, r.ingress_cluster,
             r.arrival_time, r.completion_time, r.failed, r.data_key)
            for r in requests),
        "spans": len(telemetry.spans),
        "spans_sha": _sha(dataclasses.astuple(s) for s in telemetry.spans),
        "egress_bytes": ledger.total_bytes,
        "egress_sha": _sha([sorted(ledger.bytes_by_pair.items()),
                            sorted(ledger.cost_by_src.items()),
                            ledger.total_cost]),
        "streams_sha": _sha(_drawn_streams(sim)),
        "events_processed": sim.sim.events_processed,
        "dropped_calls": sim.dropped_calls,
        "timed_out_calls": sim.timed_out_calls,
        "hedged_calls": sim.hedged_calls,
        "dropped_transfers": sim.network.dropped_transfers,
        "admitted": sum(g.admitted_count for g in gateways),
        "completed": sum(g.completed_count for g in gateways),
        "failed": sum(g.failed_count for g in gateways),
        "open": sum(g.open_requests for g in gateways),
    }


@pytest.fixture(scope="module")
def golden():
    with GOLDEN.open() as fh:
        return json.load(fh)


def test_golden_covers_every_scenario(golden):
    assert sorted(golden) == sorted(SCENARIOS)


def test_scenarios_reach_the_branches_they_name(golden):
    """The digests are only worth freezing if the branch actually ran."""
    assert golden["timeout_retry_fail_restore"]["timed_out_calls"] > 0
    assert golden["timeout_retry_fail_restore"]["dropped_calls"] > 0
    assert golden["hedging_with_failing_branches"]["hedged_calls"] > 0
    assert golden["hedging_with_failing_branches"]["failed"] > 0
    assert golden["chaos_partition_and_crash"]["dropped_transfers"] > 0
    assert golden["chaos_partition_and_crash"]["failed"] > 0
    assert golden["fig6b_static"]["egress_bytes"] > 0
    for name, frozen in golden.items():
        assert frozen["requests"] > 500, name
        assert frozen["admitted"] == (frozen["completed"] + frozen["failed"]
                                      + frozen["open"]), name


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_event_path_matches_golden(name, golden):
    assert fingerprint(SCENARIOS[name]()) == golden[name]


if __name__ == "__main__":
    frozen = {name: fingerprint(build())
              for name, build in sorted(SCENARIOS.items())}
    GOLDEN.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(frozen)} scenarios)")
