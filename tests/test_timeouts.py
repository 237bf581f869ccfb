"""Tests for per-call deadlines, retries, and failure propagation."""

import pytest

from repro.sim import (DemandMatrix, DeploymentSpec, linear_chain_app,
                       two_region_latency)
from repro.sim.runner import MeshSimulation, TimeoutPolicy
from repro.sim.topology import ClusterSpec


def make_sim(timeouts, replicas_west=5, seed=2, **kwargs):
    app = linear_chain_app(n_services=2, exec_time=0.010)
    deployment = DeploymentSpec(
        clusters=[ClusterSpec("west", {"S1": replicas_west,
                                       "S2": replicas_west}),
                  ClusterSpec("east", {"S1": 5, "S2": 5})],
        latency=two_region_latency(25.0))
    return app, MeshSimulation(app, deployment, seed=seed,
                               timeouts=timeouts, **kwargs)


def test_policy_validation():
    with pytest.raises(ValueError):
        TimeoutPolicy(call_timeout=0.0)
    with pytest.raises(ValueError):
        TimeoutPolicy(call_timeout=1.0, max_attempts=0)


def test_policy_rejects_nan_durations():
    nan = float("nan")
    with pytest.raises(ValueError, match="call_timeout"):
        TimeoutPolicy(call_timeout=nan)
    with pytest.raises(ValueError, match="hedge_delay"):
        TimeoutPolicy(call_timeout=1.0, hedge_delay=nan)
    # infinity keeps its meaning: no deadline
    assert TimeoutPolicy(call_timeout=float("inf"),
                         hedge_delay=1.0).hedge_delay == 1.0


def test_no_timeouts_under_healthy_load():
    _, sim = make_sim(TimeoutPolicy(call_timeout=2.0, max_attempts=2))
    sim.run(DemandMatrix({("default", "west"): 100.0}), duration=10.0)
    assert sim.timed_out_calls == 0
    assert sim.telemetry.failed_requests == []
    assert len(sim.telemetry.requests) > 500


def test_overload_triggers_timeouts_and_failures():
    # 1 replica = 100 rps capacity; 300 rps queues unboundedly, so waits
    # blow past the 200ms deadline and retries (also to the hot pool's
    # east alternative) eventually exhaust
    _, sim = make_sim(TimeoutPolicy(call_timeout=0.2, max_attempts=1),
                      replicas_west=1)
    sim.run(DemandMatrix({("default", "west"): 300.0}), duration=10.0)
    assert sim.timed_out_calls > 0
    assert len(sim.telemetry.failed_requests) > 0
    # failed requests record the time-to-error
    failed = sim.telemetry.failed_requests[0]
    assert failed.failed and not failed.done
    assert failed.latency >= 0.2 - 1e-9


def test_retry_reroutes_around_failed_service():
    from repro.mesh.routing_table import RouteKey
    app, sim = make_sim(TimeoutPolicy(call_timeout=0.3, max_attempts=2))
    # route S2 calls east (25 ms of wire), then kill east S2 at t=2:
    # calls in flight on the WAN are dropped, their deadlines fire, and
    # the retry re-routes to west (the failed cluster is excluded)
    sim.table.set_weights(RouteKey("S2", "default", "west"), {"east": 1.0})
    sim.sim.schedule(2.0, sim.fail_service, "east", "S2")
    sim.run(DemandMatrix({("default", "west"): 200.0}), duration=10.0)
    assert sim.dropped_calls > 0          # some calls were on the wire
    assert sim.timed_out_calls >= sim.dropped_calls
    # every dropped call was retried successfully: no failed requests
    assert sim.telemetry.failed_requests == []
    reports = {r.cluster: r for r in sim.harvest_reports()}
    assert reports["west"].service_rps("S2", "default") > 0


def test_single_attempt_policy_fails_dropped_calls():
    from repro.mesh.routing_table import RouteKey
    app, sim = make_sim(TimeoutPolicy(call_timeout=0.3, max_attempts=1))
    sim.table.set_weights(RouteKey("S2", "default", "west"), {"east": 1.0})
    sim.sim.schedule(2.0, sim.fail_service, "east", "S2")
    sim.run(DemandMatrix({("default", "west"): 200.0}), duration=5.0)
    assert sim.dropped_calls > 0
    assert len(sim.telemetry.failed_requests) == sim.dropped_calls


def test_orphaned_response_is_dropped_not_double_counted():
    # deadline shorter than the WAN round trip: every remote call times
    # out, and its late response must not complete the request twice
    app, sim = make_sim(TimeoutPolicy(call_timeout=0.04, max_attempts=1))
    from repro.mesh.routing_table import RouteKey
    sim.table.set_weights(RouteKey("S1", "default", "west"), {"east": 1.0})
    sim.run(DemandMatrix({("default", "west"): 50.0}), duration=5.0)
    total = len(sim.telemetry.requests) + len(sim.telemetry.failed_requests)
    generated = sum(r.ingress_counts.get("default", 0)
                    for r in sim.harvest_reports())
    assert total == generated            # each request settled exactly once
    assert len(sim.telemetry.failed_requests) == generated   # all timed out


def test_latencies_exclude_failed_requests():
    _, sim = make_sim(TimeoutPolicy(call_timeout=0.2, max_attempts=1),
                      replicas_west=1)
    sim.run(DemandMatrix({("default", "west"): 300.0}), duration=8.0)
    ok_ids = {r.request_id for r in sim.telemetry.requests}
    failed_ids = {r.request_id for r in sim.telemetry.failed_requests}
    assert not (ok_ids & failed_ids)
    assert all(lat >= 0 for lat in sim.telemetry.latencies())
