"""Tests for the runtime invariant checker.

Every run checks its invariants, so the checker must stay silent on
healthy runs (the whole suite exercises it) and fire with an actionable
message — naming the service/cluster/stream — when state is corrupted
behind the simulator's back. No environment switch is involved.
"""

from __future__ import annotations

import math

import pytest

from repro.devtools.invariants import (InvariantViolation,
                                       check_event_monotonic,
                                       check_pool_depths,
                                       check_request_conservation,
                                       check_routing_table)
from repro.mesh.routing_table import RouteKey, RoutingTable
from repro.sim import (DemandMatrix, DeploymentSpec, ReplicaPool, Simulator,
                       linear_chain_app, two_region_latency)
from repro.sim.runner import MeshSimulation


def small_sim(seed: int = 0, **options) -> MeshSimulation:
    app = linear_chain_app(n_services=2, exec_time=0.005)
    deployment = DeploymentSpec.uniform(
        app.services(), ["west", "east"], replicas=3,
        latency=two_region_latency(20.0))
    return MeshSimulation(app, deployment, seed=seed, **options)


# ------------------------------------------------------------- engine loop

def test_engine_detects_time_travel():
    import heapq

    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run(until=0.5)           # now == 0.5, event still pending
    # corrupt the heap with an entry in the past (bypasses schedule_at's
    # own validation, as a buggy component mutating state would)
    heapq.heappush(sim._heap, (0.25, -1, lambda: None, ()))
    with pytest.raises(InvariantViolation, match="monotonicity"):
        sim.run()


def test_check_event_monotonic_names_the_callback():
    def my_handler():
        pass

    with pytest.raises(InvariantViolation, match="my_handler"):
        check_event_monotonic(2.0, 1.0, my_handler)
    check_event_monotonic(1.0, 1.0, my_handler)   # equal time is fine


# ---------------------------------------------------------- routing matrix

def test_corrupted_routing_table_fires_with_context():
    sim = small_sim()
    key = RouteKey("s0", "default", "west")
    sim.table.set_weights(key, {"west": 0.6, "east": 0.4})
    # corrupt the installed row behind the normaliser's back
    sim.table._rules[key]["west"] = 5.0
    demand = DemandMatrix({("default", "west"): 50.0})
    with pytest.raises(InvariantViolation) as excinfo:
        sim.run(demand, duration=0.5)
    message = str(excinfo.value)
    assert "'s0'" in message and "'west'" in message
    assert "sums to" in message


def test_rule_corrupted_by_an_epoch_hook_fires():
    sim = small_sim()
    key = RouteKey("S2", "default", "east")

    def push_bad_rule(reports, mesh):
        mesh.table.set_weights(key, {"west": 0.5, "east": 0.5})
        mesh.table._rules[key]["east"] = float("nan")

    with pytest.raises(InvariantViolation, match="'S2'.*invalid weight nan"):
        sim.run(DemandMatrix({("default", "west"): 50.0}), duration=0.5,
                epoch=0.25, on_epoch=push_bad_rule)


def test_bad_fluid_matrix_row_fires():
    sim = small_sim(fidelity="fluid")
    key = RouteKey("S2", "default", "west")

    def corrupt():
        # a write that moves the version, behind the normaliser's back: the
        # next tick recompiles its routing plan from this row
        sim.table.set_weights(key, {"west": 0.5, "east": 0.5})
        sim.table._rules[key] = {"west": 1.5, "east": -0.5}

    sim.sim.schedule_at(0.25, corrupt)
    with pytest.raises(InvariantViolation) as excinfo:
        sim.run(DemandMatrix({("default", "west"): 50.0}), duration=1.0)
    message = str(excinfo.value)
    assert "fluid routing matrix" in message and "'S2'" in message
    assert "invalid weight -0.5" in message


def test_nan_fluid_rate_fires():
    sim = small_sim(fidelity="fluid")
    demand = DemandMatrix({("default", "west"): 50.0})
    # behind DemandMatrix.set's validation
    demand._entries[("default", "east")] = math.nan
    with pytest.raises(InvariantViolation,
                       match="'default'.*rate nan is negative or non-finite"):
        sim.run(demand, duration=0.5)


def test_check_routing_table_rejects_bad_rows():
    table = RoutingTable()
    key = RouteKey("svc", "*", "east")
    table.set_weights(key, {"east": 1.0})
    check_routing_table(table)   # healthy table passes
    table._rules[key] = {}
    with pytest.raises(InvariantViolation, match="empty weight row"):
        check_routing_table(table)
    table._rules[key] = {"east": -0.5, "west": 1.5}
    with pytest.raises(InvariantViolation, match="invalid weight"):
        check_routing_table(table)


def test_check_routing_table_rejects_a_pushed_local_rule():
    """A push carries only departures from local-first: an installed
    exact-class rule keeping every call local is a push that carried what
    a missing key routes as, unless a wildcard would otherwise match."""
    local = (RouteKey("svc", "default", "east"), (("east", 1.0),))
    wildcard = (RouteKey("svc", "*", "east"), (("west", 1.0),))
    table = RoutingTable()
    table.install([local, wildcard])
    check_routing_table(table)   # the wildcard would override a gap
    table.install([local])
    with pytest.raises(InvariantViolation,
                       match="class='default' src='east' keeps every call "
                             "local"):
        check_routing_table(table)
    # a hand edit may spell the local rule out
    edited = RoutingTable()
    edited.set_weights(local[0], {"east": 1.0})
    check_routing_table(edited)
    edited.install([local])
    with pytest.raises(InvariantViolation, match="keeps every call local"):
        check_routing_table(edited)


# ----------------------------------------------------- request conservation

def test_conservation_violation_names_the_cluster():
    sim = small_sim()
    sim.run(DemandMatrix({("default", "west"): 50.0}), duration=0.5)
    gateway = sim.gateways["west"]
    gateway.completed_count += 5   # pretend 5 requests settled twice
    with pytest.raises(InvariantViolation, match="conservation.*'west'"):
        check_request_conservation(sim.gateways)


def test_run_checks_conservation_at_quiesce():
    sim = small_sim()
    gateway = sim.gateways["west"]

    def settle_twice():
        gateway.completed_count += 5

    sim.sim.schedule_at(0.25, settle_twice)
    with pytest.raises(InvariantViolation, match="conservation.*'west'"):
        sim.run(DemandMatrix({("default", "west"): 50.0}), duration=0.5)


def test_conservation_detects_untracked_open_requests():
    sim = small_sim()
    sim.run(DemandMatrix({("default", "west"): 50.0}), duration=0.5)
    gateway = sim.gateways["east"]
    gateway.open_requests += 1     # accept bypassed the counters
    with pytest.raises(InvariantViolation, match="'east'"):
        check_request_conservation(sim.gateways)


# ------------------------------------------------------------ queue depths

def test_negative_pool_depth_fires_with_context():
    pool = ReplicaPool(Simulator(), "auth", "west", replicas=2)
    check_pool_depths(pool)        # healthy pool passes
    pool._busy = -1
    with pytest.raises(InvariantViolation, match="'auth'.*'west'"):
        check_pool_depths(pool)


def test_pool_detects_double_finish():
    sim = Simulator()
    pool = ReplicaPool(sim, "auth", "west", replicas=1)
    finished = []
    pool.submit(0.01, on_complete=finished.append)
    sim.run()
    assert finished
    # replay the finish event: busy goes negative, the pool notices
    with pytest.raises(InvariantViolation, match="negative queue depth"):
        pool._finish(
            type("Job", (), {"on_complete": staticmethod(lambda now: None)}))


# -------------------------------------------------------------- clean runs

def test_healthy_run_passes_every_invariant():
    sim = small_sim(seed=3)
    epochs = []
    sim.run(DemandMatrix({("default", "west"): 80.0,
                          ("default", "east"): 40.0}),
            duration=1.0, epoch=0.25,
            on_epoch=lambda reports, s: epochs.append(len(reports)))
    assert epochs and all(n == 2 for n in epochs)
    assert sim.telemetry.requests
    for gateway in sim.gateways.values():
        assert gateway.open_requests == 0
