"""The compiled routing plan: what invalidates it, and how much work it saves.

``FlowModel`` compiles its routing plan at most once per (routing-table
version, latency revision, deployment signature), checked once per tick
(ISSUE 12). These tests pin the invalidation set — a rule install, a WAN
override or partition, ``fail_service``/``restore_service`` and a chaos
replica crash each cost exactly one recompile on the next tick, nothing
else costs any — and that pool state which is *not* routing (an autoscaler
resize, a chaos slowdown) still reaches the very next tick. Work is
counted, not timed: ``FlowModel.compiles`` and calls to
``FlowModel.routing_matrix`` are deterministic.
"""

from __future__ import annotations

import pytest

from repro.chaos.inject import ChaosRuntime
from repro.chaos.plan import FaultPlan, ReplicaFault
from repro.core.controller.global_controller import GlobalControllerConfig
from repro.core.controller.policy import SlatePolicy
from repro.experiments.harness import Scenario, run_policy
from repro.experiments.scenarios import synthetic_te_problem
from repro.mesh.routing_table import RouteKey
from repro.sim import (DemandMatrix, DeploymentSpec, MeshSimulation,
                       linear_chain_app, two_region_latency)
from repro.sim.engine import Simulator
from repro.sim.fluid import FlowModel, FluidPool
from repro.sim.fluid import pool as pool_module
from repro.sim.fluid.flows import UTILIZATION_CAP, fast_erlang_c
from repro.sim.rng import RngRegistry
from repro.sim.topology import ClusterSpec
from repro.sim.traces import diurnal_timeline

from .test_fluid_tick_golden import specs_of

TICK = 0.1


def chain_sim() -> MeshSimulation:
    app = linear_chain_app(n_services=3, exec_time=0.010)
    deployment = DeploymentSpec.uniform(
        app.services(), ["west", "east"], replicas=8,
        latency=two_region_latency(25.0))
    return MeshSimulation(app, deployment, seed=7, fidelity="fluid",
                          fluid_tick=TICK)


def test_plan_recompiles_exactly_when_routing_inputs_move():
    sim = chain_sim()
    s1, s2, s3 = sim.app.services()
    latency = sim.network.latency
    ChaosRuntime(sim, FaultPlan((
        ReplicaFault(start=1.25, duration=0.2, cluster="east", service=s2,
                     crash=2),
        ReplicaFault(start=1.65, duration=0.2, cluster="west", service=s1,
                     slowdown=2.0))))
    at = sim.sim.schedule_at
    at(0.25, sim.table.set_weights, RouteKey(s2, "default", "west"),
       {"west": 0.5, "east": 0.5})
    at(0.45, lambda: latency.apply_override("west", "east",
                                            extra_delay=0.005))
    at(0.65, lambda: latency.apply_override("west", "east", partition=True))
    at(0.85, sim.fail_service, "east", s3)
    at(1.05, sim.restore_service, "east", s3, 8)
    at(2.05, lambda: sim.clusters["west"].pools[s1].resize(5))

    observed: dict[float, dict] = {}

    def probe() -> None:
        solution = sim.fluid.last_solution
        observed[round(sim.sim.now - TICK / 2, 2)] = {
            "compiles": sim.fluid.model.compiles,
            "offered": solution.pool_offered[(s1, "west")],
            "wait": solution.pool_wait[(s1, "west")],
        }

    duration = 2.4
    for tick in range(1, round(duration / TICK) + 1):
        at(tick * TICK + TICK / 2, probe)
    sim.run(DemandMatrix({("default", "west"): 400.0,
                          ("default", "east"): 100.0}), duration)

    # one compile on the first tick, then one on the tick after each
    # routing-table, latency or deployment change — and never otherwise
    dirty = [0.1, 0.3, 0.5, 0.7, 0.9, 1.1, 1.3, 1.5]
    for tick_time, seen in sorted(observed.items()):
        expected = sum(1 for t in dirty if t <= tick_time + 1e-9)
        assert seen["compiles"] == expected, (tick_time, seen)
    assert sim.fluid.model.compiles == len(dirty)

    # non-routing pool state reaches the next tick without a recompile:
    # the chaos slowdown doubles offered work on [1.7, 1.9) ...
    assert observed[1.7]["offered"] == pytest.approx(
        2.0 * observed[1.6]["offered"])
    assert observed[1.9]["offered"] == pytest.approx(observed[1.6]["offered"])
    # ... and the resize to 5 replicas (4 erlangs offered) lengthens waits
    assert observed[2.1]["offered"] == pytest.approx(observed[2.0]["offered"])
    assert observed[2.1]["wait"] > 10 * observed[2.0]["wait"]


def test_dormant_class_on_an_undeployed_service_compiles():
    """A class nobody sends traffic to must not break the compile; a live
    flow into a service deployed nowhere still fails loudly."""
    app = linear_chain_app(n_services=2, exec_time=0.010)
    s1, s2 = app.services()
    deployment = DeploymentSpec(
        [ClusterSpec("west", {s1: 4}), ClusterSpec("east", {s1: 4})],
        two_region_latency(25.0))
    sim = MeshSimulation(app, deployment, seed=1)
    model = FlowModel(app, deployment, sim.table, deployment.latency,
                      deployment.pricing)
    pools = {(s1, "west"): (4, 1.0), (s1, "east"): (4, 1.0)}
    idle = model.propagate(DemandMatrix(), pools)
    assert idle.per_class["default"].exec_rates == {}
    with pytest.raises(ValueError, match="not deployed anywhere"):
        model.propagate(DemandMatrix({("default", "west"): 10.0}), pools)


def test_closed_loop_compiles_once_per_routing_change(monkeypatch):
    """The ledger's ``closed_loop`` workload at smoke scale: an adaptive
    path-formulation controller over a hybrid run, 12 epochs."""
    app, deployment, demand = specs_of(synthetic_te_problem(
        6, 3, 12, rps_per_class=1.0e5 / 24, headroom=4.0,
        ingresses_per_class=2))

    models: list[FlowModel] = []
    calls = {"routing_matrix": 0}
    init = FlowModel.__init__
    build = FlowModel.routing_matrix

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        models.append(self)

    def counting_build(self, service, traffic_class):
        calls["routing_matrix"] += 1
        return build(self, service, traffic_class)

    monkeypatch.setattr(FlowModel, "__init__", tracking_init)
    monkeypatch.setattr(FlowModel, "routing_matrix", counting_build)

    duration, epochs = 2.4, 12
    scenario = Scenario("closed-loop-smoke", app, deployment, demand,
                        duration=duration, warmup=duration / 6, seed=1,
                        epoch=duration / epochs)
    policy = SlatePolicy(
        GlobalControllerConfig(learn_profiles=False, formulation="path",
                               path_k=4, path_prune_limit=6),
        adaptive=True)
    run_policy(scenario, policy, fidelity="hybrid", sample_rate=4e-4,
               fluid_tick=TICK,
               timeline=diurnal_timeline(demand, duration, period=duration,
                                         amplitude=0.4, steps_per_period=12))

    (model,) = models
    hops = sum(len(spec.services()) for spec in app.classes.values())
    assert 1 <= model.compiles <= 1 + epochs
    assert calls["routing_matrix"] <= model.compiles * hops


def test_sampled_waits_draw_the_same_stream_from_a_cached_law(monkeypatch):
    """``FluidPool._draw_wait`` solves Erlang-C once per distinct pool
    state, not once per draw — same draws, same values, same count."""
    def reference_draw(rng, servers, offered, arrival):
        if offered <= 0 or arrival <= 0:
            return 0.0
        effective = min(offered, UTILIZATION_CAP * servers)
        if float(rng.random()) >= fast_erlang_c(servers, effective):
            return 0.0
        rate = (servers - effective) / (offered / arrival)
        return float(rng.exponential(1.0 / rate))

    solves = []
    monkeypatch.setattr(
        pool_module, "fast_erlang_c",
        lambda *args: solves.append(args) or fast_erlang_c(*args))
    states = [(8, 0.0, 0.0), (8, 7.2, 720.0), (8, 7.2, 720.0),
              (600, 590.0, 59000.0), (5, 7.2, 720.0), (5, 4.0, 400.0)]
    registry = RngRegistry(seed=11)
    pool = FluidPool(Simulator(), "svc", "west", replicas=8,
                     rng=registry.stream("pool"))
    reference_rng = RngRegistry(seed=11).stream("pool")
    for servers, offered, arrival in states:
        pool.resize(servers)
        pool.fluid_update(offered, arrival, 0.0, 0.1, 0)
        for _ in range(50):
            assert pool._draw_wait() == reference_draw(
                reference_rng, servers, offered, arrival)
    # the streams are still aligned: same number of draws on both sides
    assert registry.stream("pool").random() == reference_rng.random()
    assert len(solves) == 4     # one per distinct loaded state


def test_unchanged_inputs_reuse_the_previous_solution():
    """``propagate`` is a function of (plan, demand, pool state); a tick
    that changes none of them gets the previous tick's solution back."""
    sim = chain_sim()
    s1, s2, s3 = sim.app.services()
    model = FlowModel(sim.app, sim.deployment, sim.table,
                      sim.network.latency, sim.network.pricing)
    demand = DemandMatrix({("default", "west"): 400.0})
    pools = {(service, cluster): (8, 1.0) for service in sim.app.services()
             for cluster in ("west", "east")}
    first = model.propagate(demand, pools)
    assert model.propagate(DemandMatrix({("default", "west"): 400.0}),
                           dict(pools)) is first

    demand.set("default", "west", 410.0)        # mutated in place
    moved = model.propagate(demand, pools)
    assert moved is not first
    assert moved.pool_arrival[(s1, "west")] == 410.0

    pools[(s1, "west")] = (8, 2.0)              # degraded, same dict object
    slowed = model.propagate(demand, pools)
    assert slowed is not moved
    assert slowed.pool_offered[(s1, "west")] == pytest.approx(
        2.0 * moved.pool_offered[(s1, "west")])

    sim.table.set_weights(RouteKey(s2, "default", "west"), {"east": 1.0})
    rerouted = model.propagate(demand, pools)
    assert rerouted is not slowed
    assert rerouted.pool_arrival[(s2, "east")] == 410.0
    assert model.propagate(demand, pools) is rerouted
    assert model.compiles == 2
