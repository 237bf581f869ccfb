"""The event path's cost model as deterministic counters (ISSUE 13).

Wall time says a run got faster; these say *why*, byte-stable on any host:

* a finished call leaves nothing for the cycle collector — the garbage a
  run produces does not grow with the number of requests;
* a proxy compiles a route at most once per ``(service, class, exclude)``
  per routing change, and always on the very next call after one — however
  the change was made; reinstalling the rule already installed is no
  change, for the proxies and for the fluid plan alike;
* the compiled weighted draw is the draw the per-call selection made,
  sample for sample.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import ChaosRuntime, FaultPlan, ReplicaFault
from repro.mesh.loadbalancer import WeightedRandomSelector
from repro.mesh.routing_table import RouteKey
from repro.sim import DemandMatrix, DeploymentSpec, linear_chain_app
from repro.sim.network import LatencyMatrix
from repro.sim.runner import MeshSimulation, TimeoutPolicy
from repro.sim.topology import ClusterSpec

from .test_event_path_golden import fig6b_sim

# ------------------------------------------------------------- no cycles


def collected_after_run(duration: float, timeouts,
                        load: float) -> tuple[int, MeshSimulation]:
    """Objects the cycle collector reclaims after a run, and the run."""
    sim, demand = fig6b_sim(timeouts=timeouts)
    if timeouts is not None:
        # calls lost in a killed pool are what deadlines and retries are for
        sim.sim.schedule(0.2, sim.fail_service, "OR", "S2")
        sim.sim.schedule(0.4, sim.restore_service, "OR", "S2", 5)
    gc.collect()
    gc.disable()
    try:
        sim.run(demand.scaled(load), duration=duration)
        return gc.collect(), sim
    finally:
        gc.enable()


# hedges duplicate whole subtrees, so the guarded runs get half the load
@pytest.mark.parametrize("timeouts, load", [
    (None, 1.0),
    (TimeoutPolicy(call_timeout=0.25, max_attempts=3), 0.5),
    (TimeoutPolicy(call_timeout=0.25, max_attempts=3, hedge_delay=0.1), 0.5),
], ids=["no-policy", "deadline+retry", "deadline+hedge"])
def test_request_path_leaves_no_cyclic_garbage(timeouts, load):
    few, short_run = collected_after_run(0.5, timeouts, load)
    many, long_run = collected_after_run(2.0, timeouts, load)
    assert (long_run.telemetry.completed_count
            > 3 * short_run.telemetry.completed_count > 900)
    if timeouts is not None:
        assert short_run.dropped_calls > 0
        if timeouts.hedge_delay is None:
            assert short_run.timed_out_calls > 0
        else:
            assert long_run.hedged_calls > short_run.hedged_calls > 0
    # refcounting alone frees every call, span, guard and event handle
    assert few == many
    assert many < 50


# --------------------------------------------------------- route compiles


def test_static_rules_compile_each_route_once():
    sim, demand = fig6b_sim()
    sim.run(demand, duration=1.0)
    for name, proxy in sim.proxies.items():
        # three services x one class x no exclusion, whatever the traffic
        assert proxy.route_compiles == 3, name


def three_cluster_sim() -> MeshSimulation:
    app = linear_chain_app(n_services=3, exec_time=0.010)
    latency = LatencyMatrix.from_ms(["west", "mid", "east"], {
        ("west", "mid"): 10.0, ("mid", "east"): 10.0, ("west", "east"): 30.0})
    deployment = DeploymentSpec(
        clusters=[ClusterSpec("west", {"S1": 4, "S2": 4}),     # no S3
                  ClusterSpec("mid", {"S1": 4, "S2": 4, "S3": 4}),
                  ClusterSpec("east", {"S1": 4, "S2": 4, "S3": 4})],
        latency=latency)
    return MeshSimulation(app, deployment, seed=3)


class Probe:
    """Counts the compiles one change forces on west's proxy."""

    def __init__(self, sim: MeshSimulation) -> None:
        self.proxy = sim.proxies["west"]

    def choose(self, service: str, **kwargs) -> str:
        return self.proxy.choose_cluster(service, "default", **kwargs)

    def after(self, change, service: str) -> tuple[str, int]:
        """(destination, compiles) of the first call after ``change()``,
        checking that a second call then compiles nothing."""
        self.choose(service)
        before = self.proxy.route_compiles
        change()
        chosen = self.choose(service)
        compiled = self.proxy.route_compiles - before
        assert self.choose(service) == chosen
        assert self.proxy.route_compiles == before + compiled
        return chosen, compiled


def test_every_routing_table_edit_recompiles_on_the_next_call():
    sim = three_cluster_sim()
    probe, table = Probe(sim), sim.table
    key = RouteKey("S2", "default", "west")
    assert probe.after(lambda: None, "S2") == ("west", 0)
    assert probe.after(lambda: table.set_weights(key, {"east": 1.0}),
                       "S2") == ("east", 1)
    assert probe.after(lambda: table.replace_all({key: {"mid": 1.0}}),
                       "S2") == ("mid", 1)
    assert probe.after(lambda: table.remove(key), "S2") == ("west", 1)
    table.set_weights(key, {"east": 1.0})
    assert probe.after(table.clear, "S2") == ("west", 1)


def test_reinstalling_the_installed_rule_compiles_nothing():
    sim = three_cluster_sim()
    probe, table = Probe(sim), sim.table
    key = RouteKey("S2", "default", "west")
    table.set_weights(key, {"east": 1.0})
    version = table.version
    assert probe.after(lambda: table.set_weights(key, {"east": 1.0}),
                       "S2") == ("east", 0)
    assert probe.after(lambda: table.upsert([(key, (("east", 1.0),))]),
                       "S2") == ("east", 0)
    assert table.version == version
    # one push moving two rules is one change: one compile per route
    other = RouteKey("S3", "default", "west")
    assert probe.after(lambda: table.upsert([
        (key, (("mid", 1.0),)), (other, (("east", 1.0),))]),
        "S2") == ("mid", 1)
    assert table.version == version + 1


def test_reinstalling_the_installed_rule_keeps_the_fluid_plan():
    app = linear_chain_app(n_services=3, exec_time=0.010)
    deployment = DeploymentSpec.uniform(
        app.services(), ["west", "east"], replicas=8,
        latency=LatencyMatrix.from_ms(["west", "east"],
                                      {("west", "east"): 25.0}))
    sim = MeshSimulation(app, deployment, seed=7, fidelity="fluid",
                         fluid_tick=0.1)
    key = RouteKey("S2", "default", "west")
    split = {"west": 0.5, "east": 0.5}
    at = sim.sim.schedule_at
    at(0.25, sim.table.set_weights, key, split)
    at(0.45, sim.table.set_weights, key, dict(split))
    at(0.65, sim.table.upsert, [(key, tuple(split.items()))])
    sim.run(DemandMatrix({("default", "west"): 400.0}), 1.0)
    # the first tick's plan and the one after the only change
    assert sim.fluid.model.compiles == 2


def test_every_deployment_change_recompiles_on_the_next_call():
    sim = three_cluster_sim()
    probe = Probe(sim)
    spec = sim.deployment.cluster("mid")
    # S3 is not in west: the nearest cluster running it is mid
    assert probe.after(lambda: None, "S3") == ("mid", 0)
    assert probe.after(lambda: sim.fail_service("mid", "S3"),
                       "S3") == ("east", 1)
    assert probe.after(lambda: sim.restore_service("mid", "S3", 4),
                       "S3") == ("mid", 1)
    # a write straight into the placement, as tests and benchmarks make
    assert probe.after(lambda: spec.replicas.__setitem__("S3", 0),
                       "S3") == ("east", 1)
    assert probe.after(lambda: spec.replicas.update(S3=2),
                       "S3") == ("mid", 1)
    # writing the count already there changes nothing, so nothing compiles
    assert probe.after(lambda: spec.replicas.__setitem__("S3", 2),
                       "S3") == ("mid", 0)


def test_chaos_replica_crash_and_recovery_recompile():
    sim = three_cluster_sim()
    probe = Probe(sim)
    ChaosRuntime(sim, FaultPlan((ReplicaFault(
        start=1.0, duration=1.0, cluster="mid", service="S3", crash=2),)))
    revision = sim.deployment.revision
    assert probe.after(lambda: sim.sim.run(until=1.5), "S3") == ("mid", 1)
    assert probe.after(lambda: sim.sim.run(until=2.5), "S3") == ("mid", 1)
    assert sim.deployment.revision == revision + 2


def test_latency_overrides_recompile_the_nearest_deployed_fallback():
    sim = three_cluster_sim()
    probe, latency = Probe(sim), sim.deployment.latency
    token = None

    def inflate():
        nonlocal token
        token = latency.apply_override("west", "mid", extra_delay=0.050)

    assert probe.after(inflate, "S3") == ("east", 1)
    assert probe.after(lambda: latency.remove_override(token),
                       "S3") == ("mid", 1)


def test_exclude_is_part_of_the_route_key():
    sim = three_cluster_sim()
    probe = Probe(sim)
    sim.table.set_weights(RouteKey("S2", "default", "west"), {"mid": 1.0})
    assert probe.choose("S2") == "mid"
    # excluding the rule's only target falls back to local, for that key only
    assert probe.choose("S2", exclude="mid") == "west"
    assert probe.choose("S2") == "mid"
    assert probe.choose("S2", exclude="east") == "mid"
    assert probe.proxy.route_compiles == 3
    # the only cluster left is never excluded
    sim.fail_service("east", "S3")
    assert probe.choose("S3", exclude="mid") == "mid"


# ------------------------------------------------------ the weighted draw


def reference_pick(rng: np.random.Generator, weights: dict[str, float]) -> str:
    """``WeightedRandomSelector.pick`` as it stood before routes were
    compiled, frozen here as the reference the compiled draw must match."""
    names = list(weights)
    values = np.fromiter((weights[n] for n in names), dtype=float)
    total = values.sum()
    if len(names) == 1:
        return names[0]
    point = rng.random() * total
    cumulative = 0.0
    for name, value in zip(names, values):
        cumulative += value
        if point < cumulative:
            return name
    return names[-1]


#: normal, tiny, subnormal and exactly-equal weights
_WEIGHTS = st.one_of(
    st.floats(min_value=1e-3, max_value=1.0),
    st.floats(min_value=5e-324, max_value=1e-300),
    st.sampled_from([0.1, 0.25, 1.0 / 3.0, 1.0]))


@settings(max_examples=200, deadline=None)
@given(weights=st.lists(_WEIGHTS, min_size=1, max_size=12),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_compiled_draw_matches_the_per_call_selection(weights, seed):
    by_name = {f"c{i}": w for i, w in enumerate(weights)}
    selector = WeightedRandomSelector(np.random.default_rng(seed))
    reference_rng = np.random.default_rng(seed)
    choice = selector.compile(by_name)
    for _ in range(40):
        assert selector.draw(choice) == reference_pick(reference_rng,
                                                       by_name)
    # same number of uniforms consumed, too
    assert (selector._rng.bit_generator.state
            == reference_rng.bit_generator.state)
