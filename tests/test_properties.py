"""Property-based tests (hypothesis) on core invariants."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cdf import EmpiricalCDF
from repro.baselines.waterfall import waterfall_split
from repro.core.latency.mm1 import PoolDelayModel, erlang_c, mmc_backlog
from repro.core.optimizer.piecewise import evaluate, linearize_convex
from repro.core.rules import RoutingRule
from repro.mesh.routing_table import RouteKey, RoutingTable
from repro.sim.workload import DemandMatrix

finite_weights = st.dictionaries(
    keys=st.sampled_from(["a", "b", "c", "d"]),
    values=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    min_size=1, max_size=4,
).filter(lambda w: sum(w.values()) > 1e-9)


@given(finite_weights)
def test_routing_table_weights_normalised(weights):
    table = RoutingTable()
    table.set_weights(RouteKey("S", "c", "a"), weights)
    normalised = table.weights_for("S", "c", "a")
    assert sum(normalised.values()) == pytest.approx(1.0)
    assert all(v > 0 for v in normalised.values())
    assert set(normalised) <= set(weights)


@given(finite_weights)
def test_routing_rule_preserves_proportions(weights):
    rule = RoutingRule.make("S", "c", "a", weights)
    normalised = rule.weight_map()
    total = sum(weights.values())
    for name, value in weights.items():
        share = value / total
        if share > 0:
            assert normalised[name] == pytest.approx(share)
        else:
            # zero or subnormal-underflow shares are dropped entirely
            assert name not in normalised
    assert sum(normalised.values()) == pytest.approx(1.0)


@given(st.integers(min_value=1, max_value=64),
       st.floats(min_value=0.0, max_value=0.999))
def test_erlang_c_is_probability(servers, rho):
    value = erlang_c(servers, rho * servers)
    assert 0.0 <= value <= 1.0


@given(st.integers(min_value=1, max_value=32),
       st.floats(min_value=0.0, max_value=0.99))
def test_mmc_backlog_at_least_offered_load(servers, rho):
    offered = rho * servers
    backlog = mmc_backlog(offered, servers)
    # in-system count includes those in service: N >= a always
    assert backlog >= offered - 1e-9


@given(st.integers(min_value=1, max_value=16),
       st.lists(st.floats(min_value=0.01, max_value=0.97), min_size=2,
                max_size=6))
def test_pool_backlog_monotone_in_load(servers, rhos):
    model = PoolDelayModel(servers)
    ordered = sorted(rhos)
    values = [model.backlog(r * servers) for r in ordered]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


@given(st.integers(min_value=2, max_value=20),
       st.floats(min_value=0.5, max_value=0.98))
def test_linearization_upper_bounds_function(servers, rho_max):
    model = PoolDelayModel(servers)
    x_max = rho_max * servers
    segments = linearize_convex(model.backlog, x_max)
    for fraction in (0.1, 0.33, 0.61, 0.87, 0.99):
        x = fraction * x_max
        assert evaluate(segments, x) >= model.backlog(x) - 1e-9


@given(st.lists(st.floats(min_value=0.0, max_value=1e4,
                          allow_nan=False), min_size=1, max_size=200),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0))
def test_cdf_quantile_monotone(values, q1, q2):
    cdf = EmpiricalCDF(values)
    lo, hi = min(q1, q2), max(q1, q2)
    assert cdf.quantile(lo) <= cdf.quantile(hi) + 1e-12
    assert cdf.min <= cdf.quantile(lo)
    assert cdf.quantile(hi) <= cdf.max


loads_st = st.dictionaries(
    keys=st.sampled_from(["w", "x", "y", "z"]),
    values=st.floats(min_value=0.0, max_value=1e4),
    min_size=1, max_size=4)
caps_st = st.dictionaries(
    keys=st.sampled_from(["w", "x", "y", "z"]),
    values=st.floats(min_value=0.0, max_value=1e4),
    min_size=4, max_size=4)


@settings(max_examples=200)
@given(loads_st, caps_st, st.booleans())
def test_waterfall_split_is_a_distribution(loads, capacities, coordinated):
    deployed = ["w", "x", "y", "z"]
    proximity = {src: [c for c in deployed if c != src]
                 for c in deployed for src in deployed}
    split = waterfall_split(loads, capacities, deployed, proximity,
                            coordinated=coordinated)
    for src, load in loads.items():
        if load > 0:
            fractions = split[src]
            assert sum(fractions.values()) == pytest.approx(1.0)
            assert all(f >= 0 for f in fractions.values())
            assert set(fractions) <= set(deployed)
        else:
            assert src not in split or split.get(src) is not None


@settings(max_examples=200)
@given(loads_st, caps_st)
def test_waterfall_conserves_load(loads, capacities):
    deployed = ["w", "x", "y", "z"]
    proximity = {src: [c for c in deployed if c != src] for src in deployed}
    split = waterfall_split(loads, capacities, deployed, proximity)
    total_in = sum(load for load in loads.values() if load > 0)
    total_out = sum(loads[src] * fraction
                    for src, fractions in split.items()
                    for fraction in fractions.values())
    assert total_out == pytest.approx(total_in)


@given(st.dictionaries(
    keys=st.tuples(st.sampled_from(["a", "b"]),
                   st.sampled_from(["w", "e"])),
    values=st.floats(min_value=0.001, max_value=1e5),
    min_size=1, max_size=4),
    st.floats(min_value=0.0, max_value=10.0))
def test_demand_matrix_scaling(entries, factor):
    demand = DemandMatrix(entries)
    scaled = demand.scaled(factor)
    assert scaled.total_rps() == pytest.approx(demand.total_rps() * factor)


@given(st.lists(st.tuples(st.sampled_from(["GET", "POST"]),
                          st.sampled_from([f"/p{i}" for i in range(10)])),
                max_size=300),
       st.integers(min_value=1, max_value=8))
def test_derivation_conserves_observations(pairs, max_classes):
    from repro.core.classes.derivation import derive_classes
    from repro.sim.request import RequestAttributes
    observations = [RequestAttributes.make("S", m, p) for m, p in pairs]
    derived = derive_classes(observations, max_classes=max_classes,
                             min_share=0.05, min_samples=5)
    assert sum(derived.support.values()) == len(observations)
    assert len(derived.class_names) <= max_classes
    # every observed signature has an assignment
    for attrs in observations:
        from repro.core.classes.classifier import canonical_class_name
        sig = canonical_class_name("S", attrs.method, attrs.path)
        assert sig in derived.assignment


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=50),
                          st.floats(min_value=0.01, max_value=100.0)),
                min_size=1, max_size=60),
       st.integers(min_value=1, max_value=8),
       st.floats(min_value=0.1, max_value=50.0))
def test_cache_respects_capacity_and_ttl(operations, capacity, ttl):
    from repro.sim.cache import CacheSpec, EdgeCache
    cache = EdgeCache(CacheSpec("a", "b", ttl=ttl, capacity=capacity))
    now = 0.0
    for key, gap in operations:
        now += gap
        cache.insert(key, now)
        assert len(cache) <= capacity
        # an entry inserted just now must be visible within its TTL
        assert cache.lookup(key, now + ttl * 0.5)
    # nothing survives past its TTL
    assert not any(cache.lookup(key, now + ttl + 1.0)
                   for key, _ in operations)


@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=1000.0),
                          st.floats(min_value=0.1, max_value=100.0)),
                min_size=1, max_size=10))
def test_timeline_profiles_cover_all_keyframes(rates_and_gaps):
    from repro.sim.traces import DemandTimeline
    from repro.sim.workload import DemandMatrix
    keyframes = []
    time = 0.0
    for rps, gap in rates_and_gaps:
        keyframes.append((time, DemandMatrix(
            {("c", "west"): rps} if rps > 0 else {})))
        time += gap
    timeline = DemandTimeline(keyframes=keyframes, end=time + 1.0)
    profile = timeline.profile_for("c", "west")
    for (start, demand) in keyframes:
        segment = profile.segment_at(start)
        expected = demand.rps("c", "west")
        actual = segment.rps if segment is not None else 0.0
        assert actual == pytest.approx(expected)


@given(st.dictionaries(st.sampled_from(["a", "b", "c", "d", "e"]),
                       st.floats(min_value=1e-6, max_value=1e3),
                       min_size=1, max_size=5))
def test_render_integer_percents_sum_to_100(weights):
    from repro.mesh.render import _integer_percents
    total = sum(weights.values())
    normalised = {k: v / total for k, v in weights.items()}
    percents = _integer_percents(normalised)
    assert sum(p for _, p in percents) == 100
    assert all(p > 0 for _, p in percents)
    assert set(name for name, _ in percents) <= set(weights)


@settings(max_examples=50)
@given(st.dictionaries(st.sampled_from(["a", "b", "c"]),
                       st.floats(min_value=0.05, max_value=1.0),
                       min_size=1, max_size=3),
       st.integers(min_value=0, max_value=2**31))
def test_rendezvous_total_function(weights, key):
    from repro.mesh.affinity import weighted_rendezvous
    winner = weighted_rendezvous(key, weights)
    assert winner in weights
    # stability: same inputs, same winner
    assert weighted_rendezvous(key, weights) == winner


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=50.0, max_value=900.0),
       st.floats(min_value=0.0, max_value=900.0),
       st.sampled_from([5.0, 25.0, 50.0]))
def test_optimizer_flows_conserve_demand(west_rps, east_rps, one_way_ms):
    from repro.core.optimizer import INGRESS_EDGE, SolverError, TEProblem, solve
    from repro.sim import (DeploymentSpec, linear_chain_app,
                           two_region_latency)
    app = linear_chain_app(n_services=2, exec_time=0.010)
    deployment = DeploymentSpec.uniform(
        app.services(), ["west", "east"], replicas=5,
        latency=two_region_latency(one_way_ms))
    demand = DemandMatrix({("default", "west"): west_rps,
                           ("default", "east"): east_rps})
    problem = TEProblem.from_specs(app, deployment, demand)
    total_capacity = 2 * 5 / 0.010 * problem.rho_max
    try:
        result = solve(problem)
    except SolverError:
        # only legitimate when the instance genuinely exceeds capacity
        assert west_rps + east_rps > total_capacity * 0.99
        return
    ingress = sum(rate for (cls, e, *_), rate in result.flows.items()
                  if e == INGRESS_EDGE)
    child = sum(rate for (cls, e, *_), rate in result.flows.items()
                if e == 0)
    total = west_rps + east_rps
    assert ingress == pytest.approx(total, rel=1e-5)
    assert child == pytest.approx(total, rel=1e-5)
    for rho in result.pool_utilization.values():
        assert rho <= problem.rho_max + 1e-6
