"""Harness/simulation wiring: off-by-default purity, coerce, retention."""

from __future__ import annotations

import pytest

from repro.experiments.harness import run_policy
from repro.experiments.scenarios import fig6a_how_much
from repro.mesh.telemetry import RunTelemetry
from repro.obs import Observability, ObservabilityConfig
from repro.sim.request import Request, RequestAttributes


# ---------------------------------------------------------------- coerce

def test_coerce_none_and_off_config():
    assert Observability.coerce(None) is None
    assert Observability.coerce(ObservabilityConfig.off()) is None
    assert Observability.coerce(Observability()) is None


def test_coerce_enabled_config_builds_runtime():
    obs = Observability.coerce(ObservabilityConfig(tracing=True))
    assert isinstance(obs, Observability)
    assert obs.tracer is not None
    assert obs.metrics is None and obs.decisions is None


def test_coerce_passes_runtime_through():
    obs = Observability(ObservabilityConfig.full())
    assert Observability.coerce(obs) is obs
    assert obs.tracer is not None and obs.metrics is not None
    assert obs.decisions is not None and obs.profiler is not None


def test_coerce_rejects_junk():
    with pytest.raises(TypeError):
        Observability.coerce("tracing")


# ---------------------------------------- disabled default stays identical

def test_disabled_observability_is_byte_identical():
    """The ISSUE acceptance: off-by-default must not perturb a run."""
    base_setup = fig6a_how_much(duration=6.0)
    baseline = run_policy(base_setup.scenario, base_setup.slate)
    obs_setup = fig6a_how_much(duration=6.0)   # fresh policy state
    observed = run_policy(obs_setup.scenario, obs_setup.slate,
                          observability=ObservabilityConfig.full())
    assert observed.latencies == baseline.latencies
    assert observed.latencies_by_class == baseline.latencies_by_class
    assert observed.egress_bytes == baseline.egress_bytes
    assert observed.egress_cost == baseline.egress_cost


def test_enabled_tracing_captures_every_span():
    setup = fig6a_how_much(duration=4.0)
    obs = Observability(ObservabilityConfig(tracing=True))
    outcome = run_policy(setup.scenario, setup.slate, observability=obs)
    assert obs.tracer.span_count > 0
    # the tracer saw at least every request the warm-up cut kept
    assert len(obs.tracer) >= len(outcome.latencies)
    roots = obs.tracer.tree(obs.tracer.request_ids()[0])
    assert roots and roots[0].depth() >= 1
    # WAN annotation is live: the deployment latency was attached
    assert obs.tracer.latency is not None


# ------------------------------------------------------------- retention

def completed(request_id, latency, traffic_class="default",
              arrival=None) -> Request:
    arrival = float(request_id) if arrival is None else arrival
    return Request(request_id=request_id,
                   attributes=RequestAttributes("A"),
                   ingress_cluster="west", arrival_time=arrival,
                   traffic_class=traffic_class,
                   completion_time=arrival + latency)


def test_per_class_latencies_and_warmup_cut():
    telemetry = RunTelemetry()
    for rid in range(20):
        telemetry.record_completion(
            completed(rid, latency=0.010, traffic_class="gold"))
    for rid in range(20, 30):
        telemetry.record_completion(
            completed(rid, latency=0.020, traffic_class="bronze"))
    by_class = telemetry.latencies_by_class()
    assert sorted(by_class) == ["bronze", "gold"]
    assert len(by_class["gold"]) == 20 and len(by_class["bronze"]) == 10
    # warm-up cut filters on each request's *arrival* timestamp
    assert len(telemetry.latencies(after=25.0)) == 5


def test_exact_mode_unchanged_by_default():
    telemetry = RunTelemetry()
    for rid in range(5):
        telemetry.record_completion(completed(rid, latency=0.01))
    assert len(telemetry.requests) == 5
    assert telemetry.completed_count == 5
