"""Observability overhead: events/sec with pillars off vs. on.

The acceptance bars: tracing disabled must cost <2% against the bare
simulation (one ``is None`` check per span), the full tracing+metrics path
must stay under 25% overhead, and the sim-time scrape loop (with and
without SLO evaluation) must also stay under 25%. Each mode's
events/second headline lands in ``BENCH_obs.json`` so the trajectory is
tracked across PRs alongside ``BENCH_engine.json`` — and diffed in CI by
``repro obs diff``.
"""

import statistics
import time

from repro.obs import Observability, ObservabilityConfig, default_latency_slo
from repro.sim import (DemandMatrix, DeploymentSpec, linear_chain_app,
                       two_region_latency)
from repro.sim.runner import MeshSimulation

_DURATION = 5.0


def _scenario():
    app = linear_chain_app()
    deployment = DeploymentSpec.uniform(
        app.services(), ["west", "east"], replicas=5,
        latency=two_region_latency(25.0))
    demand = DemandMatrix({("default", "west"): 300.0,
                           ("default", "east"): 100.0})
    return app, deployment, demand


def _simulate(config):
    obs = Observability(config) if config is not None else None
    app, deployment, demand = _scenario()
    sim = MeshSimulation(app, deployment, seed=1, observability=obs)
    sim.run(demand, duration=_DURATION)
    if obs is not None:
        obs.collect(sim)   # the pull-based metrics sweep (no-op sans pillar)
    return sim.sim.events_processed


def _record(benchmark, bench_json, key, events):
    if benchmark.stats is not None:   # absent under --benchmark-disable
        bench_json("obs", {
            key: events / benchmark.stats.stats.mean,
        })


def test_observability_disabled(benchmark, bench_json):
    """Baseline: no observability object at all (the default path)."""
    events = benchmark(_simulate, None)
    assert events > 0
    _record(benchmark, bench_json, "events_per_sec_off", events)


def test_observability_tracing(benchmark, bench_json):
    """Every span kept in the run's telemetry (what the tracer reads)."""
    events = benchmark(_simulate, ObservabilityConfig(tracing=True))
    assert events > 0
    _record(benchmark, bench_json, "events_per_sec_tracing", events)


def test_observability_tracing_and_metrics(benchmark, bench_json):
    """Tracing plus the end-of-run metrics collection sweep."""
    events = benchmark(_simulate,
                       ObservabilityConfig(tracing=True, metrics=True))
    assert events > 0
    _record(benchmark, bench_json, "events_per_sec_tracing_metrics", events)


def test_observability_timeseries(benchmark, bench_json):
    """Metrics plus the sim-time scrape loop at a 0.25 s interval."""
    events = benchmark(_simulate, ObservabilityConfig(
        metrics=True, timeseries=True, scrape_interval=0.25))
    assert events > 0
    _record(benchmark, bench_json, "events_per_sec_timeseries", events)


def test_observability_timeseries_and_slo(benchmark, bench_json):
    """The full streaming pipeline: scrape loop + SLO burn-rate engine."""
    events = benchmark(_simulate, ObservabilityConfig(
        metrics=True, timeseries=True, scrape_interval=0.25,
        slo=(default_latency_slo(0.25),)))
    assert events > 0
    _record(benchmark, bench_json, "events_per_sec_timeseries_slo", events)


def test_observability_forecast_anomaly(benchmark, bench_json):
    """The predictive pillar riding the scrape loop: forecast models,
    anomaly detectors, and the breach predictor all enabled. Bar: within
    25% of the bare simulation, like every other enabled pillar."""
    events = benchmark(_simulate, ObservabilityConfig(
        metrics=True, timeseries=True, scrape_interval=0.25,
        slo=(default_latency_slo(0.25),), forecast=True, anomaly=True))
    assert events > 0
    _record(benchmark, bench_json, "events_per_sec_forecast_anomaly",
            events)


def test_breach_prediction_quality(benchmark, bench_json):
    """Predictive-alert quality on the SLO burn-rate scenario.

    Deterministic same-seed run, so the lead-time and precision/recall
    rows diff exactly across PRs; `*_seconds=5.0` in bench-diff gives the
    lead row headroom if the scenario itself is retuned.
    """
    from repro.experiments import scenarios as sc

    def run():
        setup = sc.slo_burnrate_setup(duration=80.0, seed=42)
        obs = Observability(setup.observability(forecast=True,
                                                anomaly=True))
        setup.run(obs)
        return obs.breach.score(), obs.anomaly.summary()

    score, anomalies = benchmark.pedantic(run, rounds=1, iterations=1)
    assert score.hits >= 1, "the surge must be predicted before it fires"
    assert score.mean_lead_seconds > 0
    bench_json("obs", {
        "predicted_breach_lead_seconds": score.mean_lead_seconds,
        "prediction_precision": score.precision,
        "prediction_recall": score.recall,
        "anomaly_events": anomalies["events"],
    })


# --------------------------------------------------- provenance overhead
#
# Provenance instruments the epoch control loop (digest + rule deltas +
# effect attribution per epoch), so its cost only shows up under an
# adaptive policy. One run is a tenth of a second, well inside the host's
# run-to-run noise, so the two rows are the medians of alternating
# off/provenance pairs after one untimed warm-up of each, and
# `control_provenance_overhead` is the median of the pairs' wall-time
# ratios (provenance / off). Bar: the provenance row must stay within 25%
# of the control-loop baseline (target <=5%); `repro obs diff` enforces
# the band across PRs via BENCH_obs.json.

_CONTROL_PAIRS = 5


def _simulate_control(provenance: bool):
    from repro import GlobalControllerConfig, SlatePolicy
    from repro.experiments.harness import Scenario, run_policy

    app, deployment, demand = _scenario()
    scenario = Scenario("obs-bench-control", app, deployment, demand,
                        duration=_DURATION, warmup=0.0, epoch=1.0)
    config = ObservabilityConfig(
        decisions=True, timeseries=True, scrape_interval=0.25,
        provenance=provenance)
    policy = SlatePolicy(GlobalControllerConfig(rho_max=0.95), adaptive=True)
    outcome = run_policy(scenario, policy,
                         observability=Observability(config))
    return len(outcome.latencies)


def _control_pairs() -> tuple[set[int], dict[bool, list[float]]]:
    """Wall seconds of alternating off/provenance control-loop runs,
    keyed by ``provenance``, and the request counts they served."""
    requests = {_simulate_control(False), _simulate_control(True)}
    seconds: dict[bool, list[float]] = {False: [], True: []}
    for index in range(_CONTROL_PAIRS):
        for provenance in ((False, True) if index % 2 == 0
                           else (True, False)):
            start = time.perf_counter()
            requests.add(_simulate_control(provenance))
            seconds[provenance].append(time.perf_counter() - start)
    return requests, seconds


def test_control_loop_provenance_overhead(benchmark, bench_json):
    """Adaptive control loop with decision log + scrape, without and with
    the flight recorder chaining every epoch, in alternating pairs."""
    requests, seconds = benchmark.pedantic(_control_pairs, rounds=1,
                                           iterations=1)
    # provenance is read-only: both sides serve the same requests
    served, = requests
    assert served > 0
    off, on = seconds[False], seconds[True]
    bench_json("obs", {
        "requests_per_sec_control_off": served / statistics.median(off),
        "requests_per_sec_control_provenance":
            served / statistics.median(on),
        "control_provenance_overhead": statistics.median(
            [b / a for a, b in zip(off, on)]),
    })
