"""Sweep executor + steady-epoch re-plan benchmarks.

Two headline numbers, both exported to ``BENCH_sweep.json``:

* parallel vs serial wall-clock for a multi-seed figure sweep (the
  speedup *assertion* lives in ``tests/test_parallel.py`` with a floor
  scaled to the host's core count; this bench records what the current
  host does, including the per-effective-core normalization);
* zero-iteration hot starts on a steady-demand adaptive scenario —
  repeated epochs assemble the previous epoch's LP unchanged, which the
  epoch solver's hot start re-plans without a simplex pivot.
"""

import os
import time

from repro.analysis.report import format_table
from repro.core.controller.global_controller import GlobalControllerConfig
from repro.core.controller.policy import SlatePolicy
from repro.core.optimizer import EpochSolver
from repro.experiments.harness import Scenario, run_policy
from repro.experiments.parallel import SweepExecutor, SweepUnit
from repro.experiments.scenarios import fig6a_how_much
from repro.sim import (DemandMatrix, DeploymentSpec, linear_chain_app,
                       two_region_latency)

SWEEP_SEEDS = (42, 7, 101, 13)


def build_sweep_units(duration: float = 6.0) -> list:
    """A ≥8-unit sweep: fig6a at four seeds, both policies per seed."""
    units = []
    for seed in SWEEP_SEEDS:
        setup = fig6a_how_much(duration=duration, seed=seed)
        for policy in setup.policies:
            units.append(SweepUnit(setup.scenario, policy,
                                   label=f"fig6a:{seed}"))
    return units


def test_sweep_parallel_vs_serial(benchmark, report_sink, bench_json):
    """Wall-clock of the same sweep, serial vs the process pool."""
    units = build_sweep_units()
    parallel_workers = min(4, os.cpu_count() or 1)

    def run_both():
        serial = SweepExecutor(workers=1)
        serial_outcomes = serial.run_units(units)
        serial_seconds = serial.last_elapsed
        parallel = SweepExecutor(workers=parallel_workers)
        parallel_outcomes = parallel.run_units(units)
        parallel_seconds = parallel.last_elapsed
        return (serial_outcomes, serial_seconds,
                parallel_outcomes, parallel_seconds)

    (serial_outcomes, serial_seconds, parallel_outcomes,
     parallel_seconds) = benchmark.pedantic(run_both, rounds=1, iterations=1)

    # parallel output must be byte-identical to serial, in the same order
    assert len(serial_outcomes) == len(parallel_outcomes) == len(units)
    for ours, theirs in zip(serial_outcomes, parallel_outcomes):
        assert ours.policy == theirs.policy
        assert ours.latencies == theirs.latencies
        assert ours.egress_bytes == theirs.egress_bytes
        assert ours.egress_cost == theirs.egress_cost

    speedup = serial_seconds / parallel_seconds if parallel_seconds else 0.0
    rows = [["serial", 1, serial_seconds],
            ["parallel", parallel_workers, parallel_seconds]]
    text = format_table(
        ["mode", "workers", "wall-clock (s)"], rows,
        title=f"Sweep executor: {len(units)} units, speedup {speedup:.2f}x")
    report_sink("sweep_executor", text)
    # per-core scaling: a 4x speedup on 4 cores and a 1x "speedup" on a
    # 1-core host are both perfect scaling — recording the normalized row
    # keeps bench-diff meaningful when hosts change core counts
    effective_cores = min(parallel_workers, os.cpu_count() or 1)
    bench_json("sweep", {
        "sweep_units": len(units),
        "workers": parallel_workers,
        "cpu_count": os.cpu_count(),
        "effective_cores": effective_cores,
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "speedup": speedup,
        "speedup_per_effective_core": (speedup / effective_cores
                                       if effective_cores else 0.0),
    })


def steady_adaptive_scenario(duration: float = 16.0) -> tuple:
    """A steady-demand adaptive setup whose epochs repeat the same LP."""
    app = linear_chain_app(n_services=3, exec_time=0.008)
    deployment = DeploymentSpec.uniform(
        app.services(), ["west", "east"], replicas=5,
        latency=two_region_latency(25.0))
    demand = DemandMatrix({("default", "west"): 300.0,
                           ("default", "east"): 120.0})
    scenario = Scenario(name="steady-adaptive", app=app,
                        deployment=deployment, demand=demand,
                        duration=duration, warmup=duration / 4,
                        seed=42, epoch=1.0)
    policy = SlatePolicy(
        GlobalControllerConfig(
            # trust the spec's compute times so only demand moves between
            # epochs, and quantize demand so telemetry jitter below 25 rps
            # does not fabricate a numerically new TE instance each epoch
            learn_profiles=False,
            demand_quantum=25.0,
        ),
        adaptive=True)
    return scenario, policy


def test_adaptive_steady_epochs_hot_start_in_zero_iterations(
        benchmark, report_sink, bench_json, monkeypatch):
    """≥50% of steady-demand epochs re-plan an unchanged LP: a hot start
    that ends optimal after zero simplex iterations."""
    scenario, policy = steady_adaptive_scenario()
    results = []
    solve = EpochSolver.solve

    def recording_solve(self, problem):
        results.append(solve(self, problem))
        return results[-1]

    monkeypatch.setattr(EpochSolver, "solve", recording_solve)

    def run():
        results.clear()
        started = time.perf_counter()
        run_policy(scenario, policy)
        return time.perf_counter() - started

    elapsed = benchmark.pedantic(run, rounds=1, iterations=1)
    solves = len(results)
    zero = sum(1 for result in results if result.hot_start == "optimal"
               and result.certificate.simplex_iteration_count == 0)
    rate = zero / solves if solves else 0.0
    rows = [["epoch solves", solves],
            ["zero-iteration hot starts", zero],
            ["zero-iteration rate", rate],
            ["run wall-clock (s)", elapsed]]
    text = format_table(
        ["metric", "value"], rows,
        title="Steady-demand re-plans on an adaptive run "
              f"(epoch={scenario.epoch}s, duration={scenario.duration}s)")
    report_sink("steady_hot_starts", text)
    bench_json("sweep", {
        "zero_iteration_hot_starts": zero,
        "zero_iteration_rate": rate,
        "adaptive_epoch_solves": solves,
        "adaptive_solves_per_sec": solves / elapsed if elapsed else 0.0,
    })

    assert solves >= 8, "scenario too short to exercise the epoch loop"
    assert rate >= 0.5, rows
