"""One workload in this process: set up, measure, check, print one result.

The contract face (``BENCHMARK.json``): the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` — every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``. ``--report FILE`` additionally writes everything measured
(per-round walls, workload-level readings, digests, failed checks), which
is what ``python -m benchmarks.e2e run`` prints and ``compare`` reads.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from repro.obs.timeseries import percentile

from .spec import END_TO_END, PER_LAYER, WORKLOADS
from .trace import Tracer
from .workloads import WORKLOAD_TYPES, Round

__all__ = ["main", "measure"]

_clock = time.perf_counter
OUT_DIR = Path(__file__).resolve().parent / "out"


def _median(values) -> float:
    return float(statistics.median(values))


def _check_digests(rounds: list[Round], problems: list[str]) -> None:
    digests = {r.digest for r in rounds}
    if len(digests) > 1:
        problems.append(
            f"sim_digest differs across {len(rounds)} rounds of one seed: "
            f"{sorted(d[:12] for d in digests)}")


#: the run length at which a workload runs its declared ``rounds``
NOMINAL_SECONDS = 18.0


def _timed_rounds(workload, seconds: float) -> list[Round]:
    """``--seconds`` as a round count: each workload declares how many
    rounds fill :data:`NOMINAL_SECONDS` on the reference host, so every run
    at one ``--seconds`` does the same work and takes its medians over the
    same number of rounds."""
    count = max(1, round(workload.rounds * seconds / NOMINAL_SECONDS))
    # the cold re-solve checks are seeded, so one round's worth is all
    # there is to learn; later rounds skip them
    return [workload.round(verify=index == 0) for index in range(count)]


def measure(name: str, seed: int, seconds: float, trace: bool,
            scale: str = "full", process_start: float | None = None) -> dict:
    """Run one workload; return the full report (see module docstring)."""
    workload = WORKLOAD_TYPES[name](seed, scale)
    before_setup = _clock()
    import_s = before_setup - (process_start or before_setup)
    setups: list[float] = []
    cold_plans: list[float] = []
    # a traced run reports no setup_s, so it sets up once
    for _ in range(1 if trace else workload.setup_repeats):
        started = _clock()
        workload.setup()
        setups.append(_clock() - started)
        cold_plans.append(workload.cold_plan_s)

    problems: list[str] = []
    layers: dict[str, float] = {}
    trace_file = None
    if trace:
        plain = workload.round()
        tracer = Tracer()
        with tracer.installed():
            traced = workload.round(verify=False)
        rounds = [plain, traced]
        layers = _layer_metrics(plain, traced, tracer)
        trace_file = _write_trace(name, seed, scale, tracer, layers)
        measured = [plain]
    else:
        rounds = measured = _timed_rounds(workload, seconds)
    _check_digests(rounds, problems)
    for index, rnd in enumerate(rounds):
        problems.extend(f"round {index}: {p}" for p in rnd.problems)
    cold_plans.extend(r.cold_plan_s for r in measured)

    attempted = sum(r.attempted for r in measured) + len(rounds)
    failed = sum(r.failed for r in measured) + len(problems)
    end_to_end = {
        "setup_s": import_s + _median(setups),
        "wall_s": _median(r.wall_s for r in measured),
        "latency_mean_ms": _median(r.latency_mean_ms for r in measured),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    readings = {key: _median(r.readings[key] for r in measured)
                for key in measured[0].readings}
    readings["cold_plan_s"] = _median(cold_plans)
    readings["failed_frac"] = failed / attempted
    if "sim_requests" in readings:
        readings["sim_req_per_s"] = (readings["sim_requests"]
                                     / end_to_end["wall_s"])
    epoch_ms = [ms for r in measured for ms in r.epoch_ms]
    if epoch_ms:
        # percentiles over the pooled steady epochs, not a median of
        # per-round percentiles: p90 needs every sample it can get
        readings["plan_ms_p50"] = percentile(epoch_ms, 0.5)
        readings["plan_ms_p90"] = percentile(epoch_ms, 0.9)
        readings["plan_samples"] = len(epoch_ms)
    if trace:
        for metric in PER_LAYER:
            layers.setdefault(metric.name, readings.get(metric.name, 0.0))
    return {
        "workload": name, "seed": seed, "scale": scale, "traced": trace,
        "correct": not problems, "attempted": attempted, "failed": failed,
        "problems": problems,
        "sim_digest": rounds[0].digest,
        "rounds": len(measured),
        "round_wall_s": [r.wall_s for r in measured],
        "setup_rounds_s": setups, "import_s": import_s,
        "cold_plans_s": cold_plans,
        "end_to_end": end_to_end, "readings": readings,
        "per_layer": layers, "trace_file": trace_file,
    }


def _layer_metrics(plain: Round, traced: Round, tracer: Tracer) -> dict:
    layers = tracer.layer_metrics(traced.wall_s)
    requests = layers.get("mesh.gateway.accept_calls", 0)
    layers["sim.engine.events_per_req"] = (
        layers["sim.engine.events"] / requests if requests else 0.0)
    epochs = layers.get("core.controller.epochs", 0)
    steady = max(1, epochs - 1)
    layers["core.optimizer.reuse_ratio"] = (
        (layers.get("core.optimizer.warm_solves", 0)
         + layers.get("core.optimizer.replays", 0)) / steady
        if epochs else 0.0)
    layers["bench.trace_overhead_frac"] = (
        (traced.wall_s - plain.wall_s) / plain.wall_s)
    return layers


def _write_trace(name: str, seed: int, scale: str, tracer: Tracer,
                 layers: dict) -> str:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{name}.json"
    path.write_text(json.dumps({
        "workload": name, "seed": seed, "scale": scale,
        "layers": layers, "aggregates": tracer.aggregates(),
        "spans": tracer.spans}, indent=1), encoding="utf-8")
    return str(path)


def _contract_line(report: dict) -> str:
    if report["traced"]:
        values = {m.name: (report["per_layer"][m.name], m.unit)
                  for m in PER_LAYER}
    else:
        values = {m.name: (report["end_to_end"][m.name], m.unit)
                  for m in END_TO_END}
    return json.dumps({
        "correct": report["correct"], "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()}})


def main(argv: list[str] | None = None,
         process_start: float | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py", description="run one workload of the e2e ledger")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS,
                        help="run length; sets the number of timed rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--report", help="also write the full report here")
    args = parser.parse_args(argv)

    report = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.scale, process_start)
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=1),
                                     encoding="utf-8")
    for problem in report["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(_contract_line(report))
    return 0 if report["correct"] else 1
