"""``python -m benchmarks.e2e run|compare|selfcheck`` — the human face.

``run`` executes the workloads one after another, each in its own fresh
child process (never two at once: the host has two cores and the load is
single-threaded), prints every metric by name with its unit, and writes a
ledger file. ``compare`` judges ledger B against ledger A with the bounds in
:mod:`.spec`; ``selfcheck`` runs the suite twice on one tree, requires the
two to agree, and records the spread it saw as the noise floor ``compare``
refuses to resolve below.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from .spec import END_TO_END, PER_LAYER, WORKLOADS, Metric

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
BASELINE = HERE / "baseline.json"


def host_facts() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


# ------------------------------------------------------------------- run

def _child(workload: str, seed: int, seconds: float, trace: bool,
           scale: str) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    report = OUT_DIR / f"report-{workload}-{'traced' if trace else 'e2e'}.json"
    command = [sys.executable, str(HERE / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace)),
               "--scale", scale, "--report", str(report)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, check=False)
    if not report.exists():
        raise SystemExit(f"{workload}: child exited {done.returncode} "
                         f"without a report")
    return json.loads(report.read_text(encoding="utf-8"))


def run_suite(workloads: list[str], seed: int, seconds: float, traced: bool,
              scale: str) -> dict:
    """Run the workloads in order; return the ledger."""
    ledger = {"host": host_facts(), "seed": seed, "scale": scale,
              "seconds": seconds, "workloads": {}}
    for name in workloads:
        report = _child(name, seed, seconds, False, scale)
        entry = {key: report[key] for key in (
            "correct", "attempted", "failed", "problems", "sim_digest",
            "rounds", "round_wall_s", "end_to_end", "readings")}
        _print_report(name, report)
        if traced:
            traced_report = _child(name, seed, seconds, True, scale)
            entry["per_layer"] = traced_report["per_layer"]
            entry["correct"] = entry["correct"] and traced_report["correct"]
            entry["problems"] += traced_report["problems"]
            _print_layers(traced_report)
        ledger["workloads"][name] = entry
    return ledger


def _print_report(name: str, report: dict) -> None:
    verdict = "ok" if report["correct"] else "CHECKS FAILED"
    print(f"\n== {name}: {verdict}  ({report['rounds']} rounds, "
          f"{report['failed']}/{report['attempted']} operations failed, "
          f"sim_digest {report['sim_digest'][:16]})")
    units = {m.name: m.unit for m in END_TO_END + PER_LAYER}
    for key, value in report["end_to_end"].items():
        print(f"  {key:<28} {value:>16.6g} {units[key]}")
    for key, value in sorted(report["readings"].items()):
        print(f"  {key:<28} {value:>16.6g} {units.get(key, 'count')}")
    for problem in report["problems"]:
        print(f"  CHECK FAILED: {problem}")


def _print_layers(report: dict) -> None:
    print(f"  -- per layer (traced round; spans in {report['trace_file']})")
    for metric in PER_LAYER:
        value = report["per_layer"][metric.name]
        if value and "." in metric.name:
            print(f"  {metric.name:<38} {value:>14.6g} {metric.unit}")


# --------------------------------------------------------------- compare

def _judge(metric: Metric, base: float, new: float, noise: float) -> str:
    """One row's verdict; ratios are always against ``base``."""
    if metric.exact:
        return "ok" if new == base else "EXACT-MISMATCH"
    if metric.bound is None or not base:
        return "-"
    worse = (new - base) / base
    if metric.better == "higher":
        worse = -worse
    if abs(worse) <= noise:
        return "unresolved"
    if worse > metric.bound:
        return "REGRESSION"
    return "ok" if worse > 0 else "improved"


def compare(base: dict, new: dict, noise: dict | None = None) -> list[tuple]:
    """Rows (workload, metric, base, new, verdict) for every shared metric."""
    noise = noise if noise is not None else base.get("noise", {})
    rows = []
    for name in WORKLOADS:
        a = base["workloads"].get(name)
        b = new["workloads"].get(name)
        if a is None or b is None:
            continue
        floor = noise.get(name, {})
        if a["sim_digest"] != b["sim_digest"]:
            rows.append((name, "sim_digest", a["sim_digest"][:12],
                         b["sim_digest"][:12], "EXACT-MISMATCH"))
        for metric in END_TO_END:
            rows.append((name, metric.name, a["end_to_end"][metric.name],
                         b["end_to_end"][metric.name],
                         _judge(metric, a["end_to_end"][metric.name],
                                b["end_to_end"][metric.name],
                                floor.get(metric.name, 0.0))))
        for metric in PER_LAYER:
            for section in ("readings", "per_layer"):
                old = a.get(section, {}).get(metric.name)
                cur = b.get(section, {}).get(metric.name)
                if old is None or cur is None:
                    continue
                rows.append((name, metric.name, old, cur, _judge(
                    metric, old, cur, floor.get(metric.name, 0.0))))
                break
    return rows


def _print_rows(rows: list[tuple]) -> bool:
    print(f"{'workload':<16} {'metric':<36} {'base':>14} {'new':>14} "
          f"{'delta (of base)':>20}  verdict")
    bad = False
    for name, metric, base, new, verdict in rows:
        if isinstance(base, str):
            delta = ""
        elif base:
            delta = f"{100 * (new - base) / base:+.2f}% of {base:.6g}"
        else:
            delta = f"{new - base:+.6g}"
        if verdict in ("REGRESSION", "EXACT-MISMATCH"):
            bad = True
        if verdict != "-":
            base_text = base if isinstance(base, str) else f"{base:.6g}"
            new_text = new if isinstance(new, str) else f"{new:.6g}"
            print(f"{name:<16} {metric:<36} {base_text:>14} {new_text:>14} "
                  f"{delta:>20}  {verdict}")
    return not bad


# ------------------------------------------------------------- selfcheck

def selfcheck(workloads: list[str], seed: int, seconds: float,
              scale: str) -> tuple[dict, bool]:
    """Two suite runs of one tree must agree; their spread is the noise."""
    first = run_suite(workloads, seed, seconds, True, scale)
    second = run_suite(workloads, seed, seconds, True, scale)
    noise: dict[str, dict[str, float]] = {}
    for name in workloads:
        a, b = first["workloads"][name], second["workloads"][name]
        spread = noise.setdefault(name, {})
        for metric in END_TO_END + PER_LAYER:
            if metric.bound is None:
                continue
            section = ("end_to_end" if metric.name in a["end_to_end"]
                       else "readings")
            old = a[section].get(metric.name)
            cur = b[section].get(metric.name)
            if old and cur:
                spread[metric.name] = abs(cur - old) / min(old, cur)
    print("\n== selfcheck: second run against first (no noise floor)")
    agreed = _print_rows(compare(first, second, noise={}))
    # agreement is symmetric: the first run must not be worse either
    agreed = agreed and not any(
        row[-1] in ("REGRESSION", "EXACT-MISMATCH")
        for row in compare(second, first, noise={}))
    first["noise"] = noise
    return first, agreed


# ------------------------------------------------------------------ main

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    commands = parser.add_subparsers(dest="command", required=True)
    for command in ("run", "selfcheck"):
        sub = commands.add_parser(command)
        sub.add_argument("--seed", type=int, default=1)
        sub.add_argument("--workload", action="append",
                         choices=list(WORKLOADS))
        sub.add_argument("--seconds", type=float, default=_run_seconds())
        sub.add_argument("--scale", choices=("full", "smoke"),
                         default="full")
        sub.add_argument("--out", type=Path)
        if command == "run":
            sub.add_argument("--traced", action="store_true")
    sub = commands.add_parser("compare")
    sub.add_argument("base", type=Path)
    sub.add_argument("new", type=Path)
    args = parser.parse_args(argv)

    if args.command == "compare":
        ok = _print_rows(compare(
            json.loads(args.base.read_text(encoding="utf-8")),
            json.loads(args.new.read_text(encoding="utf-8"))))
        return 0 if ok else 1

    workloads = args.workload or list(WORKLOADS)
    if args.command == "run":
        ledger = run_suite(workloads, args.seed, args.seconds, args.traced,
                           args.scale)
        ok = all(w["correct"] for w in ledger["workloads"].values())
        out = args.out or OUT_DIR / "run.json"
    else:
        ledger, ok = selfcheck(workloads, args.seed, args.seconds,
                               args.scale)
        ok = ok and all(w["correct"] for w in ledger["workloads"].values())
        out = args.out or BASELINE
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(f"\nledger written to {out}")
    return 0 if ok else 1


def _run_seconds() -> float:
    """The contract's run length, so both faces measure the same amount."""
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(
        encoding="utf-8"))
    return float(contract["run_seconds"])
