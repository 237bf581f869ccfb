"""Start-up cost of a run, measured in fresh interpreters.

Two cases, run alternately ``RUNS`` times each, every run a new
``python3 -c`` process:

* ``import repro, repro.cli`` — what every command pays before it does
  anything;
* ``RUN_PATHS`` — the ledger's paths at smoke size (the oracle plan, a
  1 sim-s event run, one path and one arc epoch solve), as
  ``tests/test_startup_imports.py`` defines them.

Per case it prints the wall time of the whole process (interpreter start
included), the number of modules loaded at exit and the process's peak
resident set (``ru_maxrss``): median and range over the runs. The module
count includes the two the report itself imports (``json``,
``resource``).

Run with ``make startup`` (or ``python3 benchmarks/startup.py`` from the
repository root).
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: runs per case
RUNS = 5

#: appended to each case: modules loaded and peak RSS (KiB on Linux)
_REPORT = """
import json, resource, sys
print(json.dumps([len(sys.modules),
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]))
"""


def measure(code: str) -> tuple[float, int, float]:
    """Wall seconds, modules loaded and peak RSS in MB of one fresh
    interpreter running ``code``."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code + _REPORT], env=env,
                          capture_output=True, text=True, timeout=300)
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        raise SystemExit(proc.stderr)
    modules, maxrss_kib = json.loads(proc.stdout.strip().splitlines()[-1])
    return wall, modules, maxrss_kib / 1024.0


def _summary(values: list[float], fmt: str) -> str:
    return (f"{format(statistics.median(values), fmt)} "
            f"[{format(min(values), fmt)}-{format(max(values), fmt)}]")


def main() -> None:
    sys.path.insert(0, str(REPO))
    from tests.test_startup_imports import RUN_PATHS

    cases = {"import repro, repro.cli": "import repro, repro.cli",
             "RUN_PATHS": RUN_PATHS}
    samples: dict[str, list[tuple[float, int, float]]] = {
        name: [] for name in cases}
    for _ in range(RUNS):
        for name, code in cases.items():
            samples[name].append(measure(code))
    print(f"{RUNS} alternating runs per case, median [min-max]")
    print(f"{'case':<24} {'wall s':<20} {'modules':<16} peak RSS MB")
    for name, runs in samples.items():
        walls, modules, rss = zip(*runs)
        print(f"{name:<24} {_summary(walls, '.3f'):<20} "
              f"{_summary(modules, 'd'):<16} {_summary(rss, '.1f')}")


if __name__ == "__main__":
    main()
