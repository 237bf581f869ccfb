"""Devtools wall-time: the one static check over the real tree.

The check runs in `make check` on every CI build, so its cost is part of
the edit-test loop budget. The headline key in ``BENCH_devtools.json`` is
``check_seconds``: wall-clock seconds for one parse of ``src`` plus its
``tests``/``examples``/``benchmarks`` consumers, the D-rules over every
file, the A-passes over the package, and the suppression audit —
tracked across PRs with a wide diff band, since check time grows with
the tree.

The flow passes run fixpoints over ~1,100 functions, so the check is
benchmarked with a single round to keep the smoke subset under budget.
"""

from pathlib import Path

from repro.devtools import load_project, run_check

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")


def _check_tree():
    return run_check(load_project([SRC]))


def test_check_wall_time(benchmark, bench_json):
    """The `make lint` static check over src and its consumers."""
    result = benchmark.pedantic(_check_tree, rounds=1, iterations=1)
    assert not result.failed               # the tree checks clean
    assert result.stats["modules"] > 50    # really analyzed the tree
    if benchmark.stats is not None:
        bench_json("devtools", {
            "check_seconds": benchmark.stats.stats.mean,
            "check_modules": result.stats["modules"],
            "check_functions": result.stats["functions"],
        })
