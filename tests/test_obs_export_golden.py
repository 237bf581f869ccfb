"""Byte goldens for the decision-log and provenance exports.

``tests/golden/obs_exports.json`` freezes, per run, the exit code, the
stdout and the sha256 and size of every file written by:

* ``repro obs decisions --scenario diurnal --format jsonl``;
* ``repro obs explain default -o ... --dump ...`` (diurnal scenario);
* ``repro obs explain default --scenario chaos -o ... --dump ...``.

The decision log's ``solve_time`` and ``build_time`` are wall-clock
seconds, so their values are masked to ``"wall"`` before hashing; every
other byte, including the solver-cache hit/miss counts, must match.
Regenerate only when an export format is meant to change:
``PYTHONPATH=src:. python tests/test_obs_export_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
import re
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).parent / "golden" / "obs_exports.json"

#: run name -> (CLI argv, the files it writes)
RUNS = {
    "decisions_diurnal": (
        ["obs", "decisions", "--scenario", "diurnal", "--format", "jsonl",
         "-o", "{decisions}"], ("decisions",)),
    "explain_diurnal": (
        ["obs", "explain", "default", "-o", "{provenance}",
         "--dump", "{dump}"], ("provenance", "dump")),
    "explain_chaos": (
        ["obs", "explain", "default", "--scenario", "chaos",
         "-o", "{provenance}", "--dump", "{dump}"], ("provenance", "dump")),
}

_WALL_CLOCK = re.compile(rb'"(build_time|solve_time)": -?[0-9][0-9.e+-]*')


def _masked_digest(data: bytes) -> dict:
    data = _WALL_CLOCK.sub(rb'"\1": "wall"', data)
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def obs_cli(name: str, workdir: Path) -> dict:
    argv, outputs = RUNS[name]
    paths = {out: workdir / f"{name}_{out}.jsonl" for out in outputs}
    out = StringIO()
    with redirect_stdout(out):
        code = main([arg.format(**paths) for arg in argv])
    stdout = out.getvalue()
    for path in paths.values():
        stdout = stdout.replace(str(path), path.name)
    return {"exit": code, "stdout": stdout,
            "files": {key: _masked_digest(path.read_bytes())
                      for key, path in paths.items()}}


@pytest.fixture(scope="module")
def golden():
    with GOLDEN.open() as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_obs_export_matches_golden(name, golden, tmp_path):
    assert obs_cli(name, tmp_path) == golden[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        frozen = {name: obs_cli(name, Path(scratch)) for name in sorted(RUNS)}
    GOLDEN.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
