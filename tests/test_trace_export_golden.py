"""Byte goldens for the trace and export surfaces.

``tests/golden/trace_exports.json`` freezes, as produced before the
tracer became a read-only view over the run's telemetry:

* the stdout of ``repro obs trace --figure fig6a --duration 2`` in each
  ``--format`` (``summary``, ``jsonl``, ``chrome``), and the sha256 and
  size of the file the two file formats write;
* the sha256 and size of ``write_spans_jsonl`` and
  ``write_latencies_csv`` over the ``hedging_with_failing_branches``
  event-path scenario, whose spans include hedged and orphaned work.

A match is byte-for-byte. Regenerate only when an export format is meant
to change: ``PYTHONPATH=src:. python tests/test_trace_export_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from repro.analysis.export import write_latencies_csv, write_spans_jsonl
from repro.cli import main
from tests.test_event_path_golden import hedging_with_failing_branches

GOLDEN = Path(__file__).parent / "golden" / "trace_exports.json"

#: the file each ``--format`` writes by default (None: stdout only)
TRACE_FILES = {"summary": None, "jsonl": "fig6a_trace.jsonl",
               "chrome": "fig6a_trace_chrome.json"}


def _file_digest(path: Path) -> dict:
    data = path.read_bytes()
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def trace_cli(fmt: str, workdir: Path) -> dict:
    """Run the CLI in ``workdir`` so its default output names stay fixed."""
    out = StringIO()
    previous = Path.cwd()
    os.chdir(workdir)
    try:
        with redirect_stdout(out):
            code = main(["obs", "trace", "--figure", "fig6a",
                         "--duration", "2", "--format", fmt])
    finally:
        os.chdir(previous)
    frozen = {"exit": code, "stdout": out.getvalue()}
    if TRACE_FILES[fmt] is not None:
        frozen["file"] = _file_digest(workdir / TRACE_FILES[fmt])
    return frozen


def hedging_exports(workdir: Path) -> dict:
    sim = hedging_with_failing_branches()
    spans_path = workdir / "spans.jsonl"
    csv_path = workdir / "latencies.csv"
    return {"spans_rows": write_spans_jsonl(sim.telemetry.spans, spans_path),
            "spans_jsonl": _file_digest(spans_path),
            "latency_rows": write_latencies_csv(sim.telemetry, csv_path),
            "latencies_csv": _file_digest(csv_path)}


@pytest.fixture(scope="module")
def golden():
    with GOLDEN.open() as fh:
        return json.load(fh)


@pytest.mark.parametrize("fmt", sorted(TRACE_FILES))
def test_obs_trace_matches_golden(fmt, golden, tmp_path):
    assert trace_cli(fmt, tmp_path) == golden["obs_trace"][fmt]


def test_hedging_exports_match_golden(golden, tmp_path):
    assert hedging_exports(tmp_path) == golden["hedging_exports"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        frozen = {"obs_trace": {}, "hedging_exports": hedging_exports(root)}
        for fmt in sorted(TRACE_FILES):
            workdir = root / fmt
            workdir.mkdir()
            frozen["obs_trace"][fmt] = trace_cli(fmt, workdir)
    GOLDEN.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
