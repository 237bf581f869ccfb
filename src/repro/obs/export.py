"""File exporters for the observability layer.

This is the sanctioned IO boundary of ``repro.obs``: the tracer, metrics
registry, and decision log build everything in memory; only these functions
touch the filesystem, all through :func:`_write`. Lint rule D08 (no
print/file-writes in library code) is suppressed on its one ``open`` —
writing artifact files is this module's entire job, and every writer takes
an explicit caller-chosen path.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from pathlib import Path

from .alerts import AlertLog
from .anomaly import AnomalyLog
from .decisions import DecisionLog
from .metrics import MetricsRegistry
from .provenance import ProvenanceLog
from .timeseries import TimeSeriesStore
from .tracing import Tracer, chrome_trace

__all__ = ["load_trace_jsonl", "write_alerts_jsonl", "write_anomalies_jsonl",
           "write_chrome_trace", "write_decisions_jsonl",
           "write_flight_dump", "write_metrics_json",
           "write_metrics_prometheus", "write_provenance_jsonl",
           "write_timeseries_json", "write_trace_jsonl"]


def _write(path: str | Path, chunks: Iterable[str]) -> None:
    # exporter module: artifact writes are its declared purpose
    with open(path, "w", encoding="utf-8") as handle:   # lint: ignore[D08]
        handle.writelines(chunks)


def _write_lines(path: str | Path, lines: list[str]) -> int:
    """``lines`` one per line, streamed; returns how many."""
    _write(path, (line + "\n" for line in lines))
    return len(lines)


def write_trace_jsonl(tracer: Tracer, path: str | Path) -> int:
    """One span per line; round-trips via :func:`load_trace_jsonl`."""
    return _write_lines(path, tracer.to_jsonl_lines())


def load_trace_jsonl(path: str | Path) -> Tracer:
    """Rebuild a :class:`Tracer` from a :func:`write_trace_jsonl` file."""
    with open(path, "r", encoding="utf-8") as handle:
        return Tracer.from_jsonl_lines(handle)


def write_chrome_trace(tracer: Tracer, path: str | Path,
                       max_requests: int | None = None) -> int:
    """Chrome ``trace_event`` JSON (Perfetto-loadable); returns event count."""
    document = chrome_trace(tracer, max_requests=max_requests)
    _write(path, (json.dumps(document),))
    return len(document["traceEvents"])


def write_metrics_json(registry: MetricsRegistry, path: str | Path) -> int:
    """Full registry snapshot as JSON; returns the metric count."""
    snapshot = registry.snapshot()
    _write(path, (json.dumps(snapshot, indent=2, sort_keys=True), "\n"))
    return len(snapshot)


def write_metrics_prometheus(registry: MetricsRegistry,
                             path: str | Path) -> int:
    """Prometheus text exposition dump; returns the line count."""
    text = registry.to_prometheus()
    _write(path, (text,))
    return text.count("\n")


def write_timeseries_json(store: TimeSeriesStore, path: str | Path) -> int:
    """Full time-series snapshot as JSON; returns the series count.

    Round-trips via :meth:`TimeSeriesStore.from_snapshot` and feeds the
    run-diff engine (:mod:`repro.obs.diff`).
    """
    snapshot = store.snapshot()
    _write(path, (json.dumps(snapshot, indent=2, sort_keys=True), "\n"))
    return len(snapshot["series"])


def write_alerts_jsonl(log: AlertLog, path: str | Path) -> int:
    """One alert per line; returns the alert count."""
    return _write_lines(path, log.to_jsonl_lines())


def write_anomalies_jsonl(log: AnomalyLog, path: str | Path) -> int:
    """One anomaly event per line; returns the event count."""
    return _write_lines(path, log.to_jsonl_lines())


def write_decisions_jsonl(log: DecisionLog, path: str | Path) -> int:
    """One decision per line; returns the decision count."""
    return _write_lines(path, log.to_jsonl_lines())


def write_provenance_jsonl(log: ProvenanceLog, path: str | Path) -> int:
    """One provenance record per line; returns the record count."""
    return _write_lines(path, log.to_jsonl_lines())


def write_flight_dump(log: ProvenanceLog, path: str | Path) -> int:
    """Anomaly-triggered flight-recorder snapshots, one JSON per line.

    Every snapshot carries the run's scenario + seed (``run``) so the
    simulation that produced it can be re-run deterministically, the
    frozen provenance ring (``records``), and the surrounding time-series
    window (``timeseries``). Returns the snapshot count.
    """
    lines = [json.dumps(snapshot, sort_keys=True)
             for snapshot in log.snapshots]
    return _write_lines(path, lines)
