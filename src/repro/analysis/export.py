"""Result export: latencies, spans, and comparisons to CSV / JSONL.

Simulation results stay inside Python objects by default; these writers
produce plain-text artifacts for external plotting or archival — the file
formats a downstream user would feed to pandas/gnuplot/R.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from ..mesh.telemetry import RunTelemetry
from ..sim.request import Span, span_to_dict
from .compare import Comparison

__all__ = ["write_latencies_csv", "write_spans_jsonl",
           "write_comparison_csv"]


def write_latencies_csv(telemetry: RunTelemetry, path: str | Path,
                        after: float = 0.0) -> int:
    """One row per completed request; returns the row count.

    Columns: request_id, traffic_class, ingress_cluster, arrival_time,
    latency (seconds).
    """
    rows = 0
    # exporter module: CSV artifacts are its declared purpose (D08)
    with open(path, "w", newline="",   # lint: ignore[D08]
              encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["request_id", "traffic_class", "ingress_cluster",
                         "arrival_time", "latency"])
        for request in telemetry.requests:
            if not request.done or request.arrival_time < after:
                continue
            writer.writerow([request.request_id, request.traffic_class,
                             request.ingress_cluster,
                             f"{request.arrival_time:.6f}",
                             f"{request.latency:.6f}"])
            rows += 1
    return rows


def write_spans_jsonl(spans: list[Span], path: str | Path) -> int:
    """One JSON object per span (a minimal OTLP-ish trace dump)."""
    count = 0
    # exporter module: JSONL artifacts are its declared purpose (D08)
    with open(path, "w", encoding="utf-8") as handle:   # lint: ignore[D08]
        for span in spans:
            handle.write(json.dumps(span_to_dict(span)) + "\n")
            count += 1
    return count


def write_comparison_csv(comparison: Comparison, path: str | Path) -> int:
    """Per-policy summary rows for one scenario."""
    # exporter module: CSV artifacts are its declared purpose (D08)
    with open(path, "w", newline="",   # lint: ignore[D08]
              encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["scenario", "policy", "requests", "mean", "p50",
                         "p90", "p99", "egress_bytes", "egress_cost"])
        count = 0
        for name in sorted(comparison.outcomes):
            outcome = comparison.outcomes[name]
            summary = outcome.summary()
            writer.writerow([
                comparison.scenario, name, summary.count,
                f"{summary.mean:.6f}", f"{summary.p50:.6f}",
                f"{summary.p90:.6f}", f"{summary.p99:.6f}",
                outcome.egress_bytes, f"{outcome.egress_cost:.8f}",
            ])
            count += 1
    return count
