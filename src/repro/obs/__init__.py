"""Observability for the reproduction itself (tracing, metrics, decisions).

SLATE's premise (§3.1) is that the service layer can observe what the
network layer cannot; this package applies the same idea to the simulator:

* :mod:`repro.obs.tracing` — per-request distributed traces stitched from
  the spans the mesh already emits, exported to JSONL or Chrome
  ``trace_event`` (Perfetto) format;
* :mod:`repro.obs.analyzer` — critical-path extraction and per-hop
  queue/exec/WAN latency breakdowns over those traces;
* :mod:`repro.obs.metrics` — a labeled counter/gauge/histogram registry
  with JSON and prometheus-style exports, filled by :mod:`repro.obs.collect`;
* :mod:`repro.obs.timeseries` — a sim-time scrape loop sampling the mesh
  every ``scrape_interval`` virtual seconds into ring-buffered series;
* :mod:`repro.obs.slo` / :mod:`repro.obs.alerts` — declarative SLO rules
  with multi-window burn-rate alerting over the scraped series;
* :mod:`repro.obs.forecast` / :mod:`repro.obs.anomaly` — the predictive
  pillar: online forecast models (EWMA / Holt / Holt–Winters, backtested
  with MASE/sMAPE) recorded back as ``forecast_<name>`` series, residual
  z-score + CUSUM anomaly detection into an :class:`AnomalyLog`, and
  projected ``PredictedBreach`` alerts scored against the real alert log;
* :mod:`repro.obs.decisions` — an append-only log of every Global
  Controller epoch (demand delta, reuse-ladder rung, routing diff);
* :mod:`repro.obs.provenance` — per-epoch causal chains (telemetry digest
  → solver reuse-ladder rung → rule delta → observed data-plane shift)
  in a bounded flight-recorder ring with anomaly-triggered dumps and the
  ``repro obs explain`` narrative;
* :mod:`repro.obs.reading` — each control epoch read once for the
  decision log and provenance, and the one rule diff they and the scrape
  loop share;
* :mod:`repro.obs.diff` — a run-diff regression engine comparing two runs'
  exported artifacts under tolerance bands (``repro obs diff A B``);
* :mod:`repro.obs.profiler` — wall-clock profiling of the control plane
  (the one deliberate wall-clock consumer; simulated code never is).

Everything is off by default: construct an :class:`ObservabilityConfig`
and pass it to ``MeshSimulation``/``run_policy`` to opt in. See
``docs/observability.md``.
"""

from .alerts import Alert, AlertLog, join_alerts_decisions
from .analyzer import (HopBreakdown, critical_path, hop_breakdown,
                       trace_summary)
from .anomaly import (DEFAULT_ANOMALY_TARGETS, AnomalyEngine, AnomalyEvent,
                      AnomalyLog)
from .config import Observability, ObservabilityConfig
from .decisions import DecisionLog, EpochDecision
from .diff import (DiffConfig, DiffReport, SeriesDelta, diff_files,
                   diff_runs, flatten_artifact, load_artifact)
from .export import (load_trace_jsonl, write_alerts_jsonl,
                     write_anomalies_jsonl, write_chrome_trace,
                     write_decisions_jsonl, write_flight_dump,
                     write_metrics_json, write_metrics_prometheus,
                     write_provenance_jsonl, write_timeseries_json,
                     write_trace_jsonl)
from .forecast import (DEFAULT_FORECAST_TARGETS, FORECAST_MODELS,
                       BreachPredictor, ForecastEngine, PredictedBreach,
                       PredictionScore, make_model, score_predictions)
from .metrics import (Counter, DEFAULT_LATENCY_BUCKETS,
                      DEFAULT_MAX_LABEL_SETS, Gauge, Histogram,
                      MetricsRegistry)
from .profiler import ControlPlaneProfiler
from .provenance import (DEFAULT_FLIGHT_RING, EpochEffect, FlightRecorder,
                         ProvenanceLog, ProvenanceRecord, telemetry_digest)
from .slo import SloEngine, SloRule, default_latency_slo
from .timeseries import (DEFAULT_MAX_POINTS, ScrapeLoop, TimeSeries,
                         TimeSeriesStore, percentile)
from .tracing import TraceNode, Tracer, build_trace_tree, chrome_trace

__all__ = [
    "Alert",
    "AlertLog",
    "AnomalyEngine",
    "AnomalyEvent",
    "AnomalyLog",
    "BreachPredictor",
    "ControlPlaneProfiler",
    "Counter",
    "DEFAULT_ANOMALY_TARGETS",
    "DEFAULT_FLIGHT_RING",
    "DEFAULT_FORECAST_TARGETS",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_MAX_LABEL_SETS",
    "DEFAULT_MAX_POINTS",
    "DecisionLog",
    "DiffConfig",
    "DiffReport",
    "EpochDecision",
    "EpochEffect",
    "FORECAST_MODELS",
    "FlightRecorder",
    "ForecastEngine",
    "Gauge",
    "Histogram",
    "HopBreakdown",
    "MetricsRegistry",
    "Observability",
    "ObservabilityConfig",
    "PredictedBreach",
    "PredictionScore",
    "ProvenanceLog",
    "ProvenanceRecord",
    "ScrapeLoop",
    "SeriesDelta",
    "SloEngine",
    "SloRule",
    "TimeSeries",
    "TimeSeriesStore",
    "TraceNode",
    "Tracer",
    "build_trace_tree",
    "chrome_trace",
    "critical_path",
    "default_latency_slo",
    "diff_files",
    "diff_runs",
    "flatten_artifact",
    "hop_breakdown",
    "join_alerts_decisions",
    "load_artifact",
    "load_trace_jsonl",
    "make_model",
    "percentile",
    "score_predictions",
    "telemetry_digest",
    "trace_summary",
    "write_alerts_jsonl",
    "write_anomalies_jsonl",
    "write_chrome_trace",
    "write_decisions_jsonl",
    "write_flight_dump",
    "write_metrics_json",
    "write_metrics_prometheus",
    "write_provenance_jsonl",
    "write_timeseries_json",
    "write_trace_jsonl",
]
