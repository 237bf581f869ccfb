"""Analysis: CDFs, summaries, policy comparisons, fluid-model prediction."""

from .cdf import EmpiricalCDF
from .compare import Comparison, PolicyOutcome
from .fluid import FluidPrediction, evaluate_rules
from .report import format_cdf_series, format_comparison, format_table
from .stats import (LatencySummary, mean_confidence_interval,
                    slo_attainment, summarize)

__all__ = [
    "EmpiricalCDF",
    "Comparison", "PolicyOutcome",
    "FluidPrediction", "evaluate_rules",
    "format_cdf_series", "format_comparison", "format_table",
    "LatencySummary", "mean_confidence_interval", "slo_attainment",
    "summarize",
]

from .export import (write_comparison_csv, write_latencies_csv,
                     write_spans_jsonl)

__all__ += ["write_comparison_csv", "write_latencies_csv",
            "write_spans_jsonl"]
