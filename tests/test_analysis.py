"""Tests for CDFs, summaries, comparisons, and report rendering."""

import math

import numpy as np
import pytest

from repro.analysis.cdf import EmpiricalCDF
from repro.analysis.compare import Comparison, PolicyOutcome
from repro.analysis.report import (format_cdf_series, format_comparison,
                                   format_table)
from repro.analysis.stats import (mean_confidence_interval, nearest_rank,
                                  slo_attainment, summarize)

NAN = float("nan")


class TestCDF:
    def test_basic_stats(self):
        cdf = EmpiricalCDF([1.0, 2.0, 3.0, 4.0])
        assert cdf.n == 4
        assert cdf.mean == pytest.approx(2.5)
        assert cdf.min == 1.0
        assert cdf.max == 4.0

    def test_quantiles(self):
        cdf = EmpiricalCDF(range(1, 101))
        assert cdf.quantile(0.5) == pytest.approx(50.5)
        assert cdf.percentile(99) == pytest.approx(99.01)

    def test_probability_below(self):
        cdf = EmpiricalCDF([1.0, 2.0, 3.0, 4.0])
        assert cdf.probability_below(2.5) == 0.5
        assert cdf.probability_below(0.0) == 0.0
        assert cdf.probability_below(10.0) == 1.0

    def test_series_monotone(self):
        cdf = EmpiricalCDF(np.random.default_rng(0).exponential(1.0, 500))
        series = cdf.series(points=20)
        values = [v for v, _ in series]
        probs = [p for _, p in series]
        assert values == sorted(values)
        assert probs[0] == 0.0 and probs[-1] == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalCDF([])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalCDF([1.0, float("inf")])

    def test_invalid_quantile(self):
        with pytest.raises(ValueError):
            EmpiricalCDF([1.0]).quantile(1.5)


class TestSummary:
    def test_summarize(self):
        summary = summarize([0.010] * 99 + [0.100])
        assert summary.count == 100
        assert summary.p50 == pytest.approx(0.010)
        assert summary.max == pytest.approx(0.100)
        assert summary.mean == pytest.approx(0.0109)

    def test_as_ms(self):
        summary = summarize([0.010, 0.020])
        assert summary.as_ms()["mean"] == pytest.approx(15.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_confidence_interval_contains_mean(self):
        rng = np.random.default_rng(1)
        mean, low, high = mean_confidence_interval(rng.normal(10, 2, 200))
        assert low < mean < high
        assert low == pytest.approx(10, abs=0.5)

    def test_confidence_interval_degenerate(self):
        mean, low, high = mean_confidence_interval([5.0, 5.0, 5.0])
        assert (mean, low, high) == (5.0, 5.0, 5.0)

    def test_slo_attainment(self):
        values = [0.01, 0.02, 0.05, 0.20]
        assert slo_attainment(values, 0.05) == pytest.approx(0.75)
        assert slo_attainment(values, 1.0) == 1.0
        with pytest.raises(ValueError):
            slo_attainment(values, 0.0)
        with pytest.raises(ValueError):
            slo_attainment([], 0.1)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            slo_attainment([0.01, 0.02], NAN)
        with pytest.raises(ValueError, match="NaN"):
            slo_attainment([0.01, NAN], 0.05)
        with pytest.raises(ValueError, match="NaN"):
            summarize([0.010, NAN, 0.020])
        with pytest.raises(ValueError, match="NaN"):
            mean_confidence_interval([1.0, NAN, 2.0])

    def test_nearest_rank(self):
        assert nearest_rank([3, 1, 2], 0.0) == 1
        assert nearest_rank([3, 1, 2], 0.5) == 2
        assert nearest_rank([3, 1, 2], 1.0) == 3
        assert nearest_rank([], 0.95) is None

    @pytest.mark.parametrize("q", [-0.5, -1e-9, 1.5, NAN])
    def test_nearest_rank_out_of_range_q(self, q):
        # -0.5 used to index the last sample and return the maximum
        with pytest.raises(ValueError, match="q must be in"):
            nearest_rank([3, 1, 2], q)
        with pytest.raises(ValueError, match="q must be in"):
            nearest_rank([], q)

    def test_confidence_interval_matches_scipy_stats_t(self):
        # the library computes the t quantile with scipy.special.stdtrit so
        # it need not import scipy.stats; the reference here may
        from scipy import stats
        rng = np.random.default_rng(3)
        for size in (2, 3, 5, 10, 31, 100, 200):
            sample = rng.normal(50.0, 7.0, size)
            mean = float(sample.mean())
            sem = float(sample.std(ddof=1)) / math.sqrt(size)
            for confidence in (0.5, 0.8, 0.9, 0.95, 0.99, 0.999):
                margin = float(stats.t.ppf((1 + confidence) / 2, size - 1)
                               * sem)
                assert mean_confidence_interval(sample, confidence) == (
                    mean, mean - margin, mean + margin), (size, confidence)


class TestComparison:
    def make(self):
        comparison = Comparison("scenario-x")
        comparison.add(PolicyOutcome("slate", [0.010] * 100,
                                     egress_cost=1.0))
        comparison.add(PolicyOutcome("waterfall", [0.035] * 100,
                                     egress_cost=11.6))
        return comparison

    def test_latency_ratio(self):
        assert self.make().latency_ratio("waterfall", "slate") == pytest.approx(3.5)

    def test_latency_ratio_other_stat(self):
        assert self.make().latency_ratio("waterfall", "slate",
                                         stat="p99") == pytest.approx(3.5)

    def test_egress_ratio(self):
        assert self.make().egress_cost_ratio(
            "waterfall", "slate") == pytest.approx(11.6)

    def test_duplicate_policy_rejected(self):
        comparison = self.make()
        with pytest.raises(ValueError):
            comparison.add(PolicyOutcome("slate", [1.0]))

    def test_missing_policy_keyerror(self):
        with pytest.raises(KeyError, match="no outcome"):
            self.make().outcome("nope")

    def test_zero_egress_target_rejected(self):
        comparison = Comparison("x")
        comparison.add(PolicyOutcome("a", [1.0], egress_cost=0.0))
        comparison.add(PolicyOutcome("b", [1.0], egress_cost=1.0))
        with pytest.raises(ValueError):
            comparison.egress_cost_ratio("b", "a")


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1.0], ["bb", 22.5]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")

    def test_format_cdf_series_includes_policies(self):
        cdfs = {"slate": EmpiricalCDF([0.01, 0.02]),
                "waterfall": EmpiricalCDF([0.03, 0.06])}
        text = format_cdf_series(cdfs, title="fig")
        assert "slate" in text and "waterfall" in text
        assert "p50" in text and "mean" in text

    def test_format_comparison_includes_ratios(self):
        comparison = Comparison("s")
        comparison.add(PolicyOutcome("slate", [0.010] * 10, egress_cost=1.0))
        comparison.add(PolicyOutcome("waterfall", [0.030] * 10,
                                     egress_cost=5.0))
        text = format_comparison(comparison, "waterfall", "slate")
        assert "3.00x" in text
        assert "5.00x" in text
