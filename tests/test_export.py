"""Tests for trace assembly and result export."""

import csv
import json

import pytest

from repro.analysis.compare import Comparison, PolicyOutcome
from repro.analysis.export import (write_comparison_csv, write_latencies_csv,
                                   write_spans_jsonl)
from repro.obs import ObservabilityConfig
from repro.sim import (DemandMatrix, DeploymentSpec, linear_chain_app,
                       two_region_latency)
from repro.sim.runner import MeshSimulation


@pytest.fixture(scope="module")
def small_run():
    app = linear_chain_app(n_services=2, exec_time=0.005)
    deployment = DeploymentSpec.uniform(
        app.services(), ["west", "east"], replicas=5,
        latency=two_region_latency(25.0))
    sim = MeshSimulation(app, deployment, seed=12,
                         observability=ObservabilityConfig(tracing=True))
    sim.run(DemandMatrix({("default", "west"): 100.0}), duration=5.0)
    return sim


class TestTraces:
    def test_traces_assembled_per_request(self, small_run):
        traces = small_run.observability.tracer.traces()
        assert len(traces) == len(small_run.telemetry.requests)
        sample = next(iter(traces.values()))
        # 2-service chain: two spans per request
        assert len(sample.spans) == 2
        assert {s.service for s in sample.spans} == {"S1", "S2"}

    def test_trace_ids_match_requests(self, small_run):
        traces = small_run.observability.tracer.traces()
        request_ids = {r.request_id for r in small_run.telemetry.requests}
        assert set(traces) == request_ids


class TestLatencyCSV:
    def test_round_trip(self, small_run, tmp_path):
        path = tmp_path / "latencies.csv"
        rows = write_latencies_csv(small_run.telemetry, path)
        assert rows == len(small_run.telemetry.requests)
        with open(path) as handle:
            records = list(csv.DictReader(handle))
        assert len(records) == rows
        assert all(float(r["latency"]) > 0 for r in records)
        assert records[0]["traffic_class"] == "default"

    def test_warmup_filter(self, small_run, tmp_path):
        path = tmp_path / "filtered.csv"
        rows = write_latencies_csv(small_run.telemetry, path, after=2.5)
        assert 0 < rows < len(small_run.telemetry.requests)


class TestSpanJSONL:
    def test_one_object_per_span(self, small_run, tmp_path):
        path = tmp_path / "spans.jsonl"
        count = write_spans_jsonl(small_run.telemetry.spans, path)
        lines = path.read_text().splitlines()
        assert len(lines) == count == len(small_run.telemetry.spans)
        record = json.loads(lines[0])
        assert {"request_id", "service", "cluster", "exec_time",
                "request_bytes"} <= set(record)


class TestComparisonCSV:
    def test_rows_per_policy(self, tmp_path):
        comparison = Comparison("scenario-x")
        comparison.add(PolicyOutcome("slate", [0.01, 0.02],
                                     egress_bytes=100, egress_cost=0.5))
        comparison.add(PolicyOutcome("waterfall", [0.03, 0.06],
                                     egress_bytes=200, egress_cost=1.5))
        path = tmp_path / "comparison.csv"
        assert write_comparison_csv(comparison, path) == 2
        with open(path) as handle:
            records = list(csv.DictReader(handle))
        by_policy = {r["policy"]: r for r in records}
        assert float(by_policy["slate"]["mean"]) == pytest.approx(0.015)
        assert by_policy["waterfall"]["egress_bytes"] == "200"
