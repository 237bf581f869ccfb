"""Run-diff regression engine: flattening, tolerance bands, CLI gating."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.experiments.harness import run_policy
from repro.experiments.scenarios import fig6a_how_much
from repro.obs import (DiffConfig, Observability, ObservabilityConfig,
                       diff_files, diff_runs, flatten_artifact, load_artifact,
                       write_timeseries_json)


# -------------------------------------------------------------- config

def test_direction_rules():
    config = DiffConfig()
    assert config.direction_for("events_per_sec_off") == "higher"
    assert config.direction_for("request_latency_p99:mean") == "lower"
    assert config.direction_for("wan_egress_cost_dollars_total:last") == "lower"
    assert config.direction_for("routing_rules:last") == "both"


def test_tolerance_overrides_and_ignores():
    config = DiffConfig(rel_tolerance=0.05,
                        key_tolerances=(("events_per_sec*", 0.25),))
    assert config.tolerance_for("events_per_sec_off") == 0.25
    assert config.tolerance_for("anything_else") == 0.05
    assert config.ignores("schema_version")
    assert config.ignores("sweep_wall_time_seconds")
    assert not config.ignores("request_latency_p50:last")


# ---------------------------------------------------------- comparison

def test_higher_is_better_drop_is_regression():
    report = diff_runs({"events_per_sec_x": 100.0},
                       {"events_per_sec_x": 80.0})
    assert report.has_regressions
    delta = report.regressions()[0]
    assert delta.rel_delta == pytest.approx(-0.2)
    # the opposite drift — a speedup — is never a regression
    assert not diff_runs({"events_per_sec_x": 100.0},
                         {"events_per_sec_x": 200.0}).has_regressions


def test_lower_is_better_rise_is_regression():
    assert diff_runs({"p99_latency": 0.10},
                     {"p99_latency": 0.12}).has_regressions
    assert not diff_runs({"p99_latency": 0.10},
                         {"p99_latency": 0.05}).has_regressions


def test_directionless_keys_regress_on_any_drift():
    base = {"routing_rules:last": 6.0}
    assert diff_runs(base, {"routing_rules:last": 7.0}).has_regressions
    assert diff_runs(base, {"routing_rules:last": 5.0}).has_regressions
    assert not diff_runs(base, {"routing_rules:last": 6.0}).has_regressions


def test_tolerance_band_is_relative_plus_absolute():
    config = DiffConfig(rel_tolerance=0.10)
    assert not diff_runs({"p99_latency": 1.0}, {"p99_latency": 1.09},
                         config).has_regressions
    assert diff_runs({"p99_latency": 1.0}, {"p99_latency": 1.11},
                     config).has_regressions
    # zero baseline: only the absolute slack applies
    config = DiffConfig(abs_tolerance=0.5)
    assert not diff_runs({"failed": 0.0}, {"failed": 0.4},
                         config).has_regressions
    assert diff_runs({"failed": 0.0}, {"failed": 0.6},
                     config).has_regressions


def test_missing_key_semantics():
    base = {"requests_completed_total:last": 10.0}
    report = diff_runs(base, {})
    assert report.has_regressions            # baseline key vanished
    assert report.deltas[0].candidate is None
    relaxed = diff_runs(base, {}, DiffConfig(fail_on_missing=False))
    assert not relaxed.has_regressions
    # candidate-only keys are informational, never failures
    grown = diff_runs({}, {"new_metric": 1.0})
    assert not grown.has_regressions and grown.deltas[0].baseline is None


def test_key_tolerance_override_loosens_one_pattern():
    config = DiffConfig(rel_tolerance=0.05,
                        key_tolerances=(("events_per_sec*", 0.5),))
    flat_base = {"events_per_sec_x": 100.0, "p99_latency": 1.0}
    flat_cand = {"events_per_sec_x": 60.0, "p99_latency": 1.5}
    report = diff_runs(flat_base, flat_cand, config)
    keys = [delta.key for delta in report.regressions()]
    assert keys == ["p99_latency"]           # 40% drop sits inside 50% band


def test_report_render_and_as_dict():
    report = diff_runs({"events_per_sec_x": 100.0, "steady": 5.0},
                       {"events_per_sec_x": 80.0, "steady": 5.0},
                       baseline_name="a.json", candidate_name="b.json")
    text = report.render()
    assert "a.json -> b.json" in text
    assert "REGRESSION" in text and "-20.0%" in text
    assert "steady" not in text              # unchanged keys hidden by default
    assert "steady" in report.render(all_keys=True)
    payload = report.as_dict()
    assert payload["compared"] == 2 and payload["regressions"] == 1


# ---------------------------------------------------------- flattening

def test_flatten_bench_json():
    flat = flatten_artifact({"events_per_sec_off": 86699.9,
                             "schema_version": 1, "label": "x"})
    assert flat == {"events_per_sec_off": 86699.9, "schema_version": 1.0}


def test_flatten_metrics_snapshot():
    payload = {
        "requests_total": {"kind": "counter", "help": "h", "series": [
            {"labels": {"cluster": "west"}, "value": 10}]},
        "latency_seconds": {"kind": "histogram", "help": "h", "series": [
            {"labels": {}, "count": 4, "sum": 2.0, "mean": 0.5,
             "buckets": [[0.1, 1], [0.5, 3]]}]},
    }
    flat = flatten_artifact(payload)
    assert flat["requests_total{cluster=west}"] == 10.0
    assert flat["latency_seconds:count"] == 4.0
    assert flat["latency_seconds:mean"] == 0.5
    assert "latency_seconds:buckets" not in flat


def test_flatten_timeseries_snapshot():
    payload = {"scrape_count": 3, "series": [
        {"name": "depth", "labels": {"cluster": "west"},
         "points": [[1.0, 2.0], [2.0, 6.0], [3.0, 4.0]]},
        {"name": "empty", "labels": {}, "points": []},
    ]}
    flat = flatten_artifact(payload)
    assert flat["depth{cluster=west}:last"] == 4.0
    assert flat["depth{cluster=west}:mean"] == pytest.approx(4.0)
    assert flat["depth{cluster=west}:max"] == 6.0
    assert not any(key.startswith("empty") for key in flat)


def test_flatten_decision_and_alert_jsonl():
    decisions = [{"outcome": "solved", "weight_churn": 0.5,
                  "rules_changed": 2},
                 {"outcome": "no-demand", "weight_churn": 0.0,
                  "rules_changed": 0}]
    flat = flatten_artifact(decisions)
    assert flat["decisions:epochs"] == 2.0
    assert flat["decisions:solved"] == 1.0
    assert flat["decisions:weight_churn"] == 0.5
    alerts = [{"fired_at": 42.0, "resolved_at": 112.0},
              {"fired_at": 120.0, "resolved_at": None}]
    flat = flatten_artifact(alerts)
    assert flat["alerts:fired"] == 2.0
    assert flat["alerts:resolved"] == 1.0
    assert flat["alerts:firing_seconds"] == 70.0


def test_flatten_rejects_unknown_payloads():
    with pytest.raises(ValueError):
        flatten_artifact([{"mystery": 1}])
    with pytest.raises(ValueError):
        flatten_artifact({"only": "strings"})
    with pytest.raises(ValueError):
        flatten_artifact(3.14)


def test_load_artifact_json_and_jsonl(tmp_path):
    json_path = tmp_path / "bench.json"
    json_path.write_text(json.dumps({"events_per_sec_off": 10.0}))
    assert load_artifact(json_path) == {"events_per_sec_off": 10.0}
    jsonl_path = tmp_path / "alerts.jsonl"
    jsonl_path.write_text('{"fired_at": 1.0, "resolved_at": 2.0}\n')
    assert load_artifact(jsonl_path)["alerts:fired"] == 1.0
    report = diff_files(json_path, json_path)
    assert not report.has_regressions


# ------------------------------------------------------------------ CLI

def _write_bench(path, events):
    path.write_text(json.dumps({"events_per_sec_off": events,
                                "schema_version": 1}))


def test_cli_diff_exit_codes(tmp_path, capsys):
    base, cand = tmp_path / "base.json", tmp_path / "cand.json"
    _write_bench(base, 100.0)
    _write_bench(cand, 98.0)
    assert main(["obs", "diff", str(base), str(cand)]) == 0
    _write_bench(cand, 50.0)
    assert main(["obs", "diff", str(base), str(cand)]) == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out and "regressions=1" in out


def test_cli_diff_tolerance_flag(tmp_path):
    base, cand = tmp_path / "base.json", tmp_path / "cand.json"
    _write_bench(base, 100.0)
    _write_bench(cand, 80.0)
    assert main(["obs", "diff", str(base), str(cand)]) == 1
    assert main(["obs", "diff", str(base), str(cand),
                 "--tolerance", "events_per_sec*=0.25"]) == 0
    assert main(["obs", "diff", str(base), str(cand),
                 "--rel-tolerance", "0.3"]) == 0


def test_cli_diff_allow_missing_and_report(tmp_path, capsys):
    base, cand = tmp_path / "base.json", tmp_path / "cand.json"
    base.write_text(json.dumps({"events_per_sec_off": 100.0,
                                "events_per_sec_extra": 5.0}))
    _write_bench(cand, 100.0)
    assert main(["obs", "diff", str(base), str(cand)]) == 1
    report_path = tmp_path / "report.json"
    assert main(["obs", "diff", str(base), str(cand), "--allow-missing",
                 "--report", str(report_path)]) == 0
    capsys.readouterr()
    payload = json.loads(report_path.read_text())
    assert payload["regressions"] == 0


# -------------------------------------------- the acceptance-bar scenario

def test_diff_flags_injected_wan_latency(tmp_path, capsys):
    """ISSUE acceptance: a run with extra injected WAN latency must make
    ``repro obs diff`` exit non-zero against the clean baseline."""
    snapshots = []
    for one_way_ms in (25.0, 80.0):
        setup = fig6a_how_much(one_way_ms=one_way_ms, duration=8.0)
        obs = Observability(ObservabilityConfig(timeseries=True))
        run_policy(setup.scenario, setup.slate, observability=obs)
        path = tmp_path / f"wan_{one_way_ms:g}.json"
        write_timeseries_json(obs.timeseries, path)
        snapshots.append(str(path))
    baseline, slow = snapshots
    assert main(["obs", "diff", baseline, baseline]) == 0   # self-diff clean
    assert main(["obs", "diff", baseline, slow]) == 1
    out = capsys.readouterr().out
    assert "request_latency" in out and "REGRESSION" in out
