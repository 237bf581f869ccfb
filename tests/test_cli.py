"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig6a" in out and "fig4" in out
    assert "chain" in out and "social" in out


def test_solve_command_prints_rules(capsys):
    assert main(["solve", "--app", "chain", "--west", "650",
                 "--east", "100"]) == 0
    out = capsys.readouterr().out
    assert "status: optimal" in out
    assert "predicted mean latency" in out
    assert "S1 [default] @ west" in out


def test_solve_multiclass_app(capsys):
    assert main(["solve", "--app", "two-class", "--west", "400",
                 "--east", "100", "--replicas", "8"]) == 0
    out = capsys.readouterr().out
    assert "[L]" in out and "[H]" in out


def test_figure_fig3_analytic(capsys):
    assert main(["figure", "fig3"]) == 0
    out = capsys.readouterr().out
    assert "static-threshold" in out
    assert "SLATE (ms)" in out


def test_figure_fig4_analytic(capsys):
    assert main(["figure", "fig4"]) == 0
    out = capsys.readouterr().out
    assert "locally served RPS" in out
    assert "local @ 5ms" in out


def test_figure_simulated_short(capsys):
    assert main(["figure", "fig6a", "--duration", "6", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "latency CDF" in out
    assert "mean-latency ratio" in out


def test_unknown_figure_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["figure", "fig99"])


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_solve_render_istio(capsys):
    assert main(["solve", "--app", "chain", "--west", "650",
                 "--render-istio"]) == 0
    out = capsys.readouterr().out
    assert "kind: VirtualService" in out
    assert "kind: DestinationRule" in out
    assert "weight:" in out


def test_obs_timeseries_summary(capsys, tmp_path):
    assert main(["obs", "timeseries", "--figure", "fig6a",
                 "--duration", "5", "--interval", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "scrapes" in out and "request_latency_p99" in out
    snapshot = tmp_path / "ts.json"
    assert main(["obs", "timeseries", "--figure", "fig6a", "--duration", "5",
                 "-o", str(snapshot)]) == 0
    assert "series" in snapshot.read_text()


def test_chaos_run_short(capsys):
    assert main(["chaos", "run", "--duration", "20", "--fault-start", "4",
                 "--fault-duration", "8", "--max-rule-age", "3"]) == 0
    out = capsys.readouterr().out
    assert "controller-outage" in out and "wan:east<->west" in out
    assert "stale-rule guard trips:" in out
    assert "p95" in out


def test_chaos_report_writes_json(capsys, tmp_path):
    payload = tmp_path / "resilience.json"
    assert main(["chaos", "report", "--duration", "20", "--fault-start", "4",
                 "--fault-duration", "8", "--max-rule-age", "3",
                 "-o", str(payload)]) == 0
    out = capsys.readouterr().out
    assert "detect(s)" in out and "egress cost" in out
    text = payload.read_text()
    assert "controller-outage" in text and "episodes" in text


def test_obs_explain_renders_causal_chain(capsys, tmp_path):
    records = tmp_path / "prov.jsonl"
    assert main(["obs", "explain", "default", "--duration", "60",
                 "--table", "-o", str(records)]) == 0
    out = capsys.readouterr().out
    assert "why did traffic for class 'default' shift" in out
    assert "observed:" in out and "decided:" in out and "shipped:" in out
    assert "records=" in out                    # --table printed the ring
    assert records.read_text().strip()


def test_obs_explain_chaos_writes_flight_dump(capsys, tmp_path):
    dump = tmp_path / "flight.jsonl"
    assert main(["obs", "explain", "default", "--scenario", "chaos",
                 "--duration", "30", "--dump", str(dump)]) == 0
    out = capsys.readouterr().out
    assert "flight-recorder snapshots" in out
    text = dump.read_text()
    assert '"reason": "fault"' in text
    assert "chaos-outage" in text               # run stamp for replay


def test_obs_explain_rejects_unknown_class(capsys):
    assert main(["obs", "explain", "ghost", "--scenario", "chaos"]) == 2
    captured = capsys.readouterr()
    assert "unknown traffic class 'ghost'" in captured.err
    assert "has: default" in captured.err
    assert "why did traffic" not in captured.out


def test_obs_slo_renders_alerts_and_join(capsys):
    # 60 simulated seconds: the surge starts at t=40, so the alert fires
    # but stays active at the end of the run
    assert main(["obs", "slo", "--duration", "60"]) == 0
    out = capsys.readouterr().out
    assert "rule" in out and "latency-250ms" in out
    assert "re-plans" in out


def test_obs_slo_json_document(capsys):
    import json
    assert main(["obs", "slo", "--duration", "60", "--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["command"] == "slo"
    assert isinstance(document["alerts"], list) and document["alerts"]
    assert document["alerts"][0]["rule"] == "latency-250ms"


def test_obs_forecast_text_and_breach_table(capsys):
    assert main(["obs", "forecast", "--scenario", "slo",
                 "--duration", "60", "--table"]) == 0
    out = capsys.readouterr().out
    assert "series backtested" in out and "MASE" in out
    assert "predicted breaches:" in out


def test_obs_forecast_json_report(capsys, tmp_path):
    import json
    report = tmp_path / "forecast.json"
    assert main(["obs", "forecast", "--scenario", "slo", "--duration", "50",
                 "-o", str(report)]) == 0
    document = json.loads(report.read_text())
    assert document["command"] == "forecast"
    assert document["forecast"]["model"] == "holt"
    assert document["forecast"]["series"]
    assert "prediction_score" in document


def test_obs_forecast_holt_winters_needs_season_on_slo():
    with pytest.raises(SystemExit):
        main(["obs", "forecast", "--scenario", "slo",
              "--model", "holt-winters", "--duration", "20"])


def test_obs_anomalies_json_document(capsys):
    import json
    assert main(["obs", "anomalies", "--scenario", "chaos",
                 "--duration", "30", "--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["command"] == "anomalies"
    assert document["summary"]["events"] == len(document["events"])
    assert document["events"], "the outage must register anomalies"


def test_obs_anomalies_table_and_exports(capsys, tmp_path):
    events = tmp_path / "anomalies.jsonl"
    signals = tmp_path / "signals.jsonl"
    assert main(["obs", "anomalies", "--scenario", "chaos",
                 "--duration", "30", "--table", "-o", str(events),
                 "--signals-out", str(signals)]) == 0
    out = capsys.readouterr().out
    assert "anomaly events" in out and "detector" in out
    assert events.read_text().strip()
    assert '"topic": "anomaly"' in signals.read_text()


def test_obs_diff_missing_artifact_exits_2(capsys, tmp_path):
    assert main(["obs", "diff", str(tmp_path / "nope.json"),
                 str(tmp_path / "nope2.json")]) == 2
    assert "cannot read artifact" in capsys.readouterr().err


def test_obs_diff_invalid_artifact_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("definitely not json{{", encoding="utf-8")
    ok = tmp_path / "ok.json"
    ok.write_text("{}", encoding="utf-8")
    assert main(["obs", "diff", str(bad), str(ok)]) == 2
    assert "invalid artifact" in capsys.readouterr().err


@pytest.mark.parametrize("fmt, suffix, marker, content", [
    ("chrome", "json", "trace events to", '"traceEvents"'),
    ("jsonl", "jsonl", "spans to", '"request_id"'),
])
def test_obs_trace_writes_file(capsys, tmp_path, fmt, suffix, marker,
                               content):
    out_path = tmp_path / f"trace.{suffix}"
    assert main(["obs", "trace", "--duration", "2", "--format", fmt,
                 "-o", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "fig6a (slate, 2s sim):" in out and "spans traced" in out
    assert marker in out and str(out_path) in out
    assert content in out_path.read_text()


def test_obs_trace_summary_breaks_down_slowest(capsys):
    assert main(["obs", "trace", "--duration", "2", "--top", "1"]) == 0
    out = capsys.readouterr().out
    assert "spans traced" in out
    assert out.count("ms e2e") == 1
    assert "critical path: queue" in out and "wan-rtt" in out


def test_obs_metrics_prom_file_and_json_stdout(capsys, tmp_path):
    import json
    prom = tmp_path / "m.prom"
    assert main(["obs", "metrics", "--duration", "2", "--format", "prom",
                 "-o", str(prom)]) == 0
    assert f"metrics to {prom}" in capsys.readouterr().out
    text = prom.read_text()
    assert "# TYPE calls_dropped_total counter" in text
    assert "pool_utilization" in text
    assert main(["obs", "metrics", "--duration", "2"]) == 0
    snapshot = json.loads(capsys.readouterr().out)
    assert snapshot["calls_dropped_total"]["kind"] == "counter"


def test_obs_decisions_fig6a_text(capsys):
    assert main(["obs", "decisions", "--scenario", "fig6a",
                 "--duration", "20", "--epoch", "5"]) == 0
    out = capsys.readouterr().out
    assert "epoch   t(sim) outcome" in out
    assert "epochs=4 solved=0 replayed=4 no-demand=0" in out


def test_obs_decisions_diurnal_jsonl(capsys, tmp_path):
    import json
    log = tmp_path / "decisions.jsonl"
    assert main(["obs", "decisions", "--scenario", "diurnal",
                 "--duration", "30", "--format", "jsonl",
                 "-o", str(log)]) == 0
    assert f"wrote 3 decisions to {log}" in capsys.readouterr().out
    rows = [json.loads(line) for line in log.read_text().splitlines()]
    assert [row["epoch"] for row in rows] == [0, 1, 2]
    assert rows[0]["outcome"] == "solved"
    assert rows[0]["demand_total"] == 300.0


@pytest.mark.parametrize("argv", [
    ["obs", "slo", "--duration", "0"],
    ["obs", "timeseries", "--interval", "0"],
    ["obs", "decisions", "--epoch", "0"],
    ["obs", "forecast", "--horizon", "0"],
    ["obs", "forecast", "--scenario", "diurnal", "--period", "-10"],
    ["obs", "anomalies", "--duration", "nan"],
    ["obs", "explain", "--duration", "-1"],
    ["run", "--rps", "-5"],
    ["run", "--tick", "0"],
    ["run", "--duration", "inf"],
    ["figure", "fig6a", "--duration", "0"],
    ["chaos", "run", "--duration", "-40"],
])
def test_invalid_numeric_flag_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "must be" in err
