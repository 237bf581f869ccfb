"""Command-line interface: run paper figures and one-off optimizations.

Usage::

    python -m repro list
    python -m repro figure fig6a [--duration 40] [--seed 42]
    python -m repro figure fig4
    python -m repro solve --app chain --west 650 --east 100 [--cost-weight W]
    python -m repro run --scenario diurnal --fidelity hybrid --rps 500000
    python -m repro obs trace --figure fig6a --format chrome -o trace.json
    python -m repro obs metrics --figure fig6a --format prom
    python -m repro obs decisions --scenario diurnal
    python -m repro obs forecast --scenario slo --model holt --table
    python -m repro obs anomalies --scenario chaos --table

``figure`` regenerates one paper experiment and prints the same series the
benchmark harness saves; ``solve`` runs a single optimizer pass on a stock
application and prints the routing rules; ``obs`` runs a scenario with the
observability layer enabled and exports traces, metrics, or the Global
Controller decision log (see docs/observability.md).
"""

from __future__ import annotations

import argparse
import math
import sys

__all__ = ["APPS", "FIGURES", "build_parser", "cmd_chaos", "cmd_figure",
           "cmd_list", "cmd_obs", "cmd_run", "cmd_solve", "cmd_survey",
           "main"]

from .analysis.report import format_cdf_series, format_comparison, format_table
from .analysis.stats import nearest_rank
from .core.controller.global_controller import GlobalController
from .experiments.harness import compare_policies
from .experiments import scenarios as sc
from .sim import (DemandMatrix, DeploymentSpec, anomaly_detection_app,
                  linear_chain_app, social_network_app, two_class_app,
                  two_region_latency)

FIGURES = ("fig3", "fig4", "fig6a", "fig6b", "fig6c", "fig6d")
APPS = {
    "chain": lambda: linear_chain_app(n_services=3, exec_time=0.010),
    "anomaly": anomaly_detection_app,
    "two-class": two_class_app,
    "social": social_network_app,
}
#: the adaptive experiments the ``obs`` subcommands run, by ``--scenario``
CONTROL_SETUPS = {
    "diurnal": sc.diurnal_control_setup,
    "slo": sc.slo_burnrate_setup,
    "chaos": sc.chaos_outage_setup,
    "fig6a": sc.fig6a_adaptive_setup,
}


def _figure_setup(name: str, duration: float, seed: int):
    if name == "fig6a":
        return sc.fig6a_how_much(duration=duration, seed=seed)
    if name == "fig6b":
        return sc.fig6b_which_cluster(duration=duration, seed=seed)
    if name == "fig6c":
        return sc.fig6c_multihop(duration=duration, seed=seed)
    if name == "fig6d":
        return sc.fig6d_traffic_classes(duration=duration, seed=seed)
    raise ValueError(f"unknown figure {name!r}")


def cmd_list(args: argparse.Namespace) -> int:
    print("figures:", ", ".join(FIGURES))
    print("apps:   ", ", ".join(sorted(APPS)))
    print("\nsee EXPERIMENTS.md for what each figure demonstrates")
    return 0


def cmd_survey(args: argparse.Namespace) -> int:
    from .experiments.survey import survey_table
    print(survey_table())
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    name = args.name
    if name == "fig3":
        return _run_fig3()
    if name == "fig4":
        return _run_fig4()
    setup = _figure_setup(name, args.duration, args.seed)
    policies = list(setup.policies)
    if name == "fig6c":
        policies.append(sc.locality_failover_policy())
    comparison = compare_policies(setup.scenario, policies)
    print(format_cdf_series(comparison.cdfs(), title=f"{name} latency CDF"))
    print()
    print(format_comparison(comparison, baseline="waterfall",
                            target="slate"))
    return 0


def _run_fig3() -> int:
    print(format_table(
        ["west load (rps)", f"conservative {sc.FIG3_CONSERVATIVE_RPS:g} (ms)",
         f"aggressive {sc.FIG3_AGGRESSIVE_RPS:g} (ms)", "SLATE (ms)"],
        sc.fig3_threshold_sweep(),
        title="Fig. 3: static-threshold pathology"))
    return 0


def _run_fig4() -> int:
    series = sc.fig4_offload_sweep()
    rows = [[west] + [series[ms][index] for ms in sc.FIG4_ONE_WAY_MS]
            for index, west in enumerate(sc.FIG4_WEST_LOADS)]
    print(format_table(
        ["west load (rps)"]
        + [f"local @ {ms:g}ms" for ms in sc.FIG4_ONE_WAY_MS],
        rows, title="Fig. 4: locally served RPS at West"))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    import time
    from .core.controller.policy import SlatePolicy
    from .experiments.harness import Scenario
    from .obs.timeseries import percentile

    rps = args.rps if args.rps is not None else 150.0
    # size pools for the diurnal peak (base * (1 + amplitude)) at ~70%
    # utilization so every fidelity runs the same stable deployment
    replicas = args.replicas if args.replicas is not None else max(
        5, math.ceil(rps * 0.010 * 1.5 / 0.7))
    if args.scenario == "diurnal":
        setup = sc.diurnal_control_setup(
            base_rps=rps, duration=args.duration, epoch=args.epoch,
            replicas=replicas, seed=args.seed)
    else:
        app = linear_chain_app(n_services=3, exec_time=0.010)
        deployment = DeploymentSpec.uniform(
            app.services(), ["west", "east"], replicas=replicas,
            latency=two_region_latency(25.0))
        demand = DemandMatrix()
        demand.set("default", "west", rps)
        demand.set("default", "east", rps)
        setup = sc.ControlSetup(
            Scenario("constant", app, deployment, demand,
                     duration=args.duration, warmup=0.0, seed=args.seed,
                     epoch=args.epoch), SlatePolicy())
    started = time.perf_counter()
    outcome = setup.run(fidelity=args.fidelity, sample_rate=args.sample_rate,
                        fluid_tick=args.tick)
    wall = time.perf_counter() - started
    offered = rps * 2 * args.duration
    latencies = outcome.latencies
    document = {
        "command": "run", "scenario": args.scenario,
        "fidelity": args.fidelity, "duration": args.duration,
        "seed": args.seed, "rps_per_cluster": rps, "replicas": replicas,
        "sample_rate": args.sample_rate, "fluid_tick": args.tick,
        "offered_requests": offered,
        "wall_seconds": round(wall, 4),
        "sampled_latency": {
            "count": len(latencies),
            "p50": percentile(latencies, 0.50),
            "p95": percentile(latencies, 0.95),
            "p99": percentile(latencies, 0.99),
        },
        "egress": {"bytes": outcome.egress_bytes,
                   "cost": outcome.egress_cost},
    }
    if args.json or args.output:
        _emit_json(document, args.output, "run report")
    else:
        stats = document["sampled_latency"]
        print(f"{args.scenario} @ {args.fidelity}: {rps:g} rps/cluster x "
              f"{args.duration:g}s sim ({offered:g} requests offered) in "
              f"{wall:.2f}s wall")
        if stats["count"]:
            print(f"sampled latency (n={stats['count']}): "
                  f"p50={stats['p50'] * 1000:.1f}ms "
                  f"p95={stats['p95'] * 1000:.1f}ms "
                  f"p99={stats['p99'] * 1000:.1f}ms")
        else:
            print("sampled latency: none (fluid fidelity tracks bulk "
                  "flows only; use hybrid for percentiles)")
        print(f"egress: {outcome.egress_bytes} bytes "
              f"(${outcome.egress_cost:.4f})")
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    app = APPS[args.app]()
    deployment = DeploymentSpec.uniform(
        app.services(), ["west", "east"], replicas=args.replicas,
        latency=two_region_latency(args.rtt_ms / 2))
    demand = DemandMatrix()
    for cls in app.classes:
        share = 1.0 / len(app.classes)
        demand.set(cls, "west", args.west * share)
        if args.east > 0:
            demand.set(cls, "east", args.east * share)
    result = GlobalController.oracle(app, deployment, demand,
                                     cost_weight=args.cost_weight)
    print(f"status: {result.status}   objective: {result.objective:.3f}")
    print(f"predicted mean latency: "
          f"{result.predicted_mean_latency * 1000:.2f} ms")
    print(f"predicted egress cost: "
          f"${result.predicted_egress_cost_rate * 3600:.4f}/hour")
    print("\nrouting rules:")
    for rule in result.rules():
        weights = ", ".join(f"{c}={w:.1%}" for c, w in rule.weights)
        print(f"  {rule.service} [{rule.traffic_class}] @ "
              f"{rule.src_cluster}: {weights}")
    if args.render_istio:
        from .mesh.render import destination_rules, rules_to_virtualservices
        print("\n# --- Istio manifests ---")
        print(rules_to_virtualservices(result.rules(), app), end="")
        print("---")
        print(destination_rules(result.rules()), end="")
    return 0


def cmd_obs(args: argparse.Namespace) -> int:
    handlers = {"trace": _obs_trace, "metrics": _obs_metrics,
                "decisions": _obs_decisions, "timeseries": _obs_timeseries,
                "slo": _obs_slo, "diff": _obs_diff, "explain": _obs_explain,
                "forecast": _obs_forecast, "anomalies": _obs_anomalies}
    return handlers[args.obs_command](args)


def _observe_figure(args: argparse.Namespace, config):
    """Run ``--figure``'s scenario under SLATE, observed per ``config``."""
    from .obs import Observability
    figure = _figure_setup(args.figure, args.duration, args.seed)
    obs = Observability(config)
    sc.ControlSetup(figure.scenario, figure.slate).run(obs)
    return obs


def _obs_trace(args: argparse.Namespace) -> int:
    from .obs import (ObservabilityConfig, trace_summary,
                      write_chrome_trace, write_trace_jsonl)
    tracer = _observe_figure(args, ObservabilityConfig(tracing=True)).tracer
    print(f"{args.figure} (slate, {args.duration:g}s sim): "
          f"{len(tracer)} requests, {tracer.span_count} spans traced")
    if args.format == "chrome":
        out = args.output or f"{args.figure}_trace_chrome.json"
        events = write_chrome_trace(tracer, out,
                                    max_requests=args.max_requests)
        print(f"wrote {events} trace events to {out}")
        print("open in https://ui.perfetto.dev or chrome://tracing")
        return 0
    if args.format == "jsonl":
        out = args.output or f"{args.figure}_trace.jsonl"
        count = write_trace_jsonl(tracer, out)
        print(f"wrote {count} spans to {out}")
        return 0
    # summary: critical paths of the slowest requests
    for record in tracer.slowest_requests(args.top):
        summary = trace_summary(tracer.tree(record.request_id))
        print(f"\nrequest {record.request_id} "
              f"[{record.traffic_class}] via {record.ingress_cluster}: "
              f"{record.latency * 1000:.2f} ms e2e, "
              f"{summary['spans']} spans, "
              f"{summary['cross_cluster_hops']} cross-cluster hops")
        print(f"  critical path: queue {summary['critical_queue'] * 1000:.2f}"
              f" ms | exec {summary['critical_exec'] * 1000:.2f} ms"
              f" | wan {summary['critical_wan'] * 1000:.2f} ms")
        for hop in summary["critical_path"]:
            print(f"    {hop['hop']:<14} total {hop['total'] * 1000:8.2f} ms"
                  f"  queue {hop['queue_wait'] * 1000:7.2f}"
                  f"  exec {hop['exec_time'] * 1000:7.2f}"
                  f"  downstream {hop['downstream'] * 1000:7.2f}"
                  f"  wan-rtt {hop['wan_rtt'] * 1000:6.2f}")
    return 0


def _obs_metrics(args: argparse.Namespace) -> int:
    import json as json_module
    from .obs import ObservabilityConfig
    obs = _observe_figure(args, ObservabilityConfig(metrics=True,
                                                    profiling=True))
    if args.format == "prom":
        text = obs.metrics.to_prometheus()
    else:
        text = json_module.dumps(obs.metrics.snapshot(), indent=2,
                                 sort_keys=True)
    if args.output:
        from pathlib import Path
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {len(obs.metrics)} metrics to {args.output}")
    else:
        print(text)
    return 0


def _control_setup(args: argparse.Namespace, **options):
    """Build ``--scenario``'s setup; an omitted ``--duration`` falls to the
    builder's default."""
    if args.duration is not None:
        options["duration"] = args.duration
    return CONTROL_SETUPS[args.scenario](seed=args.seed, **options)


def _obs_decisions(args: argparse.Namespace) -> int:
    from .obs import Observability, write_decisions_jsonl
    options = {"epoch": args.epoch} if args.scenario == "fig6a" else {}
    setup = _control_setup(args, **options)
    obs = Observability(setup.observability())
    setup.run(obs)
    log = obs.decisions
    if args.format == "jsonl":
        out = args.output or f"{args.scenario}_decisions.jsonl"
        count = write_decisions_jsonl(log, out)
        print(f"wrote {count} decisions to {out}")
        return 0
    print(log.render())
    return 0


def _obs_explain(args: argparse.Namespace) -> int:
    from .obs import Observability, write_flight_dump, write_provenance_jsonl
    options = {}
    if args.scenario == "diurnal":
        # replicas=2 keeps peak diurnal demand above one cluster's
        # capacity, so the optimizer actually shifts weight cross-cluster
        # (the default 5 replicas never offload — nothing to explain)
        options["replicas"] = args.replicas
    setup = _control_setup(args, **options)
    classes = sorted(setup.scenario.app.classes)
    if args.traffic_class not in classes:
        print(f"obs explain: unknown traffic class {args.traffic_class!r}; "
              f"the {args.scenario} scenario has: {', '.join(classes)}",
              file=sys.stderr)
        return 2
    obs = Observability(setup.observability(provenance=True,
                                            timeseries=True))
    setup.run(obs)
    provenance = obs.provenance
    print(provenance.explain(args.traffic_class, at=args.at))
    if args.table:
        print()
        print(provenance.render())
    if args.output:
        count = write_provenance_jsonl(provenance, args.output)
        print(f"wrote {count} provenance records to {args.output}")
    if args.dump:
        count = write_flight_dump(provenance, args.dump)
        print(f"wrote {count} flight-recorder snapshots to {args.dump}")
    return 0


def _obs_timeseries(args: argparse.Namespace) -> int:
    from .obs import ObservabilityConfig, write_timeseries_json
    store = _observe_figure(args, ObservabilityConfig(
        timeseries=True, scrape_interval=args.interval)).timeseries
    if args.output:
        count = write_timeseries_json(store, args.output)
        print(f"wrote {count} series ({store.scrape_count} scrapes) "
              f"to {args.output}")
        return 0
    print(f"{args.figure} (slate, {args.duration:g}s sim, "
          f"interval {args.interval:g}s): {store.scrape_count} scrapes, "
          f"{store.series_count()} series")
    for name in store.names():
        for series in store.all_series(name):
            labels = ",".join(f"{k}={v}" for k, v in series.labels)
            last = series.last
            print(f"  {name}{{{labels}}}: {len(series)} points, "
                  f"last={last[1]:.6g} @ t={last[0]:.1f}")
    return 0


def _obs_slo(args: argparse.Namespace) -> int:
    from .obs import (Observability, join_alerts_decisions,
                      write_alerts_jsonl, write_decisions_jsonl,
                      write_timeseries_json)
    setup = sc.slo_burnrate_setup(duration=args.duration, seed=args.seed)
    obs = Observability(setup.observability(scrape_interval=args.interval))
    setup.run(obs)
    if args.json:
        document = {"command": "slo", "scenario": "slo_burnrate",
                    "duration": setup.scenario.duration, "seed": args.seed,
                    "interval": args.interval,
                    "alerts": [alert.as_dict() for alert in obs.alerts]}
        _emit_json(document, args.output, "alert report")
    elif args.format == "jsonl":
        out = args.output or "slo_alerts.jsonl"
        count = write_alerts_jsonl(obs.alerts, out)
        print(f"wrote {count} alerts to {out}")
    else:
        print(obs.alerts.render())
        print()
        for row in join_alerts_decisions(obs.alerts, obs.decisions):
            alert = row["alert"]
            resolved = ("active" if alert.resolved_at is None
                        else f"{alert.resolved_at:.1f}")
            print(f"{alert.rule} [{alert.fired_at:.1f}, {resolved}]: "
                  f"{len(row['decisions'])} controller epochs overlap, "
                  f"{row['replans']} fresh re-plans")
    if args.timeseries_out:
        count = write_timeseries_json(obs.timeseries, args.timeseries_out)
        print(f"wrote {count} series to {args.timeseries_out}")
    if args.decisions_out:
        count = write_decisions_jsonl(obs.decisions, args.decisions_out)
        print(f"wrote {count} decisions to {args.decisions_out}")
    return 0


def _predictive_season(args: argparse.Namespace,
                       default_period: float | None) -> float:
    """Resolve the holt-winters seasonal period (simulated seconds)."""
    if getattr(args, "model", "holt") != "holt-winters":
        return args.season if getattr(args, "season", None) is not None else 0.0
    if args.season is not None:
        return args.season
    if default_period is not None:
        return default_period
    raise SystemExit("--model holt-winters needs --season SECONDS on the "
                     "slo scenario (diurnal defaults to its period)")


def _run_predictive(args: argparse.Namespace, *, forecast: bool,
                    anomaly: bool):
    """Run the chosen scenario with the predictive pillar on; return the
    setup and its observability runtime."""
    from .obs import Observability
    if args.scenario == "diurnal":
        period = getattr(args, "period", None)
        setup = _control_setup(args, period=period)
        # holt-winters' season defaults to the demand period (the
        # builder's default period is the whole run)
        season = _predictive_season(args, period or setup.scenario.duration)
    else:
        setup = _control_setup(args)
        season = _predictive_season(args, None)
    obs = Observability(setup.observability(
        timeseries=True, scrape_interval=args.interval, forecast=forecast,
        anomaly=anomaly, forecast_model=getattr(args, "model", "holt"),
        season_length=season, forecast_horizon=getattr(args, "horizon", 5)))
    setup.run(obs)
    return setup, obs


def _emit_json(document: dict, output: str | None, what: str) -> None:
    import json as json_module
    from pathlib import Path
    text = json_module.dumps(document, indent=2, sort_keys=True)
    if output:
        Path(output).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {what} to {output}")
    else:
        print(text)


def _obs_forecast(args: argparse.Namespace) -> int:
    setup, obs = _run_predictive(args, forecast=True, anomaly=False)
    duration = setup.scenario.duration
    engine = obs.forecast
    document = {"command": "forecast", "scenario": args.scenario,
                "duration": duration, "seed": args.seed,
                "interval": args.interval, "forecast": engine.summary()}
    if obs.breach is not None:
        document["predictions"] = [p.as_dict()
                                   for p in obs.breach.predictions]
        document["prediction_score"] = obs.breach.score().as_dict()
    if args.json or args.output:
        _emit_json(document, args.output, "forecast report")
    else:
        backtests = engine.backtests()
        print(f"{args.scenario} ({duration:g}s sim, interval "
              f"{args.interval:g}s): model={engine.model_name} "
              f"horizon={engine.horizon} ticks, {engine.samples} ticks "
              f"sampled, {len(backtests)} series backtested")
        header = f"{'evals':>6} {'MASE':>8} {'sMAPE':>8} {'MAE':>11} series"
        print(header)
        print("-" * len(header))
        for sid, score in sorted(backtests.items()):
            print(f"{score.evaluations:>6} {score.mase:>8.3f} "
                  f"{score.smape:>8.3f} {score.mae:>11.4g} {sid}")
        if obs.breach is not None:
            score = obs.breach.score()
            print(f"\npredicted breaches: {score.predictions} "
                  f"(hits {score.hits}, misses {score.misses}, "
                  f"open {score.open}); precision {score.precision:.2f} "
                  f"recall {score.recall:.2f}, mean lead "
                  f"{score.mean_lead_seconds:.1f}s")
            if args.table:
                for p in obs.breach.predictions:
                    lead = ("-" if p.actual_lead is None
                            else f"{p.actual_lead:.1f}s")
                    print(f"  t={p.fired_at:.1f} {p.rule} "
                          f"eta={p.breach_eta:.1f} "
                          f"lead_est={p.lead_estimate:.1f}s "
                          f"outcome={p.outcome} actual_lead={lead}")
    return 0


def _obs_anomalies(args: argparse.Namespace) -> int:
    from .obs import write_anomalies_jsonl
    setup, obs = _run_predictive(args, forecast=False, anomaly=True)
    duration = setup.scenario.duration
    engine = obs.anomaly
    summary = engine.summary()
    if args.json:
        document = {"command": "anomalies", "scenario": args.scenario,
                    "duration": duration, "seed": args.seed,
                    "interval": args.interval, "summary": summary,
                    "events": [event.as_dict() for event in engine.log]}
        _emit_json(document, None, "anomaly report")
    else:
        detectors = ", ".join(f"{name}={count}" for name, count
                              in summary["by_detector"].items()) or "none"
        print(f"{args.scenario} ({duration:g}s sim, interval "
              f"{args.interval:g}s): {summary['events']} anomaly events "
              f"over {summary['followed_series']} series ({detectors})")
        if args.table:
            print()
            print(engine.log.render())
    if args.output:
        count = write_anomalies_jsonl(engine.log, args.output)
        print(f"wrote {count} anomaly events to {args.output}")
    return 0


def _obs_diff(args: argparse.Namespace) -> int:
    import json as json_module
    from .obs.diff import DiffConfig, diff_files
    key_tolerances = []
    for spec in args.tolerance or []:
        pattern, _, value = spec.rpartition("=")
        if not pattern:
            raise SystemExit(
                f"--tolerance wants PATTERN=FRACTION, got {spec!r}")
        key_tolerances.append((pattern, float(value)))
    config = DiffConfig(rel_tolerance=args.rel_tolerance,
                        key_tolerances=tuple(key_tolerances),
                        fail_on_missing=not args.allow_missing)
    try:
        report = diff_files(args.baseline, args.candidate, config)
    except OSError as error:
        print(f"obs diff: cannot read artifact: {error}", file=sys.stderr)
        return 2
    except ValueError as error:   # bad JSON or unrecognized artifact shape
        print(f"obs diff: invalid artifact: {error}", file=sys.stderr)
        return 2
    print(report.render(all_keys=args.all))
    if args.report:
        from pathlib import Path
        Path(args.report).write_text(
            json_module.dumps(report.as_dict(), indent=2, sort_keys=True)
            + "\n", encoding="utf-8")
        print(f"wrote diff report to {args.report}")
    return 1 if report.has_regressions else 0


def _given(**options) -> dict:
    """The options whose flag was given; an omitted one (None) falls to the
    callee's default."""
    return {name: value for name, value in options.items()
            if value is not None}


def cmd_chaos(args: argparse.Namespace) -> int:
    from dataclasses import replace
    from .chaos import FaultPlan
    options = _given(duration=args.duration, seed=args.seed,
                     fault_start=args.fault_start,
                     fault_duration=args.fault_duration,
                     wan_multiplier=args.wan_multiplier,
                     max_rule_age=args.max_rule_age)
    setup = sc.chaos_outage_setup(fallback=args.fallback, **options)
    if args.chaos_command == "run":
        return _chaos_run(args, setup)
    # the unfaulted twin gets a fresh policy: the faulted one holds
    # learned state
    twin = sc.chaos_outage_setup(fallback="none", **options)
    return _chaos_report(args, setup, replace(twin, plan=FaultPlan.empty()))


def _chaos_run(args: argparse.Namespace, setup: sc.ControlSetup) -> int:
    print("fault campaign:")
    for line in setup.plan.describe():
        print(f"  {line}")
    result = setup.run()
    latencies = result.outcome.latencies
    print(f"\n{setup.scenario.name} (slate, {setup.scenario.duration:g}s "
          f"sim, fallback={args.fallback}): {len(latencies)} requests "
          f"after warm-up")
    if latencies:
        print(f"p50 {nearest_rank(latencies, 0.50) * 1000:.1f} ms   "
              f"p95 {nearest_rank(latencies, 0.95) * 1000:.1f} ms   "
              f"p99 {nearest_rank(latencies, 0.99) * 1000:.1f} ms")
    trips = result.fallback_trips
    reconciled = sum(c.reconciliations for c in result.controllers.values())
    print(f"stale-rule guard trips: {len(trips)}"
          + (f" at t={', '.join(f'{t:.1f}' for t in trips)}" if trips else "")
          + f"; reconciliations: {reconciled}")
    counters = result.chaos.counters()
    print(f"telemetry dropped={counters['reports_dropped']} "
          f"delayed={counters['reports_delayed']}; "
          f"wan transfers dropped={counters['dropped_transfers']}; "
          f"hung requests={result.hung_requests}")
    return 0


def _chaos_report(args: argparse.Namespace, setup: sc.ControlSetup,
                  twin: sc.ControlSetup) -> int:
    import json as json_module
    result = setup.run()
    report = result.resilience(
        twin.run(), **_given(band=args.band, window=args.window))
    print(report.render())
    if args.output:
        from pathlib import Path
        payload = {"scenario": setup.scenario.name,
                   "fallback": args.fallback,
                   "resilience": report.as_dict(),
                   "faults": [r.as_dict() for r in result.chaos.timeline]}
        Path(args.output).write_text(
            json_module.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        print(f"wrote resilience report to {args.output}")
    return 0


def _positive(text: str) -> float:
    """argparse type: a finite number > 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def _non_negative(text: str) -> float:
    """argparse type: a finite number >= 0."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _at_least_one(text: str) -> float:
    """argparse type: a finite number >= 1."""
    value = float(text)
    if not (math.isfinite(value) and value >= 1):
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _positive_int(text: str) -> int:
    """argparse type: an integer > 0."""
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SLATE (HotNets '24) reproduction command line")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list figures and stock apps")
    sub.add_parser("survey", help="print the paper's §2 operator survey")

    figure = sub.add_parser("figure", help="regenerate one paper figure")
    figure.add_argument("name", choices=FIGURES)
    figure.add_argument("--duration", type=_positive, default=40.0,
                        help="simulated seconds (fig6x only)")
    figure.add_argument("--seed", type=int, default=42)

    solve = sub.add_parser("solve", help="one-shot optimization")
    solve.add_argument("--app", choices=sorted(APPS), default="chain")
    solve.add_argument("--west", type=float, default=650.0,
                       help="total west ingress RPS")
    solve.add_argument("--east", type=float, default=100.0,
                       help="total east ingress RPS")
    solve.add_argument("--replicas", type=int, default=5)
    solve.add_argument("--rtt-ms", type=float, default=50.0)
    solve.add_argument("--cost-weight", type=float, default=0.0)
    solve.add_argument("--render-istio", action="store_true",
                       help="emit Istio VirtualService/DestinationRule "
                            "manifests for the plan")

    run = sub.add_parser(
        "run", help="run one scenario at a chosen simulation fidelity "
                    "(event | fluid | hybrid; docs/substrate.md)")
    run.add_argument("--scenario", choices=("constant", "diurnal"),
                     default="diurnal")
    run.add_argument("--fidelity", choices=("event", "fluid", "hybrid"),
                     default="hybrid")
    run.add_argument("--rps", type=_non_negative, default=None,
                     help="ingress RPS per cluster (default 150)")
    run.add_argument("--duration", type=_positive, default=60.0,
                     help="simulated seconds")
    run.add_argument("--epoch", type=_positive, default=10.0,
                     help="adaptive re-plan period (simulated seconds)")
    run.add_argument("--sample-rate", type=float, default=None,
                     help="hybrid: fraction of demand run event-level "
                          "(default 0.05)")
    run.add_argument("--tick", type=_positive, default=None,
                     help="fluid substrate tick (simulated seconds, "
                          "default 0.1)")
    run.add_argument("--replicas", type=int, default=None,
                     help="replicas per (service, cluster); default sized "
                          "for ~70%% peak utilization")
    run.add_argument("--seed", type=int, default=42)
    run.add_argument("--json", action="store_true",
                     help="print the run report as JSON")
    run.add_argument("-o", "--output", default=None,
                     help="write the run report JSON here")

    obs = sub.add_parser(
        "obs", help="run with observability on; export traces/metrics/"
                    "decisions (docs/observability.md)")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    trace = obs_sub.add_parser("trace",
                               help="distributed trace of a figure scenario")
    trace.add_argument("--figure", choices=("fig6a", "fig6b", "fig6c",
                                            "fig6d"), default="fig6a")
    trace.add_argument("--format", choices=("chrome", "jsonl", "summary"),
                       default="summary")
    trace.add_argument("-o", "--output", default=None,
                       help="output path (default: <figure>_trace_*.json)")
    trace.add_argument("--duration", type=_positive, default=5.0,
                       help="simulated seconds")
    trace.add_argument("--seed", type=int, default=42)
    trace.add_argument("--max-requests", type=int, default=200,
                       help="chrome export: cap on exported request ids "
                            "(keeps the file viewer-loadable)")
    trace.add_argument("--top", type=int, default=3,
                       help="summary: how many slowest requests to break "
                            "down")

    metrics = obs_sub.add_parser("metrics",
                                 help="metrics snapshot of a figure scenario")
    metrics.add_argument("--figure", choices=("fig6a", "fig6b", "fig6c",
                                              "fig6d"), default="fig6a")
    metrics.add_argument("--format", choices=("json", "prom"),
                         default="json")
    metrics.add_argument("-o", "--output", default=None,
                         help="output path (default: stdout)")
    metrics.add_argument("--duration", type=_positive, default=10.0)
    metrics.add_argument("--seed", type=int, default=42)

    decisions = obs_sub.add_parser(
        "decisions", help="Global Controller epoch decision log")
    decisions.add_argument("--scenario", choices=("diurnal", "fig6a"),
                           default="diurnal")
    decisions.add_argument("--format", choices=("text", "jsonl"),
                           default="text")
    decisions.add_argument("-o", "--output", default=None)
    decisions.add_argument("--duration", type=_positive, default=240.0,
                           help="simulated seconds")
    decisions.add_argument("--epoch", type=_positive, default=10.0,
                           help="re-plan period (fig6a scenario)")
    decisions.add_argument("--seed", type=int, default=42)

    timeseries = obs_sub.add_parser(
        "timeseries", help="scrape a figure scenario into sim-time series")
    timeseries.add_argument("--figure", choices=("fig6a", "fig6b", "fig6c",
                                                 "fig6d"), default="fig6a")
    timeseries.add_argument("--interval", type=_positive, default=1.0,
                            help="scrape interval (simulated seconds)")
    timeseries.add_argument("-o", "--output", default=None,
                            help="write the snapshot JSON here "
                                 "(default: print a summary)")
    timeseries.add_argument("--duration", type=_positive, default=40.0)
    timeseries.add_argument("--seed", type=int, default=42)

    slo = obs_sub.add_parser(
        "slo", help="run the SLO burn-rate scenario; show/export alerts")
    slo.add_argument("--format", choices=("text", "jsonl"), default="text")
    slo.add_argument("-o", "--output", default=None,
                     help="jsonl format: alert log path")
    slo.add_argument("--interval", type=_positive, default=1.0,
                     help="scrape interval (simulated seconds)")
    slo.add_argument("--duration", type=_positive, default=180.0)
    slo.add_argument("--seed", type=int, default=42)
    slo.add_argument("--timeseries-out", default=None,
                     help="also write the time-series snapshot here")
    slo.add_argument("--decisions-out", default=None,
                     help="also write the decision log here")
    slo.add_argument("--json", action="store_true",
                     help="print one JSON document instead of text")

    forecast = obs_sub.add_parser(
        "forecast", help="fit online forecast models to a scenario's "
                         "scraped series; backtests + predicted breaches")
    forecast.add_argument("--scenario", choices=("slo", "diurnal"),
                          default="slo")
    forecast.add_argument("--model",
                          choices=("ewma", "holt", "holt-winters"),
                          default="holt")
    forecast.add_argument("--horizon", type=_positive_int, default=5,
                          help="forecast horizon (scrape ticks)")
    forecast.add_argument("--season", type=float, default=None,
                          help="holt-winters seasonal period (simulated "
                               "seconds; diurnal defaults to its period)")
    forecast.add_argument("--period", type=_positive, default=None,
                          help="diurnal scenario: demand period (simulated "
                               "seconds; default: the full duration, i.e. "
                               "one cycle)")
    forecast.add_argument("--interval", type=_positive, default=1.0,
                          help="scrape interval (simulated seconds)")
    forecast.add_argument("--duration", type=_positive, default=None,
                          help="simulated seconds (default: 180 slo, "
                               "240 diurnal)")
    forecast.add_argument("--seed", type=int, default=42)
    forecast.add_argument("--table", action="store_true",
                          help="also print the predicted-breach table")
    forecast.add_argument("--json", action="store_true",
                          help="print one JSON document instead of text")
    forecast.add_argument("-o", "--output", default=None,
                          help="write the JSON report here")

    anomalies = obs_sub.add_parser(
        "anomalies", help="streaming anomaly detection (z-score spikes + "
                          "CUSUM changepoints) over a scenario's series")
    anomalies.add_argument("--scenario", choices=("slo", "chaos", "diurnal"),
                           default="chaos")
    anomalies.add_argument("--interval", type=_positive, default=0.5,
                           help="scrape interval (simulated seconds)")
    anomalies.add_argument("--duration", type=_positive, default=None,
                           help="simulated seconds (default: 180 slo, "
                                "40 chaos, 240 diurnal)")
    anomalies.add_argument("--seed", type=int, default=42)
    anomalies.add_argument("--table", action="store_true",
                           help="also print the full event table")
    anomalies.add_argument("--json", action="store_true",
                           help="print one JSON document instead of text")
    anomalies.add_argument("-o", "--output", default=None,
                           help="write the anomaly-event JSONL here")

    explain = obs_sub.add_parser(
        "explain", help="why did traffic for a class shift? walk the "
                        "provenance chain for one epoch")
    explain.add_argument("traffic_class", nargs="?", default="default",
                         help="traffic class to explain (default: default)")
    explain.add_argument("--at", type=float, default=None,
                         help="explain the newest epoch at or before this "
                              "sim time (default: largest shift)")
    explain.add_argument("--scenario", choices=("diurnal", "chaos"),
                         default="diurnal")
    explain.add_argument("--duration", type=_positive, default=None,
                         help="simulated seconds (default: 240 diurnal, "
                              "40 chaos)")
    explain.add_argument("--seed", type=int, default=42)
    explain.add_argument("--replicas", type=int, default=2,
                         help="diurnal scenario replicas per pool; 2 makes "
                              "peak demand spill cross-cluster")
    explain.add_argument("--table", action="store_true",
                         help="also print the flight-recorder ring table")
    explain.add_argument("-o", "--output", default=None,
                         help="write provenance records JSONL here")
    explain.add_argument("--dump", default=None,
                         help="write anomaly flight-recorder snapshots "
                              "JSONL here")

    diff = obs_sub.add_parser(
        "diff", help="compare two runs' exported artifacts; exit 1 on "
                     "regression")
    diff.add_argument("baseline", help="baseline artifact (.json/.jsonl)")
    diff.add_argument("candidate", help="candidate artifact (.json/.jsonl)")
    diff.add_argument("--rel-tolerance", type=float, default=0.05,
                      help="default relative tolerance band "
                           "(fraction of baseline)")
    diff.add_argument("--tolerance", action="append", metavar="PATTERN=FRAC",
                      help="per-key tolerance override (glob pattern); "
                           "repeatable")
    diff.add_argument("--allow-missing", action="store_true",
                      help="don't fail when a baseline key is absent in "
                           "the candidate")
    diff.add_argument("--all", action="store_true",
                      help="show unchanged keys too")
    diff.add_argument("--report", default=None,
                      help="write the full diff report JSON here")

    chaos = sub.add_parser(
        "chaos", help="run a fault campaign; score resilience "
                      "(docs/substrate.md fault model)")
    chaos_sub = chaos.add_subparsers(dest="chaos_command", required=True)

    def _chaos_common(p) -> None:
        p.add_argument("--duration", type=_positive, default=None,
                       help="simulated seconds (default 40)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--fault-start", type=_non_negative, default=None,
                       help="simulated seconds (default 10)")
        p.add_argument("--fault-duration", type=_positive, default=None,
                       help="simulated seconds (default 14)")
        p.add_argument("--wan-multiplier", type=_non_negative, default=None,
                       help="west<->east delay inflation during the fault "
                            "(default 20)")
        p.add_argument("--max-rule-age", type=_positive, default=None,
                       help="stale-rule guard threshold (simulated "
                            "seconds, default 5)")
        p.add_argument("--fallback",
                       choices=("locality", "waterfall", "none"),
                       default="locality",
                       help="'none' freezes the stale rules (no guard)")

    chaos_run = chaos_sub.add_parser(
        "run", help="run the controller-outage campaign; print what "
                    "happened")
    _chaos_common(chaos_run)

    chaos_report = chaos_sub.add_parser(
        "report", help="score the campaign against an unfaulted twin run")
    _chaos_common(chaos_report)
    chaos_report.add_argument("--band", type=_at_least_one, default=None,
                              help="recovered when window p95 <= band x "
                                   "pre-fault p95 (default 1.5)")
    chaos_report.add_argument("--window", type=_positive, default=None,
                              help="sliding p95 window (simulated seconds, "
                                   "default 2)")
    chaos_report.add_argument("-o", "--output", default=None,
                              help="write the resilience report JSON here")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"list": cmd_list, "figure": cmd_figure,
                "solve": cmd_solve, "survey": cmd_survey, "obs": cmd_obs,
                "chaos": cmd_chaos, "run": cmd_run}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
