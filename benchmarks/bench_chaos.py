"""Resilience under the §5 campaign: outage + WAN partition, three policies.

One campaign — Global Controller outage overlapping a full west<->east
partition — run under SLATE-with-fallback, static Waterfall, and static
locality failover. Per policy we record the p95 during the fault window,
failed/hung requests, and egress cost; for SLATE also the resilience
detection/recovery times against an unfaulted twin. All of it lands in
``BENCH_chaos.json`` so ``repro obs diff`` gates the trajectory in CI.

A partition blackholes cross-cluster calls, so every run gets a
:class:`~repro.sim.runner.TimeoutPolicy`: a call into the partition times
out and retries — excluding the dead cluster — rather than hanging.
"""

from repro.analysis.report import format_table
from repro.analysis.stats import nearest_rank
from repro.baselines.locality import LocalityFailoverPolicy
from repro.baselines.waterfall import WaterfallConfig, WaterfallPolicy
from repro.chaos import (ControlPlaneOutage, FaultPlan, WanFault, run_chaos)
from repro.core.controller.global_controller import GlobalControllerConfig
from repro.core.controller.policy import SlatePolicy
from repro.experiments.harness import Scenario
from repro.sim import (DemandMatrix, DeploymentSpec, linear_chain_app,
                       two_region_latency)
from repro.sim.runner import TimeoutPolicy

_DURATION = 30.0
_FAULT_START = 8.0
_FAULT_DURATION = 10.0


def _scenario() -> Scenario:
    app = linear_chain_app(n_services=3, exec_time=0.010)
    deployment = DeploymentSpec.uniform(
        app.services(), ["west", "east"], replicas=5,
        latency=two_region_latency(25.0))
    demand = DemandMatrix({("default", "west"): 480.0,
                           ("default", "east"): 100.0})
    return Scenario(name="bench-chaos", app=app, deployment=deployment,
                    demand=demand, duration=_DURATION,
                    warmup=_DURATION / 6, seed=42, epoch=2.0)


def _plan() -> FaultPlan:
    return FaultPlan((
        ControlPlaneOutage(start=_FAULT_START, duration=_FAULT_DURATION),
        WanFault(start=_FAULT_START, duration=_FAULT_DURATION,
                 src="west", dst="east", partition=True),
    ))


def _policies(scenario: Scenario) -> dict:
    waterfall = WaterfallPolicy(WaterfallConfig.from_deployment(
        scenario.app, scenario.deployment, threshold_rho=0.98))
    return {
        "slate_fallback": (SlatePolicy(
            GlobalControllerConfig(rho_max=0.95, learn_profiles=False),
            adaptive=True), dict(fallback="locality", max_rule_age=5.0)),
        "waterfall": (waterfall, {}),
        "locality": (LocalityFailoverPolicy(), {}),
    }


def _fault_window_p95(result) -> float:
    end = _FAULT_START + _FAULT_DURATION
    p95 = nearest_rank([lat for t, lat in result.samples
                        if lat is not None and _FAULT_START <= t < end], 0.95)
    return 0.0 if p95 is None else p95


def test_chaos_campaign(benchmark, report_sink, bench_json):
    """The outage+partition campaign under all three policies."""
    scenario = _scenario()
    plan = _plan()
    timeouts = TimeoutPolicy(call_timeout=0.5, max_attempts=3)

    def run_all():
        out = {}
        for label, (policy, kwargs) in _policies(scenario).items():
            out[label] = run_chaos(scenario, policy, plan,
                                   timeouts=timeouts, **kwargs)
        # unfaulted twin for resilience scoring (fresh policy: the faulted
        # SLATE instance has learned state from its own run)
        twin_policy = SlatePolicy(
            GlobalControllerConfig(rho_max=0.95, learn_profiles=False),
            adaptive=True)
        baseline = run_chaos(scenario, twin_policy, timeouts=timeouts)
        return out, baseline

    results, baseline = benchmark.pedantic(run_all, rounds=1, iterations=1)

    metrics = {}
    rows = []
    for label, result in results.items():
        fault_p95 = _fault_window_p95(result)
        failed = sum(1 for _, lat in result.samples if lat is None)
        metrics[f"{label}_fault_p95_ms"] = fault_p95 * 1000
        metrics[f"{label}_failed"] = failed
        metrics[f"{label}_hung"] = result.hung_requests
        metrics[f"{label}_egress_cost"] = result.egress_cost
        rows.append([label, fault_p95 * 1000, failed, result.hung_requests,
                     result.egress_cost])

    slate = results["slate_fallback"]
    resilience = slate.resilience(baseline)
    outage = next(e for e in resilience.episodes
                  if e.kind == "ControlPlaneOutage")
    assert slate.fallback_trips, "stale-rule guard never tripped"
    assert outage.detection_seconds is not None
    metrics["slate_detection_seconds"] = outage.detection_seconds
    metrics["slate_recovery_seconds"] = outage.recovery_seconds
    metrics["slate_reconciliations"] = sum(
        c.reconciliations for c in slate.controllers.values())

    text = format_table(
        ["policy", "fault p95 (ms)", "failed", "hung", "egress ($)"], rows,
        title=f"Chaos campaign: outage+partition "
              f"[{_FAULT_START:g}s, {_FAULT_START + _FAULT_DURATION:g}s)")
    report_sink("chaos_campaign", text)
    if benchmark.stats is not None:
        metrics["campaign_wall_seconds"] = benchmark.stats.stats.mean
    bench_json("chaos", metrics)
