"""Chaos-aware experiment harness: run a scenario under a fault campaign.

:func:`run_chaos` is the fault-injecting sibling of
:func:`~repro.experiments.harness.run_policy`. It runs the same epoch
control loop, but:

* a :class:`~repro.chaos.inject.ChaosRuntime` compiles the
  :class:`~repro.chaos.plan.FaultPlan` onto the simulation before it
  starts;
* epoch reports pass through the runtime's telemetry gate (drop/delay
  faults) before they reach the policy;
* the policy is only consulted while :meth:`controller_available` — a
  control-plane outage freezes whatever rules the clusters hold;
* Cluster Controllers can be armed with ``max_rule_age`` + a fallback
  policy, so the stale-rule guard trips during outages (§5) and
  reconciles when the controller returns.

With an empty plan and the guard disarmed every branch above is a no-op
and the run is byte-identical to :func:`run_policy` on the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.compare import PolicyOutcome
from ..baselines.locality import LocalityFailoverPolicy
from ..baselines.waterfall import WaterfallConfig, WaterfallPolicy
from ..core.classes.classifier import AppSpecClassifier
from ..core.controller.cluster_controller import ClusterController
from ..experiments.harness import Scenario
from ..sim.runner import MeshSimulation, TimeoutPolicy
from .inject import ChaosRuntime
from .plan import FaultPlan
from .report import ResilienceReport, compute_resilience

__all__ = ["ChaosRunResult", "run_chaos", "make_fallback"]


def make_fallback(kind, scenario: Scenario):
    """Resolve a fallback spec: None, "locality", "waterfall", or a policy."""
    if kind is None or not isinstance(kind, str):
        return kind
    if kind == "locality":
        return LocalityFailoverPolicy()
    if kind == "waterfall":
        config = WaterfallConfig.from_deployment(scenario.app,
                                                 scenario.deployment)
        return WaterfallPolicy(config)
    raise ValueError(f"unknown fallback {kind!r} "
                     f"(expected 'locality', 'waterfall', or a policy)")


@dataclass
class ChaosRunResult:
    """Everything a faulted run produced, ready for resilience scoring."""

    scenario: str
    policy: str
    outcome: PolicyOutcome
    #: (arrival_time, latency) pairs; latency None == failed request
    samples: list[tuple[float, float | None]] = field(repr=False,
                                                      default_factory=list)
    chaos: ChaosRuntime | None = None
    controllers: dict[str, ClusterController] = field(default_factory=dict)
    decisions: object = None
    egress_cost: float = 0.0
    #: requests still open at quiesce (e.g. blackholed by a partition)
    hung_requests: int = 0
    #: the run's AnomalyLog when ObservabilityConfig(anomaly=True)
    anomalies: object = None

    @property
    def fallback_trips(self) -> list[float]:
        """Sim times at which any cluster's stale-rule guard tripped."""
        return sorted(c.fallback_tripped_at for c in self.controllers.values()
                      if c.fallback_tripped_at is not None)

    def detection_signals(self) -> list[float]:
        """Control-plane reactions: guard trips + fresh re-plans."""
        signals = list(self.fallback_trips)
        if self.decisions is not None:
            signals.extend(d.sim_time for d in self.decisions
                           if d.outcome == "solved")
        return sorted(signals)

    def anomaly_signals(self) -> list[float]:
        """Anomaly-detector firings, ascending (empty when pillar off)."""
        if self.anomalies is None:
            return []
        return self.anomalies.times()

    def resilience(self, baseline: "ChaosRunResult", *, band: float = 1.5,
                   window: float = 2.0) -> ResilienceReport:
        """Score this run's fault timeline against an unfaulted twin."""
        timeline = self.chaos.timeline if self.chaos is not None else []
        return compute_resilience(
            timeline, self.samples, baseline.samples,
            self.detection_signals(), self.egress_cost,
            baseline.egress_cost, band=band, window=window,
            anomaly_signals=self.anomaly_signals())


def run_chaos(scenario: Scenario, policy, plan: FaultPlan | None = None,
              *, fallback=None, max_rule_age: float | None = None,
              seed: int | None = None, observability=None,
              timeline=None, timeouts: TimeoutPolicy | None = None,
              classifier: AppSpecClassifier | None = None) -> ChaosRunResult:
    """Simulate one scenario under one policy and one fault campaign.

    ``fallback`` is ``"locality"``, ``"waterfall"``, a policy object, or
    None; together with ``max_rule_age`` it arms every Cluster
    Controller's stale-rule guard. ``timeouts`` (a
    :class:`~repro.sim.runner.TimeoutPolicy`) gives requests a retry path
    when a partition blackholes their calls.
    """
    from ..obs.config import Observability
    plan = plan if plan is not None else FaultPlan.empty()
    obs = Observability.coerce(observability)
    simulation = MeshSimulation(
        scenario.app, scenario.deployment,
        seed=scenario.seed if seed is None else seed,
        classifier=classifier or AppSpecClassifier(scenario.app),
        observability=obs,
        timeouts=timeouts,
    )
    obs = simulation.observability
    decision_log = obs.decisions if obs is not None else None
    provenance = obs.provenance if obs is not None else None
    chaos = ChaosRuntime(simulation, plan)
    ctx = scenario.context()
    fallback_policy = make_fallback(fallback, scenario)
    controllers = {
        name: ClusterController(name, max_rule_age=max_rule_age,
                                fallback=fallback_policy)
        for name in scenario.deployment.cluster_names
    }

    rules = policy.compute_rules(ctx)
    for controller in controllers.values():
        controller.distribute(rules, simulation.table)

    if decision_log is not None:
        decision_log.seed_rules(simulation.table.rules())
    if provenance is not None:
        provenance.bind_run(scenario.name,
                            scenario.seed if seed is None else seed,
                            policy=policy.name)
        provenance.seed_rules(simulation.table.rules())
        if hasattr(policy, "attach_provenance"):
            policy.attach_provenance(provenance)

    def on_epoch(reports, sim) -> None:
        now = sim.sim.now
        reports = chaos.gate_reports(now, reports)
        relayed = []
        for report in reports:
            controller = controllers[report.cluster]
            controller.ingest(report)
            relayed.extend(controller.relay())
        if chaos.controller_available(now):
            update = policy.on_epoch(relayed, ctx)
            for controller in controllers.values():
                controller.touch(now)
            if update is not None:
                for controller in controllers.values():
                    controller.distribute(update, sim.table, now=now)
            if decision_log is not None:
                global_controller = getattr(policy, "controller", None)
                if global_controller is not None:
                    decision_log.record(now, global_controller, update)
            if provenance is not None:
                provenance.record_epoch(
                    now, controller=getattr(policy, "controller", None),
                    update=update, reports=relayed,
                    rules=sim.table.rules())
        else:
            # reports relayed into a dead controller are lost; clusters
            # notice only through the age of their rules
            tripped = [name for name, controller in controllers.items()
                       if controller.check_staleness(now, sim.table, ctx)]
            if provenance is not None:
                # outage epochs still chain: the record captures the
                # fallback installs the dead controller never saw
                provenance.record_epoch(
                    now, controller=getattr(policy, "controller", None),
                    update=None, reports=relayed, rules=sim.table.rules(),
                    outcome="outage", fallback=tuple(tripped))
        if provenance is not None:
            if obs.alerts is not None:
                provenance.check_alerts(now, obs.alerts)
            if obs.anomaly is not None:
                provenance.check_anomalies(now, obs.anomaly.log)
            if obs.breach is not None:
                provenance.check_predictions(now, obs.breach)
            provenance.check_faults(now, chaos.timeline)

    if timeline is not None:
        simulation.run_timeline(timeline, epoch=scenario.epoch,
                                on_epoch=on_epoch if scenario.epoch else None)
    else:
        simulation.run(scenario.demand, scenario.duration,
                       epoch=scenario.epoch,
                       on_epoch=on_epoch if scenario.epoch else None)

    if provenance is not None:
        provenance.check_faults(simulation.sim.now, chaos.timeline)
        provenance.finalize(simulation.sim.now)
    if obs is not None:
        obs.collect(simulation, getattr(policy, "controller", None))

    samples: list[tuple[float, float | None]] = []
    for request in simulation.telemetry.requests:
        if request.done:
            samples.append((request.arrival_time, request.latency))
    for request in simulation.telemetry.failed_requests:
        samples.append((request.arrival_time, None))
    samples.sort(key=lambda item: (item[0], item[1] is None))

    outcome = PolicyOutcome(
        policy=policy.name,
        latencies=simulation.telemetry.latencies(after=scenario.warmup),
        egress_bytes=simulation.network.ledger.total_bytes,
        egress_cost=simulation.network.ledger.total_cost,
        latencies_by_class=simulation.telemetry.latencies_by_class(
            after=scenario.warmup),
    )
    hung = sum(gateway.open_requests
               for gateway in simulation.gateways.values())
    return ChaosRunResult(
        scenario=scenario.name,
        policy=policy.name,
        outcome=outcome,
        samples=samples,
        chaos=chaos,
        controllers=controllers,
        decisions=decision_log,
        egress_cost=simulation.network.ledger.total_cost,
        hung_requests=hung,
        anomalies=obs.anomaly.log if obs is not None
        and obs.anomaly is not None else None,
    )
