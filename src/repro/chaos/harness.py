"""Chaos-aware experiment harness: run a scenario under a fault campaign.

:func:`run_chaos` is :func:`~repro.experiments.harness.run_policy` with
faults: the same :class:`~repro.experiments.harness.ControlLoop`, to which
it supplies only what chaos alone knows —

* a :class:`~repro.chaos.inject.ChaosRuntime` compiling the
  :class:`~repro.chaos.plan.FaultPlan` onto the simulation before it
  starts, and ``timeouts`` so blackholed calls can retry;
* Cluster Controllers armed with ``max_rule_age`` + a fallback policy;
* three hooks into the loop: the runtime's telemetry gate (drop/delay
  faults) in front of the Cluster Controllers; controller availability —
  during a control-plane outage the policy is not consulted, the clusters
  keep the rules they hold, and the stale-rule guard trips (§5) until the
  controller returns and reconciles; and the fault timeline, whose edges
  freeze the provenance flight recorder.

With an empty plan and the guard disarmed every hook is a no-op and the
run is byte-identical to :func:`run_policy` on the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.compare import PolicyOutcome
from ..baselines.locality import LocalityFailoverPolicy
from ..baselines.waterfall import WaterfallConfig, WaterfallPolicy
from ..core.classes.classifier import AppSpecClassifier
from ..core.controller.cluster_controller import ClusterController
from ..experiments.harness import ControlLoop, Scenario
from ..sim.runner import TimeoutPolicy
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
        """Control-plane reactions: guard trips + re-plans on moved
        demand (a plan of unchanged quantized demand is no reaction)."""
        signals = list(self.fallback_trips)
        if self.decisions is not None:
            signals.extend(d.sim_time for d in self.decisions
                           if d.outcome == "solved" and d.demand_delta > 0)
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
    fallback_policy = make_fallback(fallback, scenario)
    loop = ControlLoop(
        scenario, policy, seed=seed, classifier=classifier,
        observability=observability, timeouts=timeouts,
        controllers={
            name: ClusterController(name, max_rule_age=max_rule_age,
                                    fallback=fallback_policy)
            for name in scenario.deployment.cluster_names})
    simulation = loop.simulation
    chaos = ChaosRuntime(simulation,
                         plan if plan is not None else FaultPlan.empty())

    def outage(now: float) -> tuple | None:
        """None while the Global Controller answers; during an outage, the
        clusters whose stale-rule guard trips at this epoch."""
        if chaos.controller_available(now):
            return None
        return tuple(
            name for name, controller in loop.controllers.items()
            if controller.check_staleness(now, simulation.table, loop.ctx))

    outcome = loop.run(timeline, gate_reports=chaos.gate_reports,
                       outage=outage, faults=chaos.timeline)

    samples: list[tuple[float, float | None]] = []
    for request in simulation.telemetry.requests:
        if request.done:
            samples.append((request.arrival_time, request.latency))
    for request in simulation.telemetry.failed_requests:
        samples.append((request.arrival_time, None))
    samples.sort(key=lambda item: (item[0], item[1] is None))

    obs = loop.obs
    return ChaosRunResult(
        scenario=scenario.name,
        policy=policy.name,
        outcome=outcome,
        samples=samples,
        chaos=chaos,
        controllers=loop.controllers,
        decisions=obs.decisions,
        egress_cost=outcome.egress_cost,
        hung_requests=sum(gateway.open_requests
                          for gateway in simulation.gateways.values()),
        anomalies=obs.anomaly.log if obs.anomaly is not None else None,
    )
