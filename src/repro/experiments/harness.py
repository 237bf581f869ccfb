"""Experiment harness: run a scenario under each policy, collect outcomes.

One :class:`Scenario` bundles everything a paper experiment fixes (app,
deployment, demand, run length); :func:`run_policy` executes it under one
routing policy in the simulator, and :func:`compare_policies` produces the
:class:`~repro.analysis.compare.Comparison` behind each figure.

Control-plane fidelity: rules flow through per-cluster
:class:`~repro.core.controller.ClusterController` objects (each installs
only its own cluster's rules), and adaptive policies receive epoch telemetry
relayed the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..analysis.compare import Comparison, PolicyOutcome
from ..analysis.fluid import FluidPrediction, evaluate_rules
from ..baselines.base import PolicyContext, RoutingPolicy
from ..core.classes.classifier import AppSpecClassifier
from ..core.controller.cluster_controller import ClusterController
from ..devtools.invariants import InvariantViolation
from ..sim.apps import AppSpec
from ..sim.runner import MeshSimulation
from ..sim.topology import DeploymentSpec
from ..sim.workload import DemandMatrix

__all__ = ["Scenario", "run_policy", "compare_policies", "predict_policy"]


@dataclass
class Scenario:
    """A fully specified experiment."""

    name: str
    app: AppSpec
    deployment: DeploymentSpec
    demand: DemandMatrix
    duration: float = 30.0
    warmup: float = 5.0
    seed: int = 42
    #: re-plan period for adaptive policies; None = static rules only
    epoch: float | None = None

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("duration must be > 0")
        if not 0 <= self.warmup < self.duration:
            raise ValueError("warmup must be in [0, duration)")

    def context(self) -> PolicyContext:
        return PolicyContext(self.app, self.deployment, self.demand)

    def with_demand(self, demand: DemandMatrix) -> "Scenario":
        return replace(self, demand=demand)


def run_policy(scenario: Scenario, policy: RoutingPolicy,
               seed: int | None = None,
               classifier: AppSpecClassifier | None = None,
               observability=None,
               timeline=None,
               fidelity: str = "event",
               sample_rate: float | None = None,
               fluid_tick: float | None = None) -> PolicyOutcome:
    """Simulate one scenario under one policy.

    ``classifier`` lets sweep callers build the (stateless)
    :class:`AppSpecClassifier` once per scenario instead of once per run —
    see :func:`compare_policies`, which reuses it across policies.

    ``observability`` accepts an
    :class:`~repro.obs.config.ObservabilityConfig` (or a prebuilt
    :class:`~repro.obs.config.Observability`): traces/metrics/decision-log/
    profiling for the run, all off by default. ``timeline`` (a
    :class:`~repro.sim.traces.DemandTimeline`) replaces the scenario's
    constant demand matrix with time-varying sources — the controller
    dynamics the decision log exists to show.

    ``fidelity`` selects how demand is realised: ``"event"`` (per-request
    simulation, the default), ``"fluid"`` (bulk flow rates only — scales
    to millions of simulated RPS but yields no per-request latencies), or
    ``"hybrid"`` (bulk flow plus a ``sample_rate`` slice of real requests
    whose latencies populate the outcome). ``sample_rate`` and
    ``fluid_tick`` override the simulator defaults when given.
    """
    from ..obs.config import Observability
    obs = Observability.coerce(observability)
    fidelity_kwargs = {}
    if fidelity != "event":
        fidelity_kwargs["fidelity"] = fidelity
        if sample_rate is not None:
            fidelity_kwargs["sample_rate"] = sample_rate
        if fluid_tick is not None:
            fidelity_kwargs["fluid_tick"] = fluid_tick
    simulation = MeshSimulation(
        scenario.app, scenario.deployment,
        seed=scenario.seed if seed is None else seed,
        classifier=classifier or AppSpecClassifier(scenario.app),
        observability=obs,
        **fidelity_kwargs,
    )
    obs = simulation.observability   # post-coercion runtime (or None)
    profiler = obs.profiler if obs is not None else None
    decision_log = obs.decisions if obs is not None else None
    provenance = obs.provenance if obs is not None else None
    ctx = scenario.context()
    controllers = {name: ClusterController(name)
                   for name in scenario.deployment.cluster_names}

    # route optimizer build/solve timings into the profiler (policies that
    # don't expose the hook — baselines — simply aren't profiled per-phase)
    if profiler is not None and hasattr(policy, "attach_profiler"):
        policy.attach_profiler(profiler)
    if provenance is not None:
        provenance.bind_run(scenario.name,
                            scenario.seed if seed is None else seed,
                            policy=policy.name)
        if hasattr(policy, "attach_provenance"):
            policy.attach_provenance(provenance)

    if profiler is not None:
        with profiler.section("initial-plan"):
            rules = policy.compute_rules(ctx)
    else:
        rules = policy.compute_rules(ctx)
    for controller in controllers.values():
        controller.distribute(rules, simulation.table)
    if decision_log is not None:
        decision_log.seed_rules(simulation.table.rules())
    if provenance is not None:
        provenance.seed_rules(simulation.table.rules())

    def epoch_body(reports, sim) -> None:
        relayed = []
        for report in reports:
            controller = controllers[report.cluster]
            controller.ingest(report)
            relayed.extend(controller.relay())
        update = policy.on_epoch(relayed, ctx)
        now = sim.sim.now
        for controller in controllers.values():
            # healthy run: every epoch is a successful GC contact, so the
            # (optional) staleness guard shares one audit trail with chaos
            controller.touch(now)
        if update is not None:
            for controller in controllers.values():
                controller.distribute(update, sim.table, now=now)
        if decision_log is not None:
            global_controller = getattr(policy, "controller", None)
            if global_controller is not None:
                decision_log.record(sim.sim.now, global_controller, update)
        if provenance is not None:
            provenance.record_epoch(
                now, controller=getattr(policy, "controller", None),
                update=update, reports=relayed, rules=sim.table.rules())
            if obs.alerts is not None:
                provenance.check_alerts(now, obs.alerts)
            if obs.anomaly is not None:
                provenance.check_anomalies(now, obs.anomaly.log)
            if obs.breach is not None:
                provenance.check_predictions(now, obs.breach)

    def on_epoch(reports, sim) -> None:
        if profiler is not None:
            with profiler.section("epoch"):
                epoch_body(reports, sim)
        else:
            epoch_body(reports, sim)

    try:
        if timeline is not None:
            simulation.run_timeline(
                timeline, epoch=scenario.epoch,
                on_epoch=on_epoch if scenario.epoch else None)
        else:
            simulation.run(scenario.demand, scenario.duration,
                           epoch=scenario.epoch,
                           on_epoch=on_epoch if scenario.epoch else None)
    except InvariantViolation as error:
        # a runtime-invariant failure is an anomaly trigger: freeze the
        # flight recorder before the exception unwinds the run
        if provenance is not None:
            provenance.record_anomaly(simulation.sim.now, "invariant",
                                      {"error": str(error)})
        raise

    if provenance is not None:
        provenance.finalize(simulation.sim.now)
    if obs is not None:
        obs.collect(simulation, getattr(policy, "controller", None))

    return PolicyOutcome(
        policy=policy.name,
        latencies=simulation.telemetry.latencies(after=scenario.warmup),
        egress_bytes=simulation.network.ledger.total_bytes,
        egress_cost=simulation.network.ledger.total_cost,
        latencies_by_class=simulation.telemetry.latencies_by_class(
            after=scenario.warmup),
    )


def compare_policies(scenario: Scenario,
                     policies: list[RoutingPolicy],
                     executor=None) -> Comparison:
    """Run every policy on the scenario with identical seeds.

    ``executor`` (a :class:`~repro.experiments.parallel.SweepExecutor`)
    fans the per-policy runs out over worker processes; outcomes are
    byte-identical to the serial path because each run is a pure function
    of (scenario, policy, seed) and results keep submission order.
    """
    if executor is not None and executor.workers > 1:
        return executor.compare(scenario, policies)
    comparison = Comparison(scenario.name)
    classifier = AppSpecClassifier(scenario.app)
    for policy in policies:
        comparison.add(run_policy(scenario, policy, classifier=classifier))
    return comparison


def predict_policy(scenario: Scenario,
                   policy: RoutingPolicy) -> FluidPrediction:
    """Analytic (fluid-model) evaluation — no simulation."""
    rules = policy.compute_rules(scenario.context())
    return evaluate_rules(scenario.app, scenario.deployment,
                          scenario.demand, rules)
