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
from ..obs.config import Observability
from ..sim.apps import AppSpec
from ..sim.runner import MeshSimulation
from ..sim.topology import DeploymentSpec
from ..sim.workload import DemandMatrix

__all__ = ["Scenario", "ControlLoop", "run_policy", "compare_policies",
           "predict_policy"]


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


def _deliver_all(now: float, reports: list) -> list:
    """A healthy run's report gate: every report arrives, on time."""
    return reports


def _reachable(now: float) -> None:
    """A healthy run's outage probe: the Global Controller always answers."""
    return None


class ControlLoop:
    """One scenario under one policy: the testbed, its Cluster Controllers,
    and the paper's one control loop (§3.2) — proxies → Cluster Controllers
    → Global Controller → rules.

    Every simulated run goes through :meth:`run`, healthy or faulted. A
    faulted run (:func:`repro.chaos.harness.run_chaos`) is this loop with
    armed ``controllers``, ``timeouts`` on the simulation, and three hooks
    handed to :meth:`run`; nothing here knows what a fault is.
    """

    def __init__(self, scenario: Scenario, policy: RoutingPolicy, *,
                 seed: int | None = None,
                 classifier: AppSpecClassifier | None = None,
                 observability=None,
                 controllers: dict[str, ClusterController] | None = None,
                 **simulation_kwargs) -> None:
        self.scenario = scenario
        self.policy = policy
        self.seed = scenario.seed if seed is None else seed
        self.simulation = MeshSimulation(
            scenario.app, scenario.deployment, seed=self.seed,
            classifier=classifier or AppSpecClassifier(scenario.app),
            observability=observability, **simulation_kwargs)
        #: the run's observability runtime; all-off (every call a no-op)
        #: when the simulation carries none
        self.obs = self.simulation.observability or Observability()
        self.ctx = scenario.context()
        self.controllers = controllers or {
            name: ClusterController(name)
            for name in scenario.deployment.cluster_names}

    def run(self, timeline=None, *, gate_reports=_deliver_all,
            outage=_reachable, faults=()) -> PolicyOutcome:
        """Initial plan → distribute → simulate, re-planning every
        ``scenario.epoch`` seconds.

        ``gate_reports(now, reports)`` returns the epoch reports that reach
        the Cluster Controllers; ``outage(now)`` returns None while the
        Global Controller is reachable, else the clusters whose stale-rule
        guard tripped this epoch (§5: the clusters are on their own);
        ``faults`` is the fault timeline whose edges freeze the flight
        recorder.
        """
        scenario, policy, simulation = (
            self.scenario, self.policy, self.simulation)
        obs, ctx, controllers = self.obs, self.ctx, self.controllers
        obs.begin_run(scenario.name, self.seed, policy)
        with obs.section("initial-plan"):
            rules = policy.compute_rules(ctx)
        for controller in controllers.values():
            controller.distribute(rules, simulation.table)
        obs.seed_rules(simulation.table)

        def on_epoch(reports, sim) -> None:
            with obs.section("epoch"):
                now = sim.sim.now
                relayed = []
                for report in gate_reports(now, reports):
                    controller = controllers[report.cluster]
                    controller.ingest(report)
                    relayed.extend(controller.relay())
                # during an outage the relayed reports are lost; clusters
                # notice only through the age of their rules
                tripped = outage(now)
                update = None
                if tripped is None:
                    update = policy.on_epoch(relayed, ctx)
                    for controller in controllers.values():
                        # every reachable epoch is a successful GC contact,
                        # even when there was nothing new to ship
                        controller.touch(now)
                    if update is not None:
                        for controller in controllers.values():
                            controller.distribute(update, sim.table, now=now)
                obs.record_epoch(now, getattr(policy, "controller", None),
                                 update, relayed, sim.table,
                                 outage=tripped, faults=faults)

        hook = on_epoch if scenario.epoch else None
        try:
            if timeline is not None:
                simulation.run_timeline(timeline, epoch=scenario.epoch,
                                        on_epoch=hook)
            else:
                simulation.run(scenario.demand, scenario.duration,
                               epoch=scenario.epoch, on_epoch=hook)
        except InvariantViolation as error:
            obs.record_invariant_failure(simulation.sim.now, error)
            raise
        obs.end_run(simulation, getattr(policy, "controller", None), faults)

        return PolicyOutcome(
            policy=policy.name,
            latencies=simulation.telemetry.latencies(after=scenario.warmup),
            egress_bytes=simulation.network.ledger.total_bytes,
            egress_cost=simulation.network.ledger.total_cost,
            latencies_by_class=simulation.telemetry.latencies_by_class(
                after=scenario.warmup),
        )


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
    fidelity_kwargs = {"fidelity": fidelity}
    if sample_rate is not None:
        fidelity_kwargs["sample_rate"] = sample_rate
    if fluid_tick is not None:
        fidelity_kwargs["fluid_tick"] = fluid_tick
    return ControlLoop(scenario, policy, seed=seed, classifier=classifier,
                       observability=observability,
                       **fidelity_kwargs).run(timeline)


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
