"""The five workloads: what each sets up, runs per round, and checks.

A workload object is built once per process with the run seed. ``setup()``
constructs the scenario and pays one short untimed warm-up; ``round()``
runs the timed unit of work from fresh simulator/controller state and
returns a :class:`Round` — wall time, workload-level readings, a digest of
everything simulated, and any failed output check. Sizes are fixed here
(``full``); ``smoke`` shrinks them for the package's own test.
"""

from __future__ import annotations

import hashlib
import struct
import time
from dataclasses import dataclass, field

from repro.core.classes.classifier import AppSpecClassifier
from repro.core.controller.cluster_controller import ClusterController
from repro.core.controller.global_controller import (GlobalController,
                                                     GlobalControllerConfig)
from repro.core.controller.policy import SlatePolicy
from repro.core.optimizer.warm import EpochSolver
from repro.experiments import harness
from repro.experiments.scenarios import fig6b_which_cluster
from repro.mesh.routing_table import RoutingTable
from repro.obs.config import Observability, ObservabilityConfig
from repro.obs.timeseries import percentile
from repro.sim.rng import RngRegistry
from repro.sim.runner import MeshSimulation

from .inputs import epoch_reports, phased_diurnal, synthetic_mesh

__all__ = ["Round", "WORKLOAD_TYPES"]

_clock = time.perf_counter

#: relative tolerance of the warm/replay-vs-cold objective check
OBJECTIVE_TOLERANCE = 1e-9
#: seeded epochs per control round re-solved cold for that check
VERIFIED_EPOCHS = 5


@dataclass
class Round:
    """One timed round's measurements."""

    wall_s: float
    digest: str
    attempted: int
    failed: int
    #: first plan of this round's fresh controller/policy, seconds
    cold_plan_s: float
    #: mean latency of the modelled system, ms (simulated or predicted)
    latency_mean_ms: float
    #: workload-level readings under the issue's metric names
    readings: dict[str, float] = field(default_factory=dict)
    #: steady-epoch latencies, ms
    epoch_ms: list[float] = field(default_factory=list)
    #: output checks that failed, human readable
    problems: list[str] = field(default_factory=list)


def _digest(*parts) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        if isinstance(part, (list, tuple)) and part and isinstance(
                part[0], float):
            hasher.update(struct.pack(f"<{len(part)}d", *part))
        else:
            hasher.update(repr(part).encode())
    return hasher.hexdigest()


def _table_rows(rules: dict) -> list:
    return sorted((repr(key), sorted(weights.items()))
                  for key, weights in rules.items())


def _check_rows(rules: dict, problems: list[str]) -> None:
    bad = [repr(key) for key, weights in rules.items()
           if abs(sum(weights.values()) - 1.0) > 1e-9]
    if bad:
        problems.append(f"{len(bad)} rule rows do not sum to 1: {bad[:3]}")


def _latency_readings(latencies: list[float], egress_bytes: int,
                      settled: int) -> dict[str, float]:
    return {
        "sim_latency_mean_ms": 1e3 * sum(latencies) / len(latencies),
        "sim_latency_p99_ms": 1e3 * percentile(latencies, 0.99),
        "sim_latency_samples": len(latencies),
        "sim_egress_gb": egress_bytes / 1e9,
        "sim_requests": settled,
    }


def _mean_predicted_ms(predicted: list[float]) -> float:
    return 1e3 * sum(predicted) / len(predicted)


# ------------------------------------------------------------- mesh_event

class MeshEvent:
    """Fig. 6b at event fidelity under static SLATE rules."""

    name = "mesh_event"
    setup_repeats = 5
    rounds = 3
    SIZES = {"full": dict(duration=30.0, warmup=6.0, warm_run=1.0),
             "smoke": dict(duration=2.5, warmup=0.5, warm_run=0.25)}

    def __init__(self, seed: int, scale: str) -> None:
        self.seed = seed
        self.size = self.SIZES[scale]

    def setup(self) -> None:
        figure = fig6b_which_cluster(duration=self.size["duration"],
                                     seed=self.seed)
        self.scenario = figure.scenario
        started = _clock()
        self.plan = GlobalController.oracle(
            self.scenario.app, self.scenario.deployment,
            self.scenario.demand, rho_max=figure.slate.config.rho_max)
        self.rules = self.plan.rules()
        self.cold_plan_s = _clock() - started
        self._simulate(self.size["warm_run"])

    def _simulate(self, duration: float) -> MeshSimulation:
        scenario = self.scenario
        simulation = MeshSimulation(
            scenario.app, scenario.deployment, seed=self.seed,
            classifier=AppSpecClassifier(scenario.app))
        for name in scenario.deployment.cluster_names:
            ClusterController(name).distribute(self.rules, simulation.table)
        simulation.run(scenario.demand, duration)
        return simulation

    def round(self, verify: bool = True) -> Round:
        started = _clock()
        simulation = self._simulate(self.size["duration"])
        wall_s = _clock() - started
        gateways = simulation.gateways.values()
        admitted = sum(g.admitted_count for g in gateways)
        completed = sum(g.completed_count for g in gateways)
        failed = sum(g.failed_count for g in gateways)
        still_open = sum(g.open_requests for g in gateways)
        problems: list[str] = []
        if admitted != completed + failed or still_open:
            problems.append(
                f"gateway conservation: admitted={admitted} completed="
                f"{completed} failed={failed} open={still_open}")
        if not self.plan.ok:
            problems.append(f"oracle plan not optimal: {self.plan.status}")
        rules = simulation.table.rules()
        _check_rows(rules, problems)
        latencies = simulation.telemetry.latencies(
            after=self.size["warmup"])
        egress = simulation.network.ledger.total_bytes
        readings = _latency_readings(latencies, egress, completed + failed)
        readings["plan_pred_latency_ms"] = (
            1e3 * self.plan.predicted_mean_latency)
        return Round(
            wall_s=wall_s,
            digest=_digest(sorted(latencies), egress,
                           (admitted, completed, failed),
                           _table_rows(rules)),
            attempted=admitted, failed=failed + still_open,
            cold_plan_s=self.cold_plan_s,
            latency_mean_ms=readings["sim_latency_mean_ms"],
            readings=readings, problems=problems)


# ------------------------------------------ harness-driven (hybrid) runs

class _TimedSlate(SlatePolicy):
    """SlatePolicy that keeps the wall time of each plan it makes."""

    def __init__(self, config: GlobalControllerConfig) -> None:
        super().__init__(config, adaptive=True)
        self.initial_plan_s = 0.0
        self.epoch_ms: list[float] = []
        self.predicted: list[float] = []
        self.not_optimal = 0

    def compute_rules(self, ctx):
        started = _clock()
        rules = super().compute_rules(ctx)
        self.initial_plan_s = _clock() - started
        return rules

    def on_epoch(self, reports, ctx):
        started = _clock()
        rules = super().on_epoch(reports, ctx)
        self.epoch_ms.append(1e3 * (_clock() - started))
        result = self.controller.last_result
        if result is not None:
            self.predicted.append(result.predicted_mean_latency)
            self.not_optimal += not result.ok
        return rules


class _HarnessWorkload:
    """A diurnal hybrid-fidelity run through ``harness.run_policy``.

    ``run_policy`` keeps the simulation to itself, so gateway conservation
    is read back through the metrics registry of the ``Observability``
    runtime this workload hands in (an end-of-run snapshot — nothing on the
    per-request path).
    """

    setup_repeats = 3
    rounds = 3
    SAMPLE_RATE = 4e-4
    FLUID_TICK = 0.1
    EPOCHS = 12

    def __init__(self, seed: int, scale: str) -> None:
        self.seed = seed
        self.size = self.SIZES[scale]

    def setup(self) -> None:
        size = self.size
        self.mesh = synthetic_mesh(
            size["clusters"], size["services"], size["classes"],
            size["rps"], size["headroom"], size.get("ingresses"))
        self.cold_plan_s = self._run(size["warm_run"], epochs=2).cold_plan_s

    def _run(self, duration: float, epochs: int) -> Round:
        mesh = self.mesh
        scenario = harness.Scenario(
            self.name, mesh.app, mesh.deployment, mesh.demand,
            duration=duration, warmup=duration / 6, seed=self.seed,
            epoch=duration / epochs)
        policy = _TimedSlate(self.CONFIG)
        obs = Observability(self.OBSERVABILITY)
        started = _clock()
        outcome = harness.run_policy(
            scenario, policy, timeline=phased_diurnal(mesh, duration),
            fidelity="hybrid", sample_rate=self.SAMPLE_RATE,
            fluid_tick=self.FLUID_TICK, observability=obs)
        wall_s = _clock() - started

        def total(metric: str) -> int:
            series = obs.metrics.get(metric)
            return int(sum(series.value(cluster=name)
                           for name in mesh.deployment.cluster_names))

        admitted = total("gateway_admitted_total")
        completed = total("gateway_completed_total")
        failed = total("gateway_failed_total")
        still_open = total("gateway_open_requests")
        problems: list[str] = []
        if admitted != completed + failed or still_open:
            problems.append(
                f"gateway conservation: admitted={admitted} completed="
                f"{completed} failed={failed} open={still_open}")
        if policy.not_optimal:
            problems.append(f"{policy.not_optimal} epochs not optimal")
        controller = policy.controller
        rules = controller.rules().by_key()
        _check_rows(rules, problems)
        self._check(policy, outcome, duration, problems)
        readings = _latency_readings(outcome.latencies, outcome.egress_bytes,
                                     completed + failed)
        readings["plan_pred_latency_ms"] = _mean_predicted_ms(
            policy.predicted)
        return Round(
            wall_s=wall_s,
            digest=_digest(sorted(outcome.latencies), outcome.egress_bytes,
                           (admitted, completed, failed), policy.predicted,
                           _table_rows(rules)),
            attempted=admitted + len(policy.epoch_ms),
            failed=failed + still_open + policy.not_optimal,
            cold_plan_s=policy.initial_plan_s,
            latency_mean_ms=readings["sim_latency_mean_ms"],
            # the first on_epoch builds the controller and plans cold;
            # steady samples start after it
            readings=readings, epoch_ms=policy.epoch_ms[1:],
            problems=problems)

    def _check(self, policy, outcome, duration, problems) -> None:
        """Workload-specific output checks."""

    def round(self, verify: bool = True) -> Round:
        return self._run(self.size["duration"], self.EPOCHS)


class FluidDay1M(_HarnessWorkload):
    """1M RPS diurnal day, dense classes, adaptive arc controller."""

    name = "fluid_day_1m"
    CONFIG = GlobalControllerConfig(learn_profiles=False)
    OBSERVABILITY = ObservabilityConfig(metrics=True)
    SIZES = {
        "full": dict(clusters=8, services=4, classes=32, rps=1.0e6,
                     headroom=2.5, duration=36.0, warm_run=1.0),
        "smoke": dict(clusters=4, services=3, classes=6, rps=1.0e5,
                      headroom=2.5, duration=2.4, warm_run=0.4),
    }


class ClosedLoop(_HarnessWorkload):
    """Every layer live: path controller x hybrid substrate x obs."""

    name = "closed_loop"
    rounds = 2
    CONFIG = GlobalControllerConfig(learn_profiles=False, formulation="path",
                                    path_k=4, path_prune_limit=6)
    OBSERVABILITY = ObservabilityConfig(decisions=True, timeseries=True,
                                        provenance=True, profiling=True,
                                        metrics=True)
    SIZES = {
        "full": dict(clusters=24, services=4, classes=96, ingresses=2,
                     rps=1.0e6, headroom=2.5, duration=18.0, warm_run=1.0,
                     min_sampled=3000),
        "smoke": dict(clusters=6, services=3, classes=12, ingresses=2,
                      rps=1.0e5, headroom=4.0, duration=2.4, warm_run=0.4,
                      min_sampled=20),
    }

    def _check(self, policy, outcome, duration, problems) -> None:
        if duration < self.size["duration"]:
            return   # the warm-up run is too short to sample much
        solver = policy.controller.epoch_solver
        if solver.formulation != "path" or not solver.last_candidate_stats:
            problems.append("controller did not plan with path candidates")
        if not len(policy.controller.rules()):
            problems.append("no path-formulation rules were installed")
        if len(outcome.latencies) < self.size["min_sampled"]:
            problems.append(
                f"only {len(outcome.latencies)} sampled requests settled "
                f"(need {self.size['min_sampled']})")


# ------------------------------------------------- control plane only

class _ControlWorkload:
    """One GlobalController fed synthesised reports: 1 cold + N epochs.

    An epoch is what the real Global Controller does between two report
    deliveries — ``observe`` → ``plan`` → ``rules()`` → ``distribute`` into
    the routing table — issued closed-loop: epoch *n+1* starts when epoch
    *n* returns.
    """

    setup_repeats = 3
    rounds = 3
    EPOCH_SECONDS = 10.0
    #: every Nth epoch repeats the previous report exactly (None: never)
    REPEAT_EVERY: int | None = None
    #: toggle one replica count before every epoch
    CHURN = False

    def __init__(self, seed: int, scale: str) -> None:
        self.seed = seed
        self.size = self.SIZES[scale]

    def _mesh(self):
        size = self.size
        return synthetic_mesh(
            size["clusters"], size["services"], size["classes"],
            size["rps"], size["headroom"], size.get("ingresses"))

    def setup(self) -> None:
        mesh = self._mesh()
        self.reports = epoch_reports(
            mesh, self.seed, self.size["epochs"] + 1, self.EPOCH_SECONDS,
            self.REPEAT_EVERY)
        picks = RngRegistry(self.seed).stream("bench/verified-epochs")
        self.verified = {int(e) + 1 for e in picks.choice(
            self.size["epochs"], size=min(VERIFIED_EPOCHS,
                                          self.size["epochs"]),
            replace=False)}
        self.cold_plan_s = self._epochs(mesh, 1, verify=False).cold_plan_s

    def round(self, verify: bool = True) -> Round:
        return self._epochs(self._mesh(), self.size["epochs"] + 1, verify)

    def _epochs(self, mesh, n_epochs: int, verify: bool) -> Round:
        controller = GlobalController(mesh.app, mesh.deployment, self.CONFIG)
        solver = controller.epoch_solver
        reference = EpochSolver(
            cache=None, warm_start=False, formulation=solver.formulation,
            path_k=solver.path_k, path_prune_limit=solver.path_prune_limit)
        table = RoutingTable()
        names = mesh.deployment.cluster_names
        distributors = [ClusterController(name) for name in names]
        services = mesh.app.services()
        base = mesh.deployment.replicas(services[0], names[0])
        epoch_ms: list[float] = []
        predicted: list[float] = []
        objectives: list[float] = []
        problems: list[str] = []
        failed = 0
        for e in range(n_epochs):
            if self.CHURN:
                spec = mesh.deployment.cluster(names[e % len(names)])
                service = services[(e // len(names)) % len(services)]
                spec.replicas[service] = (
                    base + 1 if spec.replicas[service] == base else base)
            builds = solver.builds
            started = _clock()
            controller.observe(self.reports[e])
            result = controller.plan()
            rules = result.rules()
            for distributor in distributors:
                distributor.distribute(rules, table,
                                       now=e * self.EPOCH_SECONDS)
            epoch_ms.append(1e3 * (_clock() - started))
            predicted.append(result.predicted_mean_latency)
            objectives.append(result.objective)
            if not result.ok or solver.builds != builds + 1:
                failed += 1   # non-optimal, or the demand-scaling fallback
            if verify and e in self.verified:
                cold = reference.solve(controller.build_problem())
                scale = max(1.0, abs(cold.objective))
                if abs(cold.objective - result.objective) > (
                        OBJECTIVE_TOLERANCE * scale):
                    problems.append(
                        f"epoch {e} ({result.solver_path}) objective "
                        f"{result.objective!r} != cold {cold.objective!r}")
        if failed:
            problems.append(f"{failed} epochs non-optimal or scaled down")
        final_rules = table.rules()
        _check_rows(final_rules, problems)
        readings = {"plan_pred_latency_ms": _mean_predicted_ms(
            predicted[1:] or predicted)}
        return Round(
            wall_s=sum(epoch_ms) / 1e3,
            digest=_digest(predicted, objectives, _table_rows(final_rules)),
            attempted=n_epochs, failed=failed,
            cold_plan_s=epoch_ms[0] / 1e3,
            latency_mean_ms=readings["plan_pred_latency_ms"],
            readings=readings, epoch_ms=epoch_ms[1:], problems=problems)


class CtlSteadyPath(_ControlWorkload):
    """The reuse ladder at planet-ish scale, path formulation."""

    name = "ctl_steady_path"
    REPEAT_EVERY = 4
    CONFIG = GlobalControllerConfig(
        formulation="path", path_k=4, path_prune_limit=6,
        learn_profiles=False, demand_alpha=1.0)
    SIZES = {
        "full": dict(clusters=48, services=5, classes=320, ingresses=2,
                     rps=32_000.0, headroom=2.0, epochs=40),
        "smoke": dict(clusters=10, services=3, classes=24, ingresses=2,
                      rps=2_400.0, headroom=2.0, epochs=8),
    }


class CtlChurnArc(_ControlWorkload):
    """Every epoch a structure miss: cold arc build + cold HiGHS solve."""

    name = "ctl_churn_arc"
    CHURN = True
    CONFIG = GlobalControllerConfig(formulation="arc", learn_profiles=False,
                                    demand_alpha=1.0)
    SIZES = {
        "full": dict(clusters=12, services=4, classes=16, rps=9_600.0,
                     headroom=2.0, epochs=40),
        "smoke": dict(clusters=5, services=3, classes=4, rps=1_000.0,
                      headroom=2.0, epochs=8),
    }


WORKLOAD_TYPES = {cls.name: cls for cls in (
    MeshEvent, FluidDay1M, CtlSteadyPath, CtlChurnArc, ClosedLoop)}
