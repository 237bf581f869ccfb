"""Global Controller (§3.3): telemetry in, optimized routing rules out.

The controller keeps two pieces of learned state between epochs:

* per-(class, cluster) ingress demand estimates (EWMA over observed RPS),
* per-(service, class) latency profiles (:class:`ProfileRegistry`), when
  profile learning is enabled.

Every planning cycle it assembles a :class:`TEProblem` — call-tree structure
comes from the application spec, demands and compute times from the learned
state — solves it, and emits a :class:`RuleSet` for the Cluster Controllers.

``plan_known`` is the one planner for known demand and ground-truth compute
times: what :class:`~repro.core.controller.policy.SlatePolicy` installs
before the first epoch, and — through a fresh controller —
``GlobalController.oracle``, the one-shot plan the benchmarks and examples
use. Known demand and learned state both become a problem in ``_problem``
and are solved by the controller's :class:`EpochSolver`.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from ...mesh.telemetry import ClusterEpochReport
from ...sim.apps import AppSpec
from ...sim.topology import DeploymentSpec
from ...sim.workload import DemandMatrix
from ..classes.callgraph import CallGraphLearner
from ..latency.profiles import ProfileRegistry
from .forecast import HoltForecaster
from ..optimizer.cache import SolverCache
from ..optimizer.problem import ClassWorkload, TEProblem
from ..optimizer.result import OptimizationResult
from ..optimizer.solve import SolverError
from ..optimizer.warm import EpochSolver
from ..rules import RuleSet

__all__ = ["GlobalControllerConfig", "GlobalController"]


@dataclass(frozen=True)
class GlobalControllerConfig:
    """Tuning knobs for the Global Controller."""

    rho_max: float = 0.95
    cost_weight: float = 0.0
    #: hard $/s cap on egress (None = unconstrained)
    egress_budget: float | None = None
    delay_model: str = "mmc"
    #: EWMA factor for demand estimates (weight of the newest epoch)
    demand_alpha: float = 0.5
    #: learn compute times from telemetry instead of trusting the app spec
    learn_profiles: bool = True
    #: learn the entire call-tree structure (edges, fan-outs, byte sizes)
    #: from sampled trace spans instead of trusting the app spec — requires
    #: the mesh to forward span samples (``trace_sample_rate > 0``)
    learn_structure: bool = False
    #: plan against Holt-forecast next-epoch demand instead of the EWMA of
    #: observed demand (predictive vs reactive control, §5 fast reaction)
    forecast_demand: bool = False
    #: round demand estimates to multiples of this (requests/second) before
    #: planning. Acts as re-plan hysteresis: sub-quantum telemetry jitter no
    #: longer produces a numerically distinct TE instance every epoch, so
    #: steady-demand epochs assemble *identical* models and the solver
    #: cache replays them instead of re-solving. 0 disables quantization.
    demand_quantum: float = 0.0
    #: optimizer formulation: "arc" (per-edge flow variables, the exact
    #: §3.3 model) or "path" (k-best candidate embeddings — linear in
    #: demand entries instead of quadratic in clusters; pick it past ~30
    #: clusters, see docs/performance.md)
    formulation: str = "arc"
    #: candidate paths per (class, ingress) in path formulation
    path_k: int = 4
    #: cap candidate clusters per call-tree hop (path formulation); None
    #: considers every deployed cluster
    path_prune_limit: int | None = None

    def __post_init__(self) -> None:
        if not 0 < self.demand_alpha <= 1:
            raise ValueError(
                f"demand_alpha must be in (0, 1], got {self.demand_alpha}")
        if not (math.isfinite(self.demand_quantum)
                and self.demand_quantum >= 0):
            raise ValueError(f"demand_quantum must be finite and >= 0, "
                             f"got {self.demand_quantum}")
        if self.formulation not in ("arc", "path"):
            raise ValueError(f"formulation must be 'arc' or 'path', "
                             f"got {self.formulation!r}")
        if not _positive_int(self.path_k):
            raise ValueError(
                f"path_k must be an int >= 1, got {self.path_k!r}")
        if not (self.path_prune_limit is None
                or _positive_int(self.path_prune_limit)):
            raise ValueError(f"path_prune_limit must be None or an int >= 1, "
                             f"got {self.path_prune_limit!r}")


def _positive_int(value) -> bool:
    return (isinstance(value, int) and not isinstance(value, bool)
            and value >= 1)


class GlobalController:
    """The centralized optimizer-driven brain of SLATE."""

    def __init__(self, app: AppSpec, deployment: DeploymentSpec,
                 config: GlobalControllerConfig | None = None,
                 profiles: ProfileRegistry | None = None) -> None:
        self.app = app
        self.deployment = deployment
        self.config = config or GlobalControllerConfig()
        self.profiles = profiles or ProfileRegistry()
        self.callgraph = CallGraphLearner()
        #: fed only under ``forecast_demand`` — nothing else reads it
        self.forecaster = HoltForecaster()
        #: cluster → class → EWMA of observed ingress rps, for every
        #: cluster that has reported. Sparse: a class is absent while its
        #: estimate is exactly 0.0 (never seen there, or decayed to zero),
        #: which is what an absent class of a present cluster means
        self._demand_estimate: dict[str, dict[str, float]] = {}
        self.last_result: OptimizationResult | None = None
        self.epochs_observed = 0
        #: end of the newest telemetry window folded in (None until first
        #: observe); lets the decision log report how stale the planning
        #: input was — nonzero only when telemetry was delayed or dropped
        self.last_observe_time: float | None = None
        #: memoizes epoch solves (LRU of ``DEFAULT_CACHE_SIZE`` entries)
        self.solver_cache = SolverCache()
        #: the build+solve pipeline with structure reuse and warm starts;
        #: composes the solver cache (replay) with its own structure cache
        #: (warm builds) and previous-solution warm re-solves
        self.epoch_solver = EpochSolver(
            cache=self.solver_cache,
            formulation=self.config.formulation,
            path_k=self.config.path_k,
            path_prune_limit=self.config.path_prune_limit,
        )

    def attach_profiler(self, profiler) -> None:
        """Route optimizer build/solve timings into a control-plane
        profiler (duck-typed ``section(name)`` context manager)."""
        self.epoch_solver.profiler = profiler

    def attach_provenance(self, recorder) -> None:
        """Route per-epoch reuse-ladder outcomes into a provenance
        recorder (duck-typed ``record_solve(info)`` hook)."""
        self.epoch_solver.recorder = recorder

    # ------------------------------------------------------------ learning

    def observe(self, reports: list[ClusterEpochReport]) -> None:
        """Fold one epoch of cluster reports into the learned state.

        Per report the work is proportional to the classes that carry
        state at that cluster or were counted in this window, not to the
        app's class list: a class neither counted nor holding a non-zero
        estimate keeps its estimate of exactly 0.0 whatever ``alpha`` is.
        """
        if self.config.learn_profiles:
            self.profiles.ingest(reports)
        if self.config.learn_structure:
            for report in reports:
                self.callgraph.ingest(report.span_samples)
        alpha = self.config.demand_alpha
        forecaster = (self.forecaster if self.config.forecast_demand
                      else None)
        classes = self.app.classes
        for report in reports:
            window_end = report.start_time + report.duration
            if (self.last_observe_time is None
                    or window_end > self.last_observe_time):
                self.last_observe_time = window_end
            cluster = report.cluster
            estimates = self._demand_estimate.get(cluster)
            # a cluster's first report seeds its estimates; from then on a
            # class without one stands at 0.0 and is averaged like any other
            absent = None if estimates is None else 0.0
            if estimates is None:
                estimates = self._demand_estimate[cluster] = {}
            counted = [cls for cls, count in report.ingress_counts.items()
                       if count and cls in classes and cls not in estimates]
            for cls in [*estimates, *counted]:
                observed = report.ingress_rps(cls)
                if observed < 0:
                    raise ValueError(f"negative observation {observed} for "
                                     f"{(cls, cluster)!r}")
                current = estimates.get(cls, absent)
                if forecaster is not None:
                    key = (cls, cluster)
                    if current is not None and not forecaster.known(key):
                        # the zeros this series has seen so far: Holt's
                        # state after any number of them is (0, 0)
                        forecaster.observe(key, 0.0)
                    forecaster.observe(key, observed)
                estimate = (observed if current is None
                            else (1 - alpha) * current + alpha * observed)
                if estimate != 0.0 or forecaster is not None:
                    estimates[cls] = estimate
                else:
                    estimates.pop(cls, None)
        self.epochs_observed += 1

    def demand_estimate(self, traffic_class: str, cluster: str) -> float:
        """The demand the next plan will use (forecast or EWMA).

        With ``demand_quantum`` set, the estimate is rounded to the nearest
        quantum so steady demand yields a bit-stable planning input.
        """
        key = (traffic_class, cluster)
        if self.config.forecast_demand and self.forecaster.known(key):
            estimate = self.forecaster.forecast(key, steps_ahead=1)
        else:
            estimate = self._demand_estimate.get(cluster, {}).get(
                traffic_class, 0.0)
        quantum = self.config.demand_quantum
        if quantum > 0:
            estimate = round(estimate / quantum) * quantum
        return estimate

    # ------------------------------------------------------------ planning

    def build_problem(self) -> TEProblem:
        """Assemble the TE instance from current learned state."""
        # positive estimates per class, clusters in deployment order; only
        # (class, cluster) pairs holding state can have one
        demands: dict[str, dict[str, float]] = {
            name: {} for name in self.app.classes}
        for cluster in self.deployment.cluster_names:
            for name in self._demand_estimate.get(cluster, ()):
                estimate = self.demand_estimate(name, cluster)
                if estimate > 0 and name in demands:
                    demands[name][cluster] = estimate
        workloads = {}
        for name, spec in self.app.classes.items():
            if self.config.learn_structure and self.callgraph.ready(name):
                # the whole spec — edges, fan-outs, byte sizes, compute
                # times — comes from trace evidence; only the matching
                # attributes are taken from the declared class
                spec = self.callgraph.infer_spec(name, spec.attributes)
            elif self.config.learn_profiles:
                learned = self.profiles.exec_time_map(name, spec.services())
                # keep ground truth for pairs with no telemetry yet: a wrong
                # default would be worse than the spec's declared value
                exec_time = {
                    service: (learned[service]
                              if self.profiles.known(service, name)
                              else spec.exec_time_of(service))
                    for service in spec.services()
                }
                spec = dataclasses.replace(spec, exec_time=exec_time)
            workloads[name] = ClassWorkload(spec=spec, demand=demands[name])
        return self._problem(workloads)

    def _problem(self, workloads: dict[str, ClassWorkload]) -> TEProblem:
        """The TE instance for ``workloads`` on the live deployment, under
        this controller's config — the one place config fields become
        problem fields, for learned and known demand alike."""
        replicas = {
            (service, cluster.name): count
            for cluster in self.deployment.clusters
            for service, count in cluster.replicas.items()
            if count > 0
        }
        return TEProblem(
            clusters=list(self.deployment.cluster_names),
            latency=self.deployment.latency,
            pricing=self.deployment.pricing,
            replicas=replicas,
            workloads=workloads,
            rho_max=self.config.rho_max,
            cost_weight=self.config.cost_weight,
            egress_budget=self.config.egress_budget,
            delay_model=self.config.delay_model,
        )

    def plan_known(self, demand: DemandMatrix) -> OptimizationResult:
        """Plan for known demand and the app spec's own compute times.

        Under this controller's whole config and through its
        :attr:`epoch_solver` — so the formulation and egress budget are the
        ones every later epoch uses, and the structure cache is warm when
        the first :meth:`plan` arrives.
        Not an epoch: learned state and :attr:`last_result` are untouched.
        Raises :class:`SolverError` when the instance is infeasible.
        """
        known = TEProblem.from_specs(self.app, self.deployment, demand)
        return self.epoch_solver.solve(self._problem(known.workloads))

    def plan(self) -> OptimizationResult | None:
        """Solve for current state; ``None`` when no demand observed yet.

        When the (possibly forecast) demand exceeds global capacity the
        instance is infeasible; rather than fail mid-flight, the demand is
        scaled down to the largest feasible fraction and solved — the
        resulting *routing fractions* remain the right proportions to
        install, and the overload itself is a provisioning problem outside
        the router's control.
        """
        problem = self.build_problem()
        if problem.total_demand() <= 0:
            return None
        try:
            result = self.epoch_solver.solve(problem)
        except SolverError:
            scale = self._feasible_scale(problem)
            if scale >= 1.0:
                raise   # infeasible for some other reason: surface it
            for workload in problem.workloads.values():
                for cluster in workload.demand:
                    workload.demand[cluster] *= scale
            result = self.epoch_solver.solve(problem)
        self.last_result = result
        return result

    @staticmethod
    def _feasible_scale(problem: TEProblem) -> float:
        """Largest demand fraction that fits under every service's global
        work capacity (with a small safety margin)."""
        scale = 1.0
        services = {s for w in problem.workloads.values()
                    for s in w.spec.services()}
        for service in services:
            work = 0.0
            for workload in problem.workloads.values():
                st = workload.spec.exec_time_of(service)
                execs = workload.spec.executions_per_request().get(service,
                                                                   0.0)
                work += workload.total_demand * execs * st
            capacity = problem.rho_max * sum(
                problem.replica_count(service, c) for c in problem.clusters)
            if work > 0 and capacity > 0:
                scale = min(scale, capacity / work)
        return scale * 0.999

    def rules(self) -> RuleSet:
        """Rules from the most recent plan (empty before the first plan)."""
        if self.last_result is None:
            return RuleSet()
        return self.last_result.rules()

    # -------------------------------------------------------------- oracle

    @staticmethod
    def oracle(app: AppSpec, deployment: DeploymentSpec,
               demand: DemandMatrix, rho_max: float = 0.95,
               cost_weight: float = 0.0,
               egress_budget: float | None = None,
               delay_model: str = "mmc") -> OptimizationResult:
        """One-shot plan with known demand and ground-truth profiles:
        :meth:`plan_known` on a fresh controller with this config."""
        config = GlobalControllerConfig(
            rho_max=rho_max, cost_weight=cost_weight,
            egress_budget=egress_budget, delay_model=delay_model)
        return GlobalController(app, deployment, config).plan_known(demand)
