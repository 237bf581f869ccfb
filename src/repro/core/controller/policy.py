"""SLATE as a routing policy: the optimizer behind the policy interface.

Wraps :class:`GlobalController` so the experiment harness can run SLATE and
the baselines through the same machinery. The initial rules come from one
solve over the known demand (:meth:`GlobalController.plan_known`); in
adaptive mode each epoch's telemetry then feeds the same controller,
optionally through the incremental rollout guard.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ...mesh.telemetry import ClusterEpochReport
from ..rules import RuleSet
from .global_controller import GlobalController, GlobalControllerConfig
from .rollout import IncrementalRollout

if TYPE_CHECKING:   # avoids a core <-> baselines import cycle
    from ...baselines.base import PolicyContext

__all__ = ["SlatePolicy"]


class SlatePolicy:
    """Global TE-optimized request routing (the paper's system)."""

    name = "slate"

    def __init__(self, config: GlobalControllerConfig | None = None,
                 adaptive: bool = False,
                 rollout: IncrementalRollout | None = None) -> None:
        self.config = config or GlobalControllerConfig()
        self.adaptive = adaptive
        self.rollout = rollout
        self._controller: GlobalController | None = None
        self._profiler = None
        self._provenance = None

    def attach_profiler(self, profiler) -> None:
        """Route optimizer timings into a control-plane profiler.

        Duck-typed (``section(name)`` context manager) so the harness can
        pass the obs-layer profiler without core importing it. Adaptive
        policies only: takes effect immediately if the controller exists,
        else on its creation.
        """
        self._profiler = profiler
        if self.adaptive and self._controller is not None:
            self._controller.attach_profiler(profiler)

    def attach_provenance(self, recorder) -> None:
        """Route per-epoch solver decisions into a provenance recorder.

        Duck-typed (``record_solve(info)``) like :meth:`attach_profiler`,
        and with the same semantics.
        """
        self._provenance = recorder
        if self.adaptive and self._controller is not None:
            self._controller.attach_provenance(recorder)

    @property
    def controller(self) -> GlobalController | None:
        """The adaptive-mode controller (None before ``compute_rules``).

        Exposes learned state, the epoch solver and the solver memoization
        cache (``controller.solver_cache``) for diagnostics and benchmarks.
        Always None for a static policy: it observes nothing, and the
        harness keeps epoch records only for policies that expose one.
        """
        return self._controller if self.adaptive else None

    def _planner(self, ctx: PolicyContext) -> GlobalController:
        """The controller every plan of this policy goes through.

        One per policy, so the initial plan and the adaptive epochs share
        one config-to-problem path and one epoch solver (structure cache,
        solver cache, warm starts). Rebuilt only if the policy is handed a
        different app or deployment.
        """
        controller = self._controller
        if (controller is None or controller.app is not ctx.app
                or controller.deployment is not ctx.deployment):
            controller = GlobalController(ctx.app, ctx.deployment,
                                          self.config)
            if self.adaptive:
                if self._profiler is not None:
                    controller.attach_profiler(self._profiler)
                if self._provenance is not None:
                    controller.attach_provenance(self._provenance)
            self._controller = controller
        return controller

    def compute_rules(self, ctx: PolicyContext) -> RuleSet:
        rules = self._planner(ctx).plan_known(ctx.demand).rules()
        if self.rollout is not None:
            rules = self.rollout.advance(rules)
        return rules

    def on_epoch(self, reports: list[ClusterEpochReport],
                 ctx: PolicyContext) -> RuleSet | None:
        if not self.adaptive:
            return None
        controller = self._planner(ctx)
        controller.observe(reports)
        result = controller.plan()
        if result is None:
            return None
        rules = result.rules()
        if self.rollout is not None:
            objective = _observed_mean_latency(reports)
            rules = self.rollout.advance(rules, objective)
        return rules


def _observed_mean_latency(reports: list[ClusterEpochReport]) -> float | None:
    latencies = [lat for report in reports
                 for lat in report.request_latencies]
    if not latencies:
        return None
    return sum(latencies) / len(latencies)
