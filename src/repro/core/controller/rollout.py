"""Resilient incremental rule rollout (§5 "Resilience to prediction error").

The paper's proposed design: "use the optimizer's output as a guideline,
without fully relying on it. For instance, if the optimizer suggests
increasing the fraction of requests routed to a certain cluster by 50%,
SLATE could implement incremental increases of, say, 10%, evaluate the
system objectives (latency and cost) using real-time telemetry, and proceed
only if the objectives improve as predicted."

:class:`IncrementalRollout` implements exactly that: each epoch it moves the
live rules a bounded ``step`` toward the optimizer's target, watches the
observed objective, and rolls back (and backs off the step) when the
objective regresses beyond tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...mesh.routing_table import RouteKey
from ..rules import RoutingRule, RuleSet

__all__ = ["RolloutConfig", "IncrementalRollout"]


@dataclass(frozen=True)
class RolloutConfig:
    """Rollout behaviour knobs."""

    #: fraction of the remaining distance to the target applied per epoch
    step: float = 0.25
    #: observed objective may grow by this factor before we call it a
    #: regression (absorbs measurement noise)
    regression_tolerance: float = 1.15
    #: multiplicative step back-off after a rollback
    backoff: float = 0.5
    #: step recovers toward ``step`` by this factor per clean epoch
    recovery: float = 1.5

    def __post_init__(self) -> None:
        if not 0 < self.step <= 1:
            raise ValueError(f"step must be in (0, 1], got {self.step}")
        if self.regression_tolerance < 1:
            raise ValueError("regression_tolerance must be >= 1")
        if not 0 < self.backoff < 1:
            raise ValueError("backoff must be in (0, 1)")
        if self.recovery <= 1:
            raise ValueError("recovery must be > 1")


class IncrementalRollout:
    """Moves live routing rules gradually toward an optimizer target."""

    def __init__(self, config: RolloutConfig | None = None) -> None:
        self.config = config or RolloutConfig()
        self._current: dict[RouteKey, dict[str, float]] = {}
        self._previous: dict[RouteKey, dict[str, float]] | None = None
        self._last_objective: float | None = None
        self._step = self.config.step
        self.rollbacks = 0

    @property
    def current_step(self) -> float:
        return self._step

    def advance(self, target: RuleSet,
                observed_objective: float | None = None) -> RuleSet:
        """One epoch of rollout; returns the rules to install now.

        ``observed_objective`` is last epoch's measured system objective
        (e.g. mean latency): lower is better. On regression beyond
        tolerance the previous rules are restored and the step backs off.
        """
        if observed_objective is not None and self._last_objective is not None:
            regressed = (observed_objective
                         > self._last_objective
                         * self.config.regression_tolerance)
            if regressed and self._previous is not None:
                # restore the previous rules as they were: a push retires
                # the keys it omits, and a key without a rule routes like
                # an explicit local one
                self._current = self._previous
                self._previous = None
                self._step = max(self._step * self.config.backoff, 0.01)
                self.rollbacks += 1
                # keep the pre-regression objective as the baseline
                return self._as_rule_set(self._current)
            self._step = min(self._step * self.config.recovery,
                             self.config.step)
        if observed_objective is not None:
            self._last_objective = observed_objective

        blended: dict[RouteKey, dict[str, float]] = {}
        for key, target_weights in target.by_key().items():
            current = self._current.get(key, {key.src_cluster: 1.0})
            blended[key] = _blend(current, target_weights, self._step)
        # keys no longer in the target decay toward the local default and
        # are dropped once they reach it: a push retires the keys it
        # omits, and a key without a rule routes like an explicit local one
        for key, current in self._current.items():
            if key not in blended:
                decayed = _blend(current, {key.src_cluster: 1.0},
                                 self._step)
                if decayed.keys() != {key.src_cluster}:
                    blended[key] = decayed
        self._previous = self._current
        self._current = blended
        return self._as_rule_set(blended)

    @staticmethod
    def _as_rule_set(rules: dict[RouteKey, dict[str, float]]) -> RuleSet:
        out = RuleSet()
        for key, weights in sorted(rules.items(),
                                   key=lambda kv: (kv[0].service,
                                                   kv[0].traffic_class,
                                                   kv[0].src_cluster)):
            out.add(RoutingRule.make(key.service, key.traffic_class,
                                     key.src_cluster, weights))
        return out


def _blend(current: dict[str, float], target: dict[str, float],
           step: float) -> dict[str, float]:
    """Convex combination of two weight vectors, dropping dust weights."""
    clusters = set(current) | set(target)
    blended = {
        cluster: ((1 - step) * current.get(cluster, 0.0)
                  + step * target.get(cluster, 0.0))
        for cluster in clusters
    }
    return {c: w for c, w in blended.items() if w > 1e-9}
