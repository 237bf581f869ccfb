"""Cluster Controller (§3.2): per-region metrics relay and rule distributor.

"The Cluster Controller acts as a metrics aggregator for a certain region, to
avoid the scaling limitations of having every individual service connect to a
global controller ... as well as attaching the cluster ID of the metrics."
When the Global Controller has new rules, they are "pushed to the Cluster
Controller, which then redistributes those rules to every relevant service."

In simulation the proxies already tag spans with their cluster; the
controller's enforcement here is validation (rejecting mislabelled metrics)
plus filtering rule pushes down to this cluster's proxies.

Degraded mode (§5): when the Global Controller becomes unreachable the rules
a cluster holds silently go stale. Configured with a ``max_rule_age`` and a
``fallback`` policy, the controller runs a staleness guard each epoch: once
``now - last_contact`` exceeds the max age it installs the fallback policy's
rules for its own cluster (locality failover or waterfall — "fall back to
routing rules that prioritize local routing first") and flags itself
``fallback_active``. The next successful distribution from the returned
Global Controller reconciles: its rules replace the fallback ones and the
flag clears.
"""

from __future__ import annotations

import math
from typing import Protocol

from ...mesh.routing_table import RoutingTable
from ...mesh.telemetry import ClusterEpochReport
from ..rules import RuleSet

__all__ = ["ClusterController", "FallbackPolicy"]


class FallbackPolicy(Protocol):
    """What the staleness guard needs from a local routing policy.

    Both :class:`~repro.baselines.locality.LocalityFailoverPolicy` and
    :class:`~repro.baselines.waterfall.WaterfallPolicy` satisfy it; the
    object is injected by the harness so ``repro.core`` never imports
    ``repro.baselines``.
    """

    def compute_rules(self, ctx) -> RuleSet: ...


class ClusterController:
    """Metrics relay and rule distributor for one cluster.

    ``max_rule_age`` / ``fallback`` arm the §5 degraded mode; both default
    to off, in which case behaviour is identical to the pre-chaos
    controller (the guard never trips).
    """

    def __init__(self, cluster: str, *, max_rule_age: float | None = None,
                 fallback: FallbackPolicy | None = None) -> None:
        # NaN fails both comparisons
        if max_rule_age is not None and not 0 < max_rule_age < math.inf:
            raise ValueError(
                f"max_rule_age must be finite and > 0, got {max_rule_age}")
        self.cluster = cluster
        self.max_rule_age = max_rule_age
        self.fallback = fallback
        self._pending: list[ClusterEpochReport] = []
        self.reports_relayed = 0
        self.rules_distributed = 0
        #: sim time of the last successful Global Controller contact
        self.last_contact = 0.0
        self.fallback_active = False
        self.fallback_activations = 0
        self.fallback_tripped_at: float | None = None
        self.reconciliations = 0

    # ------------------------------------------------------------- metrics

    def ingest(self, report: ClusterEpochReport) -> None:
        """Accept one epoch report from this cluster's proxies."""
        if report.cluster != self.cluster:
            raise ValueError(
                f"cluster controller {self.cluster!r} received a report "
                f"tagged {report.cluster!r}")
        self._pending.append(report)

    def relay(self) -> list[ClusterEpochReport]:
        """Hand pending reports to the Global Controller and clear them."""
        reports, self._pending = self._pending, []
        self.reports_relayed += len(reports)
        return reports

    # --------------------------------------------------------------- rules

    def touch(self, now: float) -> None:
        """Record a successful Global Controller contact at ``now``.

        Called whenever the controller is reachable, even when hysteresis
        decided no rule update was needed — a healthy-but-quiet controller
        must not trip the staleness guard.
        """
        if now > self.last_contact:
            self.last_contact = now

    def distribute(self, rules: RuleSet, table: RoutingTable,
                   now: float | None = None) -> int:
        """Install the rules relevant to this cluster's proxies.

        The push is :meth:`RuleSet.for_source` of this cluster — its rules
        that depart from local-first, so each region's proxies hold exactly
        the exceptions they enforce — as one :meth:`RoutingTable.install`
        for this cluster, which retires the cluster's rules the push omits
        and skips a rule already installed with the same weights. Returns
        the number of rules pushed. When ``now`` is given it counts as
        controller contact; a distribution that lands while the fallback is
        active reconciles it (the push replaces the fallback rules).
        """
        pushed = rules.for_source(self.cluster)
        table.install([(rule.key, rule.weights) for rule in pushed],
                      sources=(self.cluster,))
        count = len(pushed)
        self.rules_distributed += count
        if now is not None:
            self.touch(now)
        if self.fallback_active:
            self.fallback_active = False
            self.reconciliations += 1
        return count

    def rule_age(self, now: float) -> float:
        """Seconds since the last successful Global Controller contact."""
        return max(0.0, now - self.last_contact)

    def check_staleness(self, now: float, table: RoutingTable, ctx) -> bool:
        """Trip the stale-rule guard if contact has been lost too long.

        Returns True exactly once per outage episode — the call that
        installs the fallback rules. Requires both ``max_rule_age`` and
        ``fallback`` to be configured; otherwise it is a no-op.
        """
        if (self.max_rule_age is None or self.fallback is None
                or self.fallback_active):
            return False
        if self.rule_age(now) <= self.max_rule_age:
            return False
        # the fallback's rules replace the dead controller's for this
        # cluster, so its wildcard rules take effect (exact-class lookups
        # would otherwise keep hitting the stale entries)
        fallback = self.fallback.compute_rules(ctx).for_source(self.cluster)
        table.install([(rule.key, rule.weights) for rule in fallback],
                      sources=(self.cluster,))
        self.fallback_active = True
        self.fallback_activations += 1
        self.fallback_tripped_at = now
        return True

    def __repr__(self) -> str:
        return (f"ClusterController({self.cluster!r}, "
                f"pending={len(self._pending)}, "
                f"fallback_active={self.fallback_active})")
