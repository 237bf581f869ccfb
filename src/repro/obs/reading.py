"""One control epoch, read once, and the one rule diff.

:meth:`Observability.record_epoch
<repro.obs.config.Observability.record_epoch>` reads each epoch into one
:class:`EpochReading` — its outcome, its plan, the per-(class, cluster)
demand the plan used and how it moved, and what the routing table did —
and hands that same reading to the decision log and to the provenance
chain, which keep no baseline of their own. :func:`diff_rules` is the one
routing diff and :class:`TableWatcher` the one place that remembers a
routing table between looks: the epoch records share one watcher, the
scrape loop keeps its own.

All of it is a pure read of controller and table state (contract A01).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:  # imports for annotations only — obs stays decoupled
    from ..core.controller.global_controller import GlobalController
    from ..core.optimizer.result import OptimizationResult
    from ..core.rules import RuleSet
    from ..mesh.routing_table import RouteKey, RoutingTable

__all__ = ["EPSILON", "EpochReading", "RuleChange", "TableWatcher",
           "diff_rules", "read_epoch"]

#: a weight, demand or rate movement at or below this is float noise
EPSILON = 1e-9


@dataclass(frozen=True)
class EpochReading:
    """What every epoch record reads from one control epoch."""

    sim_time: float
    #: the policy's Global Controller (None for the baselines)
    controller: "GlobalController | None"
    #: the rules the policy shipped this epoch (None: nothing)
    update: "RuleSet | None"
    #: "solved", "no-demand" or "outage" (controller unreachable)
    outcome: str
    #: this epoch's plan on a solved epoch, else None
    result: "OptimizationResult | None"
    #: class → cluster → the demand estimate planned against, classes
    #: sorted and clusters in deployment order (None without a controller)
    demand: dict[str, dict[str, float]] | None
    #: class → cluster → signed move of that estimate since the previous
    #: reading, classes and clusters sorted, only moves above float noise
    demand_moves: dict[str, dict[str, float]]
    #: the routing table's routes that moved since the previous epoch —
    #: controller installs and fallback installs alike — in rule-key order
    changes: tuple[RuleChange, ...]


def read_epoch(sim_time: float, controller: "GlobalController | None",
               update: "RuleSet | None", changes=(),
               previous_demand: dict | None = None, *,
               outage: bool = False) -> EpochReading:
    """Read one epoch, after its plan and distribute.

    ``changes`` is the table's :func:`diff_rules` since the previous epoch
    (float-noise changes are dropped) and ``previous_demand`` the previous
    reading's ``demand``.
    """
    result = controller.last_result if controller is not None else None
    if outage:
        outcome = "outage"
    elif update is None or result is None:
        outcome = "no-demand"
    else:
        outcome = "solved"
    demand = None
    moves: dict[str, dict[str, float]] = {}
    if controller is not None:
        clusters = controller.deployment.cluster_names
        demand = {cls: {cluster: controller.demand_estimate(cls, cluster)
                        for cluster in clusters}
                  for cls in sorted(controller.app.classes)}
        previous = previous_demand or {}
        for cls in sorted(demand.keys() | previous.keys()):
            new = demand.get(cls, {})
            old = previous.get(cls, {})
            per = {cluster: new.get(cluster, 0.0) - old.get(cluster, 0.0)
                   for cluster in sorted(new.keys() | old.keys())}
            per = {c: d for c, d in per.items() if abs(d) > EPSILON}
            if per:
                moves[cls] = per
    return EpochReading(sim_time, controller, update, outcome,
                        result if outcome == "solved" else None, demand,
                        moves, tuple(c for c in changes if c.moved))


class RuleChange(NamedTuple):
    """One rule key whose route differs between two rule maps."""

    key: "RouteKey"
    #: the key's route before and after: its weights, or local-first
    #: (``{src: 1.0}``) where the map holds no rule for it
    old: dict[str, float]
    new: dict[str, float]
    #: destination → new − old weight, destinations sorted
    deltas: dict[str, float]
    #: Σ |delta|, the key's L1 weight churn
    churn: float

    @property
    def moved(self) -> bool:
        """False for a change that is only float noise."""
        return self.churn > EPSILON


def diff_rules(previous: dict, current: dict) -> list[RuleChange]:
    """Every key whose route differs from ``previous`` to ``current``
    (``RouteKey → {destination: weight}`` maps), in rule-key order.

    A key a map holds no rule for reads as local-first, ``{src: 1.0}`` —
    where a proxy without a rule sends the call — so a routing table that
    holds only departures (:meth:`~repro.core.rules.RuleSet.for_source`)
    diffs alike against a table or a plan that spells local rules out.
    """
    changes = []
    for key in sorted(previous.keys() | current.keys(),
                      key=lambda k: (k.service, k.traffic_class,
                                     k.src_cluster)):
        local = {key.src_cluster: 1.0}
        old = previous.get(key, local)
        new = current.get(key, local)
        if old == new:
            continue
        deltas = {dst: new.get(dst, 0.0) - old.get(dst, 0.0)
                  for dst in sorted(old.keys() | new.keys())}
        changes.append(RuleChange(key, old, new, deltas,
                                  sum(abs(d) for d in deltas.values())))
    return changes


class TableWatcher:
    """A routing table's rules at the last look, and what moved since.

    Built on a table, the watcher starts from that table's rules; built
    empty, its first look reports every installed rule as a move away from
    local-first. ``table.version`` moves only when a rule does, so a look
    at an unmoved version skips the walk.
    """

    def __init__(self, table: "RoutingTable | None" = None) -> None:
        self.rules: dict = {} if table is None else table.rules()
        self.version: int | None = None if table is None else table.version

    def look(self, table: "RoutingTable") -> list[RuleChange]:
        """The table's :func:`diff_rules` since the last look."""
        if table.version == self.version:
            return []
        rules = table.rules()
        changes = diff_rules(self.rules, rules)
        self.rules = rules
        self.version = table.version
        return changes
