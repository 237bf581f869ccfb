"""Routing rules: the Global Controller's output (§3.3).

Each rule says, for one (service, traffic class, source cluster): what
fraction of calls go to each destination cluster — "send 60% of requests to
the local cluster, 30% to remote cluster B and the remaining 10% to remote
cluster C". A :class:`RuleSet` converts to the routing-table update the
Cluster Controllers distribute to proxies.

A proxy without a rule already routes local-first (it sends a call to its
own cluster when the callee runs there), so a push carries only the rules
that *depart* from that default: a rule sending every call to its own
source cluster is the plan's value but nobody's install.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from ..mesh.routing_table import WILDCARD_CLASS, RouteKey, RoutingTable

__all__ = ["RoutingRule", "RuleSet"]


@dataclass(frozen=True)
class RoutingRule:
    """Weighted destination split for one (service, class, source)."""

    service: str
    traffic_class: str
    src_cluster: str
    weights: tuple[tuple[str, float], ...]

    @staticmethod
    def make(service: str, traffic_class: str, src_cluster: str,
             weights: dict[str, float]) -> "RoutingRule":
        if len(weights) == 1:
            # the common rule — everything to one cluster: w / w == 1.0
            # for any finite positive w (NaN fails both comparisons)
            (cluster, weight), = weights.items()
            if 0 < weight < math.inf:
                return RoutingRule(service, traffic_class, src_cluster,
                                   ((cluster, 1.0),))
        total = sum(weights.values())
        if total <= 0 or not all(math.isfinite(w) and w >= 0
                                 for w in weights.values()):
            raise ValueError(
                f"invalid weights for {service}/{traffic_class}@{src_cluster}:"
                f" {weights}")
        # filter after dividing: a subnormal weight can underflow to 0.0
        normalised = tuple(sorted(
            (cluster, share)
            for cluster, share in ((c, w / total)
                                   for c, w in weights.items())
            if share > 0))
        return RoutingRule(service, traffic_class, src_cluster, normalised)

    def weight_map(self) -> dict[str, float]:
        return dict(self.weights)

    @property
    def departs(self) -> bool:
        """Does the rule send some calls away from its source cluster?"""
        return self.weights != ((self.src_cluster, 1.0),)

    def local_fraction(self) -> float:
        """Fraction of calls kept in the source cluster."""
        return self.weight_map().get(self.src_cluster, 0.0)

    @functools.cached_property
    def key(self) -> RouteKey:
        """The routing-table key, built once per rule object."""
        return RouteKey(self.service, self.traffic_class, self.src_cluster)


@dataclass
class RuleSet:
    """A coherent batch of rules, applied atomically to a routing table.

    The rule set is the plan's full value; a push carries only the rules
    a proxy could not infer (:meth:`for_source`).
    """

    rules: list[RoutingRule] = field(default_factory=list)
    #: (len(rules) it was built for, source cluster → its pushed rules in
    #: order); the optimizer hands it in already built
    _pushed: tuple[int, dict[str, list[RoutingRule]]] | None = field(
        default=None, repr=False, compare=False)

    def add(self, rule: RoutingRule) -> None:
        self.rules.append(rule)

    def for_source(self, src_cluster: str) -> list[RoutingRule]:
        """The rules a push to one cluster's proxies carries, in rule-set
        order: the cluster's rules that depart from local-first.

        A rule sending every call to its own cluster is omitted — a missing
        key routes that way already — unless it is an exact-class rule
        whose (service, source) also has a pushed wildcard rule, which the
        lookup would otherwise fall back to.
        """
        return self._push().get(src_cluster, [])

    def _push(self) -> dict[str, list[RoutingRule]]:
        """The pushed rules by source cluster, indexed once per rule set:
        distributing to every cluster is one pass over the rules rather
        than one per cluster."""
        if self._pushed is None or self._pushed[0] != len(self.rules):
            self._pushed = (len(self.rules), _push_index(self.rules))
        return self._pushed[1]

    def by_key(self) -> dict[RouteKey, dict[str, float]]:
        out: dict[RouteKey, dict[str, float]] = {}
        for rule in self.rules:
            if rule.key in out:
                raise ValueError(f"duplicate rule for {rule.key}")
            out[rule.key] = rule.weight_map()
        return out

    def apply(self, table: RoutingTable) -> None:
        """Replace the table's contents with this rule set: one push for
        every source, each carrying :meth:`for_source`'s rules."""
        table.install((rule.key, rule.weights)
                      for pushed in self._push().values() for rule in pushed)

    def rule_for(self, service: str, traffic_class: str,
                 src_cluster: str) -> RoutingRule | None:
        for rule in self.rules:
            if (rule.service == service
                    and rule.traffic_class == traffic_class
                    and rule.src_cluster == src_cluster):
                return rule
        return None

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)


def _push_index(rules) -> dict[str, list[RoutingRule]]:
    """Source cluster → the ``rules`` a push for it carries, in order (see
    :meth:`RuleSet.for_source`)."""
    wildcards = {(rule.service, rule.src_cluster) for rule in rules
                 if rule.traffic_class == WILDCARD_CLASS and rule.departs}
    index: dict[str, list[RoutingRule]] = {}
    for rule in rules:
        if rule.departs or (rule.traffic_class != WILDCARD_CLASS
                            and (rule.service, rule.src_cluster)
                            in wildcards):
            index.setdefault(rule.src_cluster, []).append(rule)
    return index
