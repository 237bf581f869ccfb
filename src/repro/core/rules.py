"""Routing rules: the Global Controller's output (§3.3).

Each rule says, for one (service, traffic class, source cluster): what
fraction of calls go to each destination cluster — "send 60% of requests to
the local cluster, 30% to remote cluster B and the remaining 10% to remote
cluster C". A :class:`RuleSet` converts to the routing-table update the
Cluster Controllers distribute to proxies.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from ..mesh.routing_table import RouteKey, RoutingTable

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

    def local_fraction(self) -> float:
        """Fraction of calls kept in the source cluster."""
        return self.weight_map().get(self.src_cluster, 0.0)

    @functools.cached_property
    def key(self) -> RouteKey:
        """The routing-table key, built once per rule object."""
        return RouteKey(self.service, self.traffic_class, self.src_cluster)


@dataclass
class RuleSet:
    """A coherent batch of rules, applied atomically to a routing table."""

    rules: list[RoutingRule] = field(default_factory=list)
    #: (len(rules) it was built for, source cluster → its rules in order)
    _by_source: tuple[int, dict[str, list[RoutingRule]]] | None = field(
        default=None, repr=False, compare=False)

    def add(self, rule: RoutingRule) -> None:
        self.rules.append(rule)

    def for_source(self, src_cluster: str) -> list[RoutingRule]:
        """The rules one cluster's proxies enforce, in rule-set order.

        Indexed once per rule set, so distributing to every cluster is one
        pass over the rules rather than one per cluster.
        """
        if self._by_source is None or self._by_source[0] != len(self.rules):
            index: dict[str, list[RoutingRule]] = {}
            for rule in self.rules:
                index.setdefault(rule.src_cluster, []).append(rule)
            self._by_source = (len(self.rules), index)
        return self._by_source[1].get(src_cluster, [])

    def by_key(self) -> dict[RouteKey, dict[str, float]]:
        out: dict[RouteKey, dict[str, float]] = {}
        for rule in self.rules:
            if rule.key in out:
                raise ValueError(f"duplicate rule for {rule.key}")
            out[rule.key] = rule.weight_map()
        return out

    def apply(self, table: RoutingTable) -> None:
        """Replace the table's contents with this rule set: one push for
        every source."""
        table.install((rule.key, rule.weights) for rule in self.rules)

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
