"""Routing tables: the rules SLATE's control plane pushes to proxies.

A rule is keyed by *(callee service, traffic class, source cluster)* and maps
destination clusters to weights — the paper's "when a request matches class
X, send 60% to the local cluster, 30% to remote cluster B and 10% to remote
cluster C" (§3.3). Weights are normalised on insert; lookups fall back from
the exact class to the wildcard class ``"*"`` so class-agnostic policies
(Waterfall, locality failover) install one rule per service.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["RouteKey", "RoutingTable", "WILDCARD_CLASS", "matched_weights",
           "effective_weights"]

WILDCARD_CLASS = "*"


@dataclass(frozen=True)
class RouteKey:
    """Identifies one routing rule."""

    service: str
    traffic_class: str
    src_cluster: str


def matched_weights(rules: dict[RouteKey, dict[str, float]], service: str,
                    traffic_class: str,
                    src_cluster: str) -> dict[str, float] | None:
    """The one rule in ``rules`` that governs a call: the exact class's
    if installed, else the wildcard class's, else None — never both."""
    rule = rules.get(RouteKey(service, traffic_class, src_cluster))
    if rule is None and traffic_class != WILDCARD_CLASS:
        rule = rules.get(RouteKey(service, WILDCARD_CLASS, src_cluster))
    return rule


def effective_weights(weights: dict[str, float] | None, src_cluster: str,
                      deployed: list[str], latency) -> dict[str, float]:
    """Where a proxy at ``src_cluster`` sends a call, given the matched
    rule's ``weights`` (None when no rule matched) and the non-empty list
    of clusters the callee is ``deployed`` in.

    Order of precedence:

    1. the rule, restricted to clusters where the service is actually
       deployed (weights as installed, not renormalised) — guarding
       against rules that outlive a decommission;
    2. the local cluster, if it runs the service;
    3. locality failover: the nearest cluster running the service.
    """
    usable = {cluster: weight for cluster, weight in (weights or {}).items()
              if cluster in deployed}
    if usable:
        return usable
    if src_cluster in deployed:
        return {src_cluster: 1.0}
    nearest = min(deployed, key=lambda cluster: (
        latency.one_way(src_cluster, cluster), cluster))
    return {nearest: 1.0}


class RoutingTable:
    """Weighted per-class cluster-selection rules for one mesh.

    The table is shared by all proxies (in the real system each proxy holds
    a copy distributed via its Cluster Controller; sharing one object is
    behaviourally identical in simulation). ``replace_all`` swaps the rule
    set atomically, mirroring a controller push.

    ``version`` moves once per write that changes a rule: installing the
    weights a rule was last given changes nothing, so nothing compiles.
    """

    def __init__(self) -> None:
        self._rules: dict[RouteKey, dict[str, float]] = {}
        #: per key, the weight items its installed rule was given
        self._given: dict[RouteKey, tuple] = {}
        self.version = 0

    def set_weights(self, key: RouteKey, weights: dict[str, float]) -> None:
        """Install one rule; weights are validated and normalised."""
        self.upsert(((key, tuple(weights.items())),))

    def upsert(self, entries) -> int:
        """Install ``(key, weight items)`` entries, one push.

        An entry whose items equal those its key's rule was given is
        skipped; the others are validated, normalised and installed, and
        ``version`` moves once if any was. Returns how many were.
        """
        given = self._given
        installed = 0
        try:
            for key, items in entries:
                if given.get(key) == items:
                    continue
                self._rules[key] = _normalise(key, items)
                given[key] = items
                installed += 1
        finally:
            if installed:
                self.version += 1
        return installed

    def replace_all(self, rules: dict[RouteKey, dict[str, float]]) -> None:
        """Atomically replace the entire rule set (a controller push)."""
        fresh = {key: _normalise(key, tuple(w.items()))
                 for key, w in rules.items()}
        self._rules = fresh
        self._given = {}
        self.version += 1

    def clear(self) -> None:
        self._rules.clear()
        self._given.clear()
        self.version += 1

    def remove(self, key: RouteKey) -> bool:
        """Drop one rule (True if it existed).

        Lookups for its class then fall back to the wildcard rule or the
        proxy default — how a Cluster Controller retires rules it no
        longer trusts (e.g. the stale-rule guard purging a dead Global
        Controller's per-class rules so its fallback wildcards apply).
        """
        if self._rules.pop(key, None) is None:
            return False
        self._given.pop(key, None)
        self.version += 1
        return True

    def keys_for_cluster(self, src_cluster: str) -> list[RouteKey]:
        """All installed rule keys whose source is ``src_cluster``."""
        return [key for key in self._rules if key.src_cluster == src_cluster]

    def weights_for(self, service: str, traffic_class: str,
                    src_cluster: str) -> dict[str, float] | None:
        """Look up weights, falling back to the wildcard class.

        Returns ``None`` when no rule matches — the proxy then applies its
        default (local-first) behaviour.
        """
        return matched_weights(self._rules, service, traffic_class,
                               src_cluster)

    def rules(self) -> dict[RouteKey, dict[str, float]]:
        """A copy of the installed rules (for inspection/tests)."""
        return {key: dict(w) for key, w in self._rules.items()}

    def __len__(self) -> int:
        return len(self._rules)

    def __repr__(self) -> str:
        return f"RoutingTable(rules={len(self._rules)}, version={self.version})"


def _normalise(key: RouteKey, items: tuple) -> dict[str, float]:
    """The installed weight map of ``(cluster, weight)`` ``items``."""
    if not items:
        raise ValueError(f"rule {key}: empty weight map")
    for cluster, weight in items:
        if not math.isfinite(weight) or weight < 0:
            raise ValueError(
                f"rule {key}: invalid weight {weight} for {cluster!r}")
    total = sum(weight for _, weight in items)
    if total <= 0:
        raise ValueError(f"rule {key}: weights sum to {total}, need > 0")
    normalised = {cluster: weight / total for cluster, weight in items}
    # drop zeros *after* dividing: a subnormal weight can underflow to 0.0
    return {cluster: weight
            for cluster, weight in normalised.items() if weight > 0}
