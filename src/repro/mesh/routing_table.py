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
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple

__all__ = ["RouteKey", "RoutingTable", "WILDCARD_CLASS", "matched_weights",
           "effective_weights"]

WILDCARD_CLASS = "*"


class RouteKey(NamedTuple):
    """Identifies one routing rule."""

    service: str
    traffic_class: str
    src_cluster: str


#: a key's source cluster
_SOURCE = itemgetter(2)


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
    behaviourally identical in simulation). A push (:meth:`install`) is
    the whole rule set of each source cluster it is for: what it omits is
    retired, and nothing moves unless the whole push is valid. A missing
    key routes local-first (:func:`effective_weights`), so the control
    plane pushes only the rules that depart from it
    (:meth:`~repro.core.rules.RuleSet.for_source`).

    ``version`` moves once per write that changes a rule: installing the
    weights a rule was last given changes nothing, so nothing compiles.
    """

    def __init__(self) -> None:
        self._rules: dict[RouteKey, dict[str, float]] = {}
        #: per key, the weight items its installed rule was given
        self._given: dict[RouteKey, tuple] = {}
        #: source cluster → the keys of its installed rules
        self._keys: dict[str, set[RouteKey]] = {}
        #: keys whose rule is a hand edit no push has replaced since
        self._edited: set[RouteKey] = set()
        self.version = 0

    def set_weights(self, key: RouteKey, weights: dict[str, float]) -> None:
        """Hand-edit one rule; weights are validated and normalised, and
        every other rule stays as it is."""
        items = tuple(weights.items())
        if self._given.get(key) == items:
            return
        self._rules[key] = _normalise(key, items)
        self._given[key] = items
        self._keys.setdefault(key.src_cluster, set()).add(key)
        self._edited.add(key)
        self.version += 1

    def install(self, entries, sources=None) -> None:
        """Push ``(key, weight items)`` entries: for each source cluster in
        the collection ``sources`` (by default every source in the table
        or the push), that source's rules become exactly the push's.

        The whole push is validated before anything is swapped. An entry
        whose items equal those its key was last given is not normalised
        again, and ``version`` moves once if any rule was installed or
        retired.
        """
        entries = list(entries)
        if not entries and self._keys.keys().isdisjoint(
                self._keys if sources is None else sources):
            return   # nothing to install and nothing to retire
        pushed = dict(entries)
        if len(pushed) != len(entries):
            raise ValueError("a push holds two rules for one key")
        given = self._given
        fresh = {key: _normalise(key, items) for key, items in entries
                 if given.get(key) != items}
        kept = {source: set(keys) for source, keys in
                groupby(sorted(pushed, key=_SOURCE), _SOURCE)}
        if sources is None:
            sources = self._keys.keys() | kept.keys()
        elif stray := kept.keys() - set(sources):
            raise ValueError(f"a push for {sorted(sources)} holds rules "
                             f"of {sorted(stray)}")
        retired = [key for source in sources
                   for key in self._keys.get(source, set()) - pushed.keys()]
        for key in retired:
            del self._rules[key], given[key]
        if self._edited:
            self._edited.difference_update(pushed.keys(), retired)
        self._rules.update(fresh)
        given.update((key, pushed[key]) for key in fresh)
        for source in sources:
            self._keys.pop(source, None)
        self._keys.update(kept)
        if fresh or retired:
            self.version += 1

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

    def hand_edits(self) -> frozenset[RouteKey]:
        """The keys whose rule :meth:`set_weights` installed and no push
        has replaced or retired since."""
        return frozenset(self._edited)

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
