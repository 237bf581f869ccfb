"""Intra-cluster load-balancing policies.

§2 of the paper: "load balancing of requests among service replicas is done
locally at each sidecar and uses relatively simple policies like round-robin,
consistent hashing, or least outstanding requests." These are the policies
the survey respondents rely on today; SLATE keeps them for the *within-
cluster* replica choice after its rules pick the cluster.

The simulator's replica pools expose a single FIFO queue per (service,
cluster), which subsumes the replica choice for queueing purposes, so these
balancers are exercised by tests and available to library users embedding
their own endpoint model. ``WeightedRandomSelector`` is the one component in
the request path: proxies use it to realise SLATE's fractional cluster
weights.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
from typing import Protocol, Sequence

import numpy as np

__all__ = ["Endpoint", "LoadBalancer", "RoundRobinBalancer",
           "LeastOutstandingBalancer", "ConsistentHashBalancer",
           "WeightedChoice", "WeightedRandomSelector"]

#: a validated weight map ready to draw from:
#: (names, running weight sums in name order, total weight)
WeightedChoice = tuple[tuple[str, ...], tuple[float, ...], float]


class Endpoint(Protocol):
    """What a balancer needs to know about a backend."""

    name: str
    outstanding: int


class LoadBalancer(Protocol):
    """Picks one endpoint for a request."""

    def pick(self, endpoints: Sequence[Endpoint],
             key: str | None = None) -> Endpoint: ...


def _require_endpoints(endpoints: Sequence[Endpoint]) -> None:
    if not endpoints:
        raise ValueError("cannot balance over an empty endpoint list")


class RoundRobinBalancer:
    """Classic round-robin; state survives endpoint-set changes by index."""

    def __init__(self) -> None:
        self._next = 0

    def pick(self, endpoints: Sequence[Endpoint],
             key: str | None = None) -> Endpoint:
        _require_endpoints(endpoints)
        choice = endpoints[self._next % len(endpoints)]
        self._next += 1
        return choice


class LeastOutstandingBalancer:
    """Pick the endpoint with the fewest in-flight requests.

    Ties break by position for determinism (Envoy uses power-of-two-choices;
    exhaustive min is equivalent for the small replica counts tested here).
    """

    def pick(self, endpoints: Sequence[Endpoint],
             key: str | None = None) -> Endpoint:
        _require_endpoints(endpoints)
        return min(endpoints, key=lambda e: e.outstanding)


class ConsistentHashBalancer:
    """Ring consistent hashing on a request key (session affinity).

    ``vnodes`` virtual nodes per endpoint smooth the distribution; removing
    an endpoint only remaps keys that hashed to its arcs.
    """

    def __init__(self, vnodes: int = 64) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self._vnodes = vnodes
        self._ring: list[tuple[int, int]] = []   # (hash, endpoint index)
        self._ring_names: tuple[str, ...] = ()

    @staticmethod
    def _hash(value: str) -> int:
        return int.from_bytes(
            hashlib.sha256(value.encode("utf-8")).digest()[:8], "big")

    def _rebuild(self, endpoints: Sequence[Endpoint]) -> None:
        ring = []
        for index, endpoint in enumerate(endpoints):
            for vnode in range(self._vnodes):
                ring.append((self._hash(f"{endpoint.name}#{vnode}"), index))
        ring.sort()
        self._ring = ring
        self._ring_names = tuple(e.name for e in endpoints)

    def pick(self, endpoints: Sequence[Endpoint],
             key: str | None = None) -> Endpoint:
        _require_endpoints(endpoints)
        if key is None:
            raise ValueError("consistent hashing requires a request key")
        names = tuple(e.name for e in endpoints)
        if names != self._ring_names:
            self._rebuild(endpoints)
        point = self._hash(key)
        hashes = [h for h, _ in self._ring]
        slot = bisect.bisect_right(hashes, point) % len(self._ring)
        return endpoints[self._ring[slot][1]]


class WeightedRandomSelector:
    """Sample a name according to normalised weights.

    This realises SLATE's fractional routing rules per request: over many
    requests the empirical split converges to the rule's weights. A rule
    changes far less often than it is drawn from, so realising one is two
    steps: :meth:`compile` validates a weight map once into a
    :data:`WeightedChoice`; :meth:`draw` samples it with one uniform draw
    and a bisection. :meth:`pick` does both for a one-off map.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng

    @staticmethod
    def compile(weights: dict[str, float]) -> WeightedChoice:
        """Validate ``weights`` into ``(names, running sums, total)``.

        Names keep the map's order. The running sums are formed by one
        IEEE addition per name in that order and the total by numpy's
        ``sum`` — which differs from the last running sum in the final bit
        once there are 8 or more names — so a compiled draw lands exactly
        where a draw that re-derived both per call would.
        """
        if not weights:
            raise ValueError("empty weight map")
        values = np.fromiter(weights.values(), dtype=float)
        total = float(values.sum())
        if total <= 0:
            raise ValueError(f"weights sum to {total}, need > 0")
        return (tuple(weights), tuple(itertools.accumulate(values.tolist())),
                total)

    def draw(self, choice: WeightedChoice) -> str:
        """Sample one name; a single candidate consumes no randomness."""
        names, cumulative, total = choice
        if len(names) == 1:
            return names[0]
        # first name whose running sum exceeds the point; the clamp covers
        # the floating-point edge point == total
        index = bisect.bisect_right(cumulative, self._rng.random() * total)
        return names[min(index, len(names) - 1)]

    def pick(self, weights: dict[str, float]) -> str:
        return self.draw(self.compile(weights))
