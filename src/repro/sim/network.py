"""Inter-cluster network: one-way delays, byte metering, egress billing.

The paper emulates WAN latency between Kubernetes clusters with ``tc netem``
using measured GCP inter-region VM-to-VM latencies (§4.2). Here the network
is a full mesh of cluster pairs, each with a one-way propagation delay; every
transfer also meters the bytes leaving the source cluster against a per-pair
egress price — the quantity behind the paper's 11.6x egress-cost result
(§4.3).

Bandwidth is not modelled (the paper's experiments are latency- and
cost-bound, not throughput-bound); a transfer's duration is its one-way
delay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from .engine import Simulator

__all__ = ["LatencyMatrix", "LatencyOverride", "EgressPricing",
           "EgressLedger", "WanNetwork", "GB"]

GB = 1_000_000_000  # bytes, decimal as billed by cloud providers


def _pair(a: str, b: str) -> tuple[str, str]:
    """Canonical unordered cluster pair."""
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class LatencyOverride:
    """Opaque token for one scoped delay override on a :class:`LatencyMatrix`.

    Returned by :meth:`LatencyMatrix.apply_override`; pass it back to
    :meth:`LatencyMatrix.remove_override` to restore the pair. Tokens nest:
    removing one override leaves any others on the same pair in effect.
    """

    pair: tuple[str, str]
    extra_delay: float
    multiplier: float
    partition: bool


class LatencyMatrix:
    """Symmetric one-way delay (seconds) between clusters.

    Intra-cluster delay defaults to 0.25 ms (two pod-to-pod hops inside a
    data center), configurable per deployment.

    Base delays are fixed at construction; the chaos layer layers *scoped*
    dynamic overrides (inflation, multipliers, partitions) on top via
    :meth:`apply_override` / :meth:`remove_override`, each of which restores
    exactly on removal. With no overrides active the lookup path is the
    original single-dict probe.
    """

    def __init__(self, clusters: Iterable[str],
                 one_way_delays: Mapping[tuple[str, str], float],
                 intra_cluster_delay: float = 0.00025) -> None:
        self.clusters = tuple(clusters)
        if len(set(self.clusters)) != len(self.clusters):
            raise ValueError(f"duplicate cluster names in {self.clusters}")
        if intra_cluster_delay < 0:
            raise ValueError("intra_cluster_delay must be >= 0")
        self.intra_cluster_delay = intra_cluster_delay
        known = set(self.clusters)
        self._delays: dict[tuple[str, str], float] = {}
        for (a, b), delay in one_way_delays.items():
            if a == b:
                raise ValueError(
                    f"self-pair entry {(a, b)}: intra-cluster delay is set "
                    f"via intra_cluster_delay, not the pair map")
            unknown = {a, b} - known
            if unknown:
                raise ValueError(
                    f"delay entry {(a, b)} names unknown cluster(s) "
                    f"{sorted(unknown)}; clusters are {sorted(known)}")
            if delay < 0:
                raise ValueError(f"negative delay for {(a, b)}: {delay}")
            self._delays[_pair(a, b)] = delay
        missing = [
            (a, b)
            for i, a in enumerate(self.clusters)
            for b in self.clusters[i + 1:]
            if _pair(a, b) not in self._delays
        ]
        if missing:
            raise ValueError(f"missing inter-cluster delays for {missing}")
        self._overrides: dict[tuple[str, str], list[LatencyOverride]] = {}
        self._partitioned: int = 0
        #: bumped on every override change, so consumers that cache derived
        #: views of the matrix (the fluid substrate's RTT/partition caches)
        #: can invalidate without re-probing every pair
        self.revision: int = 0

    def apply_override(self, a: str, b: str, *, extra_delay: float = 0.0,
                       multiplier: float = 1.0,
                       partition: bool = False) -> LatencyOverride:
        """Inflate (or sever) the ``a``<->``b`` link until the token is removed.

        The effective one-way delay applies every active override in the
        order installed: ``delay = delay * multiplier + extra_delay``. A
        ``partition`` override additionally makes the pair unreachable for
        :class:`WanNetwork` transfers (the delay figure is still reported,
        so distance-based orderings remain total).
        """
        if a == b:
            raise ValueError(f"cannot override the intra-cluster pair {a!r}")
        pair = _pair(a, b)
        if pair not in self._delays:
            raise KeyError(f"no delay configured for {a!r}<->{b!r}")
        if extra_delay < 0:
            raise ValueError(f"extra_delay must be >= 0, got {extra_delay}")
        if multiplier < 0:
            raise ValueError(f"multiplier must be >= 0, got {multiplier}")
        token = LatencyOverride(pair, extra_delay, multiplier, partition)
        self._overrides.setdefault(pair, []).append(token)
        if partition:
            self._partitioned += 1
        self.revision += 1
        return token

    def remove_override(self, token: LatencyOverride) -> None:
        """Restore the link scoped by ``token`` (other overrides persist)."""
        stack = self._overrides.get(token.pair)
        if not stack or token not in stack:
            raise ValueError(f"override not active: {token}")
        stack.remove(token)
        if not stack:
            del self._overrides[token.pair]
        if token.partition:
            self._partitioned -= 1
        self.revision += 1

    @property
    def has_partitions(self) -> bool:
        return self._partitioned > 0

    def is_partitioned(self, src: str, dst: str) -> bool:
        """True when an active partition override severs ``src``<->``dst``."""
        if self._partitioned == 0 or src == dst:
            return False
        return any(ov.partition
                   for ov in self._overrides.get(_pair(src, dst), ()))

    def one_way(self, src: str, dst: str) -> float:
        """One-way delay in seconds from ``src`` to ``dst``."""
        if src == dst:
            return self.intra_cluster_delay
        try:
            delay = self._delays[_pair(src, dst)]
        except KeyError:
            raise KeyError(f"no delay configured for {src!r}<->{dst!r}") from None
        if self._overrides:
            for ov in self._overrides.get(_pair(src, dst), ()):
                delay = delay * ov.multiplier + ov.extra_delay
        return delay

    def rtt(self, src: str, dst: str) -> float:
        """Round-trip time in seconds."""
        return 2.0 * self.one_way(src, dst)

    @staticmethod
    def from_ms(clusters: Iterable[str],
                one_way_ms: Mapping[tuple[str, str], float],
                intra_cluster_delay_ms: float = 0.25) -> "LatencyMatrix":
        """Build from millisecond figures (how the paper reports them)."""
        delays = {pair: ms / 1000.0 for pair, ms in one_way_ms.items()}
        return LatencyMatrix(clusters, delays,
                             intra_cluster_delay=intra_cluster_delay_ms / 1000.0)


class EgressPricing:
    """Dollar cost per byte leaving a cluster toward another cluster.

    Cloud providers bill inter-region egress per GB; intra-cluster traffic is
    free. A flat default price applies unless a pair-specific price is set.
    """

    def __init__(self, default_price_per_gb: float = 0.02,
                 pair_prices_per_gb: Mapping[tuple[str, str], float] | None = None) -> None:
        if default_price_per_gb < 0:
            raise ValueError("price must be >= 0")
        self._default = default_price_per_gb / GB
        self._pairs: dict[tuple[str, str], float] = {}
        for (a, b), price in (pair_prices_per_gb or {}).items():
            if price < 0:
                raise ValueError(f"negative price for {(a, b)}")
            self._pairs[_pair(a, b)] = price / GB

    def per_byte(self, src: str, dst: str) -> float:
        """Price in dollars for one byte from ``src`` to ``dst``."""
        if src == dst:
            return 0.0
        return self._pairs.get(_pair(src, dst), self._default)

    def per_gb(self, src: str, dst: str) -> float:
        return self.per_byte(src, dst) * GB


@dataclass
class EgressLedger:
    """Accumulated cross-cluster traffic and its cost."""

    bytes_by_pair: dict[tuple[str, str], int] = field(default_factory=dict)
    cost_by_src: dict[str, float] = field(default_factory=dict)
    total_bytes: int = 0
    total_cost: float = 0.0

    def record(self, src: str, dst: str, nbytes: int, cost: float) -> None:
        key = (src, dst)
        self.bytes_by_pair[key] = self.bytes_by_pair.get(key, 0) + nbytes
        self.cost_by_src[src] = self.cost_by_src.get(src, 0.0) + cost
        self.total_bytes += nbytes
        self.total_cost += cost

    def reset(self) -> None:
        self.bytes_by_pair.clear()
        self.cost_by_src.clear()
        self.total_bytes = 0
        self.total_cost = 0.0


def _deliver(on_delivered: Callable[[], None]) -> None:
    """A transfer's arrival event.

    Scheduling this rather than ``on_delivered`` itself costs no
    allocation and keeps the arrival an event *of the network*, whatever
    callable the caller handed in.
    """
    on_delivered()


class WanNetwork:
    """Delivers messages between clusters with delay and egress billing.

    The chaos layer can attach per-pair *jitter* (a uniform random delay
    addition drawn from a named registry stream) and relies on
    :class:`LatencyMatrix` partition overrides to model a severed link:
    transfers on a partitioned pair are silently dropped — never billed,
    never delivered — and counted in ``dropped_transfers`` (the caller's
    timeout/hedge machinery is what notices, exactly as with a blackholed
    TCP flow).
    """

    def __init__(self, sim: Simulator, latency: LatencyMatrix,
                 pricing: EgressPricing | None = None) -> None:
        self._sim = sim
        self.latency = latency
        self.pricing = pricing or EgressPricing()
        self.ledger = EgressLedger()
        self.dropped_transfers = 0
        self.dropped_bytes = 0
        self._jitter: dict[tuple[str, str], tuple[float, object]] = {}

    def set_jitter(self, a: str, b: str, amplitude: float, rng) -> None:
        """Add uniform ``[0, amplitude)`` seconds to ``a``<->``b`` transfers.

        ``rng`` must be a registry-owned generator (e.g. the chaos layer's
        ``chaos/wan-jitter`` stream) so jittered runs stay reproducible and
        un-jittered runs never touch the stream.
        """
        if a == b:
            raise ValueError(f"cannot jitter the intra-cluster pair {a!r}")
        if amplitude < 0:
            raise ValueError(f"amplitude must be >= 0, got {amplitude}")
        self._jitter[_pair(a, b)] = (amplitude, rng)

    def clear_jitter(self, a: str, b: str) -> None:
        self._jitter.pop(_pair(a, b), None)

    def transfer(self, src: str, dst: str, nbytes: int,
                 on_delivered: Callable[[], None]) -> None:
        """Send ``nbytes`` from ``src`` to ``dst``; fire callback on arrival.

        Cross-cluster transfers are billed to ``src`` (the cluster the data
        leaves). Intra-cluster transfers incur only the intra-cluster delay.
        Transfers across a partitioned pair are dropped: no billing, no
        delivery callback.
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        if src != dst:
            if (self.latency.has_partitions
                    and self.latency.is_partitioned(src, dst)):
                self.dropped_transfers += 1
                self.dropped_bytes += nbytes
                return
            if nbytes:
                cost = nbytes * self.pricing.per_byte(src, dst)
                self.ledger.record(src, dst, nbytes, cost)
        delay = self.latency.one_way(src, dst)
        if self._jitter and src != dst:
            jitter = self._jitter.get(_pair(src, dst))
            if jitter is not None:
                amplitude, rng = jitter
                delay += amplitude * float(rng.random())
        self._sim.schedule(delay, _deliver, on_delivered)
