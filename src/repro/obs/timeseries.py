"""Sim-time time-series pipeline: ring-buffered series and the scrape loop.

PR 3's metrics registry answers "what state was the mesh in *at the end*";
this module answers "and *when* did it get there". A :class:`ScrapeLoop`
scheduled inside the discrete-event engine samples engine, pool, gateway,
WAN-ledger, telemetry, and routing-table state every ``scrape_interval``
simulated seconds into a :class:`TimeSeriesStore` of labeled, ring-buffered
:class:`TimeSeries` — the continuously scraped signals production TE systems
(Demand Engineering, TraDE) drive their control loops with.

Everything is *pull-based* and read-only: a scrape tick reads counters the
mesh already maintains, never draws randomness, and never mutates simulated
state, so enabling the pipeline cannot perturb a run's outcome (asserted in
``tests/test_obs_timeseries.py``). All timestamps are virtual seconds.

Windowed queries (:meth:`TimeSeries.window`, :meth:`TimeSeries.value_at`,
:func:`percentile`, :meth:`TimeSeriesStore.rate`) turn the raw samples into
the sliding p50/p95/p99, request/egress rates, and routing-churn signals the
SLO burn-rate engine (:mod:`repro.obs.slo`) evaluates each scrape.
"""

from __future__ import annotations

import math
import weakref
from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING

from .collect import walk_state
from .reading import TableWatcher

if TYPE_CHECKING:  # imports for annotations only — obs stays decoupled
    from ..sim.runner import MeshSimulation
    from .anomaly import AnomalyEngine
    from .forecast import BreachPredictor, ForecastEngine
    from .slo import SloEngine

__all__ = ["DEFAULT_MAX_POINTS", "ScrapeLoop", "TimeSeries",
           "TimeSeriesStore", "percentile"]

#: default ring-buffer capacity per series (points, not seconds)
DEFAULT_MAX_POINTS = 4096

#: a labeled series key: sorted (label, value) pairs (same shape metrics use)
_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile of ``values`` (``q`` in [0, 1]).

    Deterministic and dependency-free (no numpy on the scrape path); an
    empty input returns 0.0 so windows with no completions stay plottable.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    position = q * (len(ordered) - 1)
    low = int(math.floor(position))
    high = int(math.ceil(position))
    if low == high:
        return float(ordered[low])
    frac = position - low
    return float(ordered[low] * (1.0 - frac) + ordered[high] * frac)


class TimeSeries:
    """One labeled series: a time-ordered ring buffer of (t, value) points.

    Appends must be time-monotone (the scrape loop's clock is the engine's
    clock, which only moves forward). When the buffer is full the oldest
    point is evicted and ``dropped_points`` counts the loss, so long runs
    are bounded in memory and truncation is never silent.
    """

    __slots__ = ("name", "labels", "capacity", "dropped_points",
                 "_times", "_values", "_head")

    def __init__(self, name: str, labels: _LabelKey = (),
                 capacity: int = DEFAULT_MAX_POINTS) -> None:
        if capacity < 2:
            raise ValueError(f"capacity must be >= 2, got {capacity}")
        self.name = name
        self.labels = labels
        self.capacity = capacity
        self.dropped_points = 0
        # the retained points are ``_times[_head:]`` (and ``_values``):
        # eviction advances ``_head``, and the evicted prefix is cut off
        # once it is as long as the buffer, so an append at capacity is
        # amortised O(1) instead of a shift of every retained point.
        # Both lists stay sorted, so the window queries bisect from _head
        self._times: list[float] = []
        self._values: list[float] = []
        self._head = 0

    def __len__(self) -> int:
        return len(self._times) - self._head

    def append(self, time: float, value: float) -> None:
        times = self._times
        if times and time < times[-1]:
            raise ValueError(
                f"series {self.name!r}: non-monotone append at t={time} "
                f"(last t={times[-1]})")
        if len(times) - self._head >= self.capacity:
            self._head += 1
            self.dropped_points += 1
            if self._head >= self.capacity:
                del times[:self._head]
                del self._values[:self._head]
                self._head = 0
        times.append(time)
        self._values.append(value)

    def items(self) -> list[tuple[float, float]]:
        """All retained points, oldest first."""
        head = self._head
        return list(zip(self._times[head:], self._values[head:]))

    def tail(self, count: int) -> list[tuple[float, float]]:
        """The newest ``count`` retained points (all of them when fewer
        remain), oldest first."""
        start = max(self._head, len(self._times) - count)
        return list(zip(self._times[start:], self._values[start:]))

    def window(self, start: float, end: float) -> list[tuple[float, float]]:
        """Points with ``start <= t <= end``, oldest first."""
        lo = bisect_left(self._times, start, self._head)
        hi = bisect_right(self._times, end, lo)
        return list(zip(self._times[lo:hi], self._values[lo:hi]))

    def value_at(self, time: float, default: float = 0.0) -> float:
        """Step-function read: the last value at or before ``time``.

        ``default`` covers reads before the first sample — for the
        cumulative counters the SLO engine windows over, 0.0 is the correct
        "before the run started" value.
        """
        index = bisect_right(self._times, time, self._head)
        if index == self._head:
            return default
        return self._values[index - 1]

    @property
    def last(self) -> tuple[float, float] | None:
        if not self._times:
            return None
        return self._times[-1], self._values[-1]

    def values(self) -> list[float]:
        return self._values[self._head:]

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "capacity": self.capacity,
            "dropped_points": self.dropped_points,
            "points": [[t, v] for t, v in self.items()],
        }

    def __repr__(self) -> str:
        labels = ",".join(f"{k}={v}" for k, v in self.labels)
        return f"TimeSeries({self.name}{{{labels}}}, points={len(self)})"


class TimeSeriesStore:
    """Named, labeled time series with bounded ring buffers.

    >>> store = TimeSeriesStore()
    >>> store.record("queue_depth", 1.0, 3, cluster="west")
    >>> store.series("queue_depth", cluster="west").last
    (1.0, 3.0)
    """

    def __init__(self, max_points: int = DEFAULT_MAX_POINTS) -> None:
        if max_points < 2:
            raise ValueError(f"max_points must be >= 2, got {max_points}")
        self.max_points = max_points
        self._series: dict[str, dict[_LabelKey, TimeSeries]] = {}
        #: completed scrape ticks (set by the ScrapeLoop)
        self.scrape_count = 0

    # ----------------------------------------------------------- recording

    def record(self, name: str, time: float, value: float,
               **labels: str) -> None:
        """Append one sample, creating the series on first use."""
        key = _label_key(labels)
        by_label = self._series.get(name)
        if by_label is None:
            by_label = self._series[name] = {}
        series = by_label.get(key)
        if series is None:
            series = by_label[key] = TimeSeries(name, key,
                                                capacity=self.max_points)
        series.append(time, float(value))

    # ------------------------------------------------------------- queries

    def names(self) -> list[str]:
        return sorted(self._series)

    def series(self, name: str, **labels: str) -> TimeSeries | None:
        """One exact (name, labels) series, or None."""
        return self._series.get(name, {}).get(_label_key(labels))

    def all_series(self, name: str) -> list[TimeSeries]:
        """Every labeled series under one name, label-sorted."""
        by_label = self._series.get(name, {})
        return [by_label[key] for key in sorted(by_label)]

    def series_count(self) -> int:
        return sum(len(by_label) for by_label in self._series.values())

    def rate(self, name: str, start: float, end: float,
             **labels: str) -> float:
        """Windowed rate of a cumulative counter series: Δvalue / Δt.

        Uses step-function reads at the window edges so the result is
        exact for counters sampled on scrape boundaries; returns 0.0 when
        the series is missing or the window is empty.
        """
        if end <= start:
            return 0.0
        series = self.series(name, **labels)
        if series is None:
            return 0.0
        return (series.value_at(end) - series.value_at(start)) / (end - start)

    def window_percentile(self, name: str, start: float, end: float,
                          q: float, **labels: str) -> float:
        """Percentile of a series' sampled values inside a window."""
        series = self.series(name, **labels)
        if series is None:
            return 0.0
        return percentile([v for _, v in series.window(start, end)], q)

    # ------------------------------------------------------------- exports

    def snapshot(self) -> dict:
        """JSON-friendly dump: round-trips via :meth:`from_snapshot`."""
        return {
            "max_points": self.max_points,
            "scrape_count": self.scrape_count,
            "series": [self._series[name][key].as_dict()
                       for name in self.names()
                       for key in sorted(self._series[name])],
        }

    @classmethod
    def from_snapshot(cls, payload: dict) -> "TimeSeriesStore":
        """Rebuild a store from :meth:`snapshot` output (diff engine)."""
        store = cls(max_points=int(payload.get("max_points",
                                               DEFAULT_MAX_POINTS)))
        store.scrape_count = int(payload.get("scrape_count", 0))
        for entry in payload.get("series", []):
            name = entry["name"]
            labels = {str(k): str(v)
                      for k, v in entry.get("labels", {}).items()}
            for time, value in entry.get("points", []):
                store.record(name, float(time), float(value), **labels)
            series = store.series(name, **labels)
            if series is not None:
                series.dropped_points = int(entry.get("dropped_points", 0))
        return store

    def __repr__(self) -> str:
        return (f"TimeSeriesStore(names={len(self._series)}, "
                f"series={self.series_count()}, scrapes={self.scrape_count})")


class ScrapeLoop:
    """Samples a :class:`~repro.sim.runner.MeshSimulation` every interval.

    Construction binds the loop to one simulation (done by
    :meth:`~repro.obs.config.Observability.attach`); ``install`` schedules
    the periodic ticks inside the discrete-event engine; ``finalize`` takes
    one last sample after the drain so the terminal state is visible.

    Each tick records:

    * the scraped metrics of :func:`~repro.obs.collect.walk_state` —
      engine depth and event count, per-(service, cluster) pool queue
      depth / busy replicas / utilization, per-cluster gateway counters,
      per-(src, dst) WAN egress bytes and total egress cost, and
      dropped/timed-out/hedged call counters — the same walk, names and
      values the end-of-run metrics registry takes;
    * per-class completion counters, windowed request rate, and sliding
      p50/p95/p99 end-to-end latency;
    * routing-table size/version and the L1 weight churn since the
      previous scrape (the "routing flap" signal).

    After sampling, an attached :class:`~repro.obs.slo.SloEngine` is
    evaluated against the fresh samples (burn rates, alert state machine).
    """

    #: percentiles recorded per scrape window, as (suffix, q)
    PERCENTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))

    def __init__(self, store: TimeSeriesStore, simulation: "MeshSimulation",
                 interval: float,
                 slo_engine: "SloEngine | None" = None,
                 forecast_engine: "ForecastEngine | None" = None,
                 anomaly_engine: "AnomalyEngine | None" = None,
                 breach_predictor: "BreachPredictor | None" = None) -> None:
        if not interval > 0:   # NaN fails every comparison
            raise ValueError(f"scrape_interval must be > 0, got {interval}")
        self.store = store
        self._simulation = weakref.ref(simulation)
        self.interval = interval
        self.slo_engine = slo_engine
        self.forecast_engine = forecast_engine
        self.anomaly_engine = anomaly_engine
        self.breach_predictor = breach_predictor
        #: cursor into the run telemetry's per-request retention
        self._completed_cursor = 0
        self._last_sample_time: float | None = None
        #: the routing table at the last scrape (empty before the first)
        self._table = TableWatcher()

    @property
    def simulation(self) -> "MeshSimulation":
        """The simulation this loop samples, held weakly: it owns the
        loop (through its observability runtime), and an owning edge back
        would keep every finished run alive until a full collection."""
        return self._simulation()

    # -------------------------------------------------------- scheduling

    def install(self, duration: float) -> int:
        """Schedule ticks strictly inside (0, duration); returns the count.

        The final boundary is deliberately left to :meth:`finalize`, which
        the runner calls after the drain — a self-rescheduling event would
        keep ``run_until_idle`` from ever quiescing.
        """
        return self.simulation.sim.schedule_periodic(
            self.interval, self._tick, duration)

    def finalize(self) -> None:
        """One last sample at the current (post-drain) engine time."""
        now = self.simulation.sim.now
        if self._last_sample_time is not None and now <= self._last_sample_time:
            return
        self._tick()

    def _tick(self) -> None:
        self.sample()

    # ----------------------------------------------------------- sampling

    def sample(self) -> None:
        """Take one sample of everything. Read-only against the mesh."""
        simulation = self.simulation
        store = self.store
        now = simulation.sim.now

        for metric, labels, value in walk_state(simulation):
            if metric.scraped:
                store.record(metric.name, now, value, **labels)
        new_latencies = self._sample_requests(now)
        self._sample_routing(now)

        if self.slo_engine is not None:
            self.slo_engine.observe(now, new_latencies, simulation)
        # predictive pillar: each engine consumes only the points already
        # recorded above (pure reads of the store, never the mesh), so
        # ordering is scrape -> SLO -> anomaly -> forecast -> breach
        if self.anomaly_engine is not None:
            self.anomaly_engine.sample(now)
        if self.forecast_engine is not None:
            self.forecast_engine.sample(now)
        if self.breach_predictor is not None:
            self.breach_predictor.sample(now)
        self._last_sample_time = now
        store.scrape_count += 1

    def _sample_requests(self, now: float) -> dict[str, list[float]]:
        """Per-class counters, window rates, and window latency percentiles.

        Returns the end-to-end latencies completed since the previous
        scrape, keyed by traffic class (what the SLO engine counts against
        its thresholds).
        """
        store = self.store
        telemetry = self.simulation.telemetry
        window = (now - self._last_sample_time
                  if self._last_sample_time is not None else now)

        for cls in sorted(telemetry.completed_by_class):
            store.record("requests_completed_total", now,
                         telemetry.completed_by_class[cls],
                         traffic_class=cls)
        for cls in sorted(telemetry.failed_by_class):
            store.record("requests_failed_total", now,
                         telemetry.failed_by_class[cls], traffic_class=cls)

        new_latencies: dict[str, list[float]] = {}
        fresh = telemetry.requests[self._completed_cursor:]
        self._completed_cursor = len(telemetry.requests)
        for request in fresh:
            new_latencies.setdefault(request.traffic_class,
                                     []).append(request.latency)
        for cls in sorted(new_latencies):
            values = new_latencies[cls]
            if window > 0:
                store.record("request_rate_rps", now,
                             len(values) / window, traffic_class=cls)
            for suffix, q in self.PERCENTILES:
                store.record(f"request_latency_{suffix}", now,
                             percentile(values, q), traffic_class=cls)
        return new_latencies

    def _sample_routing(self, now: float) -> None:
        """Routing-table churn: L1 weight distance since the last scrape."""
        table = self.simulation.table
        churn = sum(change.churn for change in self._table.look(table))
        self.store.record("routing_rules", now, len(self._table.rules))
        self.store.record("routing_table_version", now, table.version)
        self.store.record("routing_weight_churn", now, churn)

    def __repr__(self) -> str:
        return (f"ScrapeLoop(interval={self.interval}, "
                f"scrapes={self.store.scrape_count})")
