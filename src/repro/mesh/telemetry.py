"""Telemetry: what SLATE-proxies measure and controllers consume.

Per §3.1, each proxy reports "the load on the service, request specific
information, latency, trace information, and request traffic classes". Here
a :class:`ProxyTelemetry` per cluster accumulates span- and request-level
counters over an epoch; ``harvest`` produces a :class:`ClusterEpochReport`
(what a Cluster Controller relays upward, already tagged with the cluster
id, §3.2). :class:`RunTelemetry` is the whole-run store: every finished
request (end-to-end latencies for the CDFs of Fig. 6) and, in a traced run,
every span.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..sim.request import Request, Span
from ..sim.service import PoolStats

__all__ = ["ServiceClassWindow", "ClusterEpochReport", "ProxyTelemetry",
           "RunTelemetry"]


@dataclass
class ServiceClassWindow:
    """Counters for one (service, traffic class) in one cluster and epoch."""

    arrivals: int = 0
    completions: int = 0
    latency_sum: float = 0.0
    exec_sum: float = 0.0
    queue_wait_sum: float = 0.0
    remote_arrivals: int = 0

    def observe(self, span: Span) -> None:
        # once per span: Span.total_time / queue_wait / remote, inlined
        enqueue_time = span.enqueue_time
        caller_cluster = span.caller_cluster
        self.completions += 1
        self.latency_sum += span.end_time - enqueue_time
        self.exec_sum += span.exec_time
        self.queue_wait_sum += span.start_time - enqueue_time
        if caller_cluster is not None and caller_cluster != span.cluster:
            self.remote_arrivals += 1

    @property
    def mean_latency(self) -> float:
        """Mean span time (queue + compute + downstream), seconds."""
        return self.latency_sum / self.completions if self.completions else 0.0

    @property
    def mean_exec(self) -> float:
        return self.exec_sum / self.completions if self.completions else 0.0

    @property
    def mean_queue_wait(self) -> float:
        return (self.queue_wait_sum / self.completions
                if self.completions else 0.0)


@dataclass
class ClusterEpochReport:
    """One cluster's aggregated telemetry for one epoch."""

    cluster: str
    start_time: float
    duration: float
    #: (service, traffic class) → window counters
    service_class: dict[tuple[str, str], ServiceClassWindow] = field(
        default_factory=dict)
    #: service → replica-pool stats (utilization, queue wait)
    pool_stats: dict[str, PoolStats] = field(default_factory=dict)
    #: traffic class → requests that entered at this cluster's gateway
    ingress_counts: dict[str, int] = field(default_factory=dict)
    #: e2e latencies of requests that ingressed here and completed this epoch
    request_latencies: list[float] = field(default_factory=list)
    #: sampled raw spans ("trace information", §3.1) for structure learning
    span_samples: list[Span] = field(default_factory=list)

    def ingress_rps(self, traffic_class: str) -> float:
        """Observed ingress demand for a class, requests/second."""
        if self.duration <= 0:
            return 0.0
        return self.ingress_counts.get(traffic_class, 0) / self.duration

    def service_rps(self, service: str, traffic_class: str) -> float:
        """Observed completion rate at (service, class), requests/second."""
        if self.duration <= 0:
            return 0.0
        window = self.service_class.get((service, traffic_class))
        return window.completions / self.duration if window else 0.0


class ProxyTelemetry:
    """Epoch accumulator for one cluster's proxies and gateway.

    ``trace_sample_rate`` controls how many raw spans are attached to epoch
    reports for structure learning: each span is kept independently with
    that probability, drawn from the supplied (seeded) generator so runs
    stay reproducible. Bernoulli sampling matters: deterministic stride
    sampling aliases against the periodic span patterns a call chain emits
    (FR, MP, FR, MP, ...) and wrecks the learned fan-out ratios. 0 disables
    span forwarding; aggregated windows are always kept.
    """

    def __init__(self, cluster: str, trace_sample_rate: float = 0.0,
                 rng=None) -> None:
        if not 0.0 <= trace_sample_rate <= 1.0:
            raise ValueError(
                f"trace_sample_rate must be in [0, 1], got {trace_sample_rate}")
        if trace_sample_rate > 0 and trace_sample_rate < 1 and rng is None:
            raise ValueError(
                "fractional trace sampling requires an rng for "
                "reproducible draws")
        self.cluster = cluster
        self._windows: dict[tuple[str, str], ServiceClassWindow] = {}
        self._ingress: dict[str, int] = {}
        # bulk blocks: the (service, class) keys and traffic classes the
        # held columns are indexed by, and the columns themselves —
        # completions, latency, exec and queue-wait sums, remote arrivals
        self._bulk_keys: tuple[tuple[str, str], ...] = ()
        self._bulk: tuple[np.ndarray, ...] = _bulk_block(0)
        self._ingress_classes: tuple[str, ...] = ()
        self._ingress_block = np.zeros(0, dtype=np.int64)
        self._latencies: list[float] = []
        self._window_start = 0.0
        self._span_samples: list[Span] = []
        self._sample_rate = trace_sample_rate
        self._rng = rng

    def record_span(self, span: Span) -> None:
        if span.cluster != self.cluster:
            raise ValueError(
                f"span for cluster {span.cluster!r} reported to telemetry of "
                f"{self.cluster!r}")
        key = (span.service, span.traffic_class)
        window = self._windows.get(key)
        if window is None:
            window = self._windows[key] = ServiceClassWindow()
        window.observe(span)
        if self._sample_rate >= 1.0:
            self._span_samples.append(span)
        elif self._sample_rate > 0 and self._rng.random() < self._sample_rate:
            self._span_samples.append(span)

    def record_ingress(self, request: Request) -> None:
        cls = request.traffic_class
        self._ingress[cls] = self._ingress.get(cls, 0) + 1

    def record_ingress_bulk(self, classes: tuple[str, ...],
                            counts: np.ndarray) -> None:
        """Meter a block of fluid-mode admissions without Request objects.

        ``counts[i]`` requests of ``classes[i]`` entered here. Keeps
        :meth:`ClusterEpochReport.ingress_rps` — the signal adaptive
        policies re-plan on — meaningful when demand arrives as bulk flow.
        Blocks for the same ``classes`` add up in place; :meth:`harvest`
        (or a block for other classes) folds them into ``ingress_counts``.
        """
        _check_block(classes, counts)
        if (classes is not self._ingress_classes
                and classes != self._ingress_classes):
            self._fold_ingress()
            self._ingress_classes = classes
            self._ingress_block = np.zeros(len(classes), dtype=np.int64)
        self._ingress_block += counts

    def observe_bulk(self, keys: tuple[tuple[str, str], ...],
                     completions: np.ndarray, latency_sum: np.ndarray,
                     exec_sum: np.ndarray, queue_wait_sum: np.ndarray,
                     remote_arrivals: np.ndarray) -> None:
        """Fold a tick's bulk flow through a block of windows.

        The fluid substrate's counterpart of :meth:`record_span`: entry
        ``i`` of each column is the tick's total for the (service, class)
        window ``keys[i]``, its sums coming from the M/M/c solution (wait +
        compute per request) rather than from individual spans, so
        :meth:`ClusterEpochReport.service_rps` and the window means read
        the same under either fidelity. Blocks for the same ``keys`` add
        up in place; :meth:`harvest` (or a block for other keys) folds
        them into the windows. Bulk windows never contribute span samples
        — structure learning sees only the sampled event slice.
        """
        _check_block(keys, completions, remote_arrivals)
        if keys is not self._bulk_keys and keys != self._bulk_keys:
            self._fold_bulk()
            self._bulk_keys = keys
            self._bulk = _bulk_block(len(keys))
        held_completions, held_latency, held_exec, held_wait, held_remote = (
            self._bulk)
        held_completions += completions
        held_latency += latency_sum
        held_exec += exec_sum
        held_wait += queue_wait_sum
        held_remote += remote_arrivals

    def _fold_bulk(self) -> None:
        """Add the held window block into the windows and zero it."""
        keys = self._bulk_keys
        columns = self._bulk
        touched = np.flatnonzero(np.logical_or.reduce(
            [column != 0 for column in columns]))
        windows = self._windows
        for index, completions, latency, exec_sum, wait, remote in zip(
                touched.tolist(), *(column[touched].tolist()
                                    for column in columns)):
            key = keys[index]
            window = windows.get(key)
            if window is None:
                window = windows[key] = ServiceClassWindow()
            window.completions += completions
            window.latency_sum += latency
            window.exec_sum += exec_sum
            window.queue_wait_sum += wait
            window.remote_arrivals += remote
        for column in columns:
            column[touched] = 0

    def _fold_ingress(self) -> None:
        """Add the held ingress block into the counts and zero it."""
        classes = self._ingress_classes
        block = self._ingress_block
        touched = np.flatnonzero(block)
        ingress = self._ingress
        for index, count in zip(touched.tolist(), block[touched].tolist()):
            cls = classes[index]
            ingress[cls] = ingress.get(cls, 0) + count
        block[touched] = 0

    def record_completion(self, request: Request) -> None:
        self._latencies.append(request.latency)

    def harvest(self, now: float,
                pool_stats: dict[str, PoolStats]) -> ClusterEpochReport:
        """Produce this epoch's report and reset the accumulators."""
        self._fold_bulk()
        self._fold_ingress()
        report = ClusterEpochReport(
            cluster=self.cluster,
            start_time=self._window_start,
            duration=now - self._window_start,
            service_class=self._windows,
            pool_stats=pool_stats,
            ingress_counts=self._ingress,
            request_latencies=self._latencies,
            span_samples=self._span_samples,
        )
        self._windows = {}
        self._ingress = {}
        self._latencies = []
        self._span_samples = []
        self._window_start = now
        return report


def _bulk_block(size: int) -> tuple[np.ndarray, ...]:
    """Zeroed window columns: completions, latency, exec and queue-wait
    sums, remote arrivals."""
    return (np.zeros(size, dtype=np.int64), np.zeros(size), np.zeros(size),
            np.zeros(size), np.zeros(size, dtype=np.int64))


def _check_block(keys: tuple, *counts: np.ndarray) -> None:
    """Reject a bulk block whose counts are negative or mis-sized."""
    for column in counts:
        if len(column) != len(keys):
            raise ValueError(f"bulk block of {len(column)} entries for "
                             f"{len(keys)} keys")
        if column.min(initial=0) < 0:
            raise ValueError("bulk counts must be >= 0")


class RunTelemetry:
    """The whole-run store of finished requests and spans: what offline
    analysis (latency CDFs, warm-up cut, exports) and the tracer read.

    Every completed and failed request is kept. With ``tracing`` every
    finished span is kept too, in finish order; an untraced run keeps no
    span list (``spans`` is None), so it pays nothing per span.
    """

    def __init__(self, tracing: bool = False) -> None:
        self.requests: list[Request] = []
        self.failed_requests: list[Request] = []
        self.spans: list[Span] | None = [] if tracing else None
        #: lifetime counters, covering bulk (fluid) outcomes too
        self.completed_count = 0
        self.failed_count = 0
        #: per-traffic-class lifetime counters (the scrape loop and SLO
        #: error-rate rules read these)
        self.completed_by_class: dict[str, int] = {}
        self.failed_by_class: dict[str, int] = {}

    def record_completion(self, request: Request) -> None:
        self.completed_count += 1
        cls = request.traffic_class
        self.completed_by_class[cls] = self.completed_by_class.get(cls, 0) + 1
        self.requests.append(request)

    def record_failure(self, request: Request) -> None:
        self.failed_count += 1
        cls = request.traffic_class
        self.failed_by_class[cls] = self.failed_by_class.get(cls, 0) + 1
        self.failed_requests.append(request)

    def record_bulk(self, traffic_class: str, completed: int,
                    failed: int = 0) -> None:
        """Account a batch of fluid-mode outcomes (counters only).

        Bulk traffic never materialises :class:`Request` objects, so the
        retained-request lists are untouched — :meth:`latencies` keeps
        returning only the sampled event-level slice, while the lifetime
        counters (what the scrape loop and SLO error-rate rules read)
        cover the full simulated load.
        """
        if completed < 0 or failed < 0:
            raise ValueError("bulk counts must be >= 0")
        if completed:
            self.completed_count += completed
            self.completed_by_class[traffic_class] = (
                self.completed_by_class.get(traffic_class, 0) + completed)
        if failed:
            self.failed_count += failed
            self.failed_by_class[traffic_class] = (
                self.failed_by_class.get(traffic_class, 0) + failed)

    def record_span(self, span: Span) -> None:
        """Keep one finished span (traced runs only)."""
        self.spans.append(span)

    def latencies(self, after: float = 0.0) -> list[float]:
        """E2E latencies of requests arriving at/after ``after`` (warm-up cut)."""
        return [r.latency for r in self.requests
                if r.done and r.arrival_time >= after]

    def latencies_by_class(self, after: float = 0.0) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for request in self.requests:
            if request.done and request.arrival_time >= after:
                out.setdefault(request.traffic_class, []).append(request.latency)
        return out
