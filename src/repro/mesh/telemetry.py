"""Telemetry: what SLATE-proxies measure and controllers consume.

Per §3.1, each proxy reports "the load on the service, request specific
information, latency, trace information, and request traffic classes". Here
a :class:`ProxyTelemetry` per cluster accumulates span- and request-level
counters over an epoch; ``harvest`` produces a :class:`ClusterEpochReport`
(what a Cluster Controller relays upward, already tagged with the cluster
id, §3.2). :class:`RunTelemetry` additionally keeps raw end-to-end latencies
for offline analysis (CDFs — Fig. 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    def record_ingress_bulk(self, traffic_class: str, count: int) -> None:
        """Meter ``count`` fluid-mode admissions without Request objects.

        Keeps :meth:`ClusterEpochReport.ingress_rps` — the signal adaptive
        policies re-plan on — meaningful when demand arrives as bulk flow.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        self._ingress[traffic_class] = (
            self._ingress.get(traffic_class, 0) + count)

    def observe_bulk(self, service: str, traffic_class: str,
                     completions: int, latency_sum: float = 0.0,
                     exec_sum: float = 0.0, queue_wait_sum: float = 0.0,
                     remote_arrivals: int = 0) -> None:
        """Fold a tick's bulk flow through one (service, class) window.

        The fluid substrate's counterpart of :meth:`record_span`: the
        aggregate sums come from the M/M/c solution (wait + compute per
        request) rather than individual spans, so
        :meth:`ClusterEpochReport.service_rps` and the window means read
        the same under either fidelity. Bulk windows never contribute span
        samples — structure learning sees only the sampled event slice.
        """
        if completions < 0 or remote_arrivals < 0:
            raise ValueError("bulk window counts must be >= 0")
        key = (service, traffic_class)
        window = self._windows.get(key)
        if window is None:
            window = self._windows[key] = ServiceClassWindow()
        window.completions += completions
        window.latency_sum += latency_sum
        window.exec_sum += exec_sum
        window.queue_wait_sum += queue_wait_sum
        window.remote_arrivals += remote_arrivals

    def record_completion(self, request: Request) -> None:
        self._latencies.append(request.latency)

    def harvest(self, now: float,
                pool_stats: dict[str, PoolStats]) -> ClusterEpochReport:
        """Produce this epoch's report and reset the accumulators."""
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


class RunTelemetry:
    """Whole-run collection for offline analysis (latency CDFs, warm-up cut).

    ``keep_spans`` retains every span — useful for call-graph inference and
    debugging, off by default to bound memory on long runs.

    ``reservoir_size`` bounds memory on *long* runs: instead of retaining
    every completed request, a per-class reservoir sample (Algorithm R) of
    at most that many ``(arrival_time, latency)`` pairs is kept, each
    completion equally likely to survive. Sampling draws come from the
    supplied generator (a named :class:`~repro.sim.rng.RngRegistry` stream)
    so runs stay reproducible. Exact retention remains the default — figure
    reproduction wants every point — and exact completion/failure *counts*
    are maintained in both modes.
    """

    def __init__(self, keep_spans: bool = False,
                 reservoir_size: int | None = None, rng=None) -> None:
        if reservoir_size is not None:
            if reservoir_size < 1:
                raise ValueError(
                    f"reservoir_size must be >= 1, got {reservoir_size}")
            if rng is None:
                raise ValueError(
                    "reservoir sampling requires an rng for "
                    "reproducible draws")
        self.requests: list[Request] = []
        self.failed_requests: list[Request] = []
        self.spans: list[Span] = []
        self._keep_spans = keep_spans
        self._reservoir_size = reservoir_size
        self._rng = rng
        #: exact lifetime counters, maintained in both retention modes
        self.completed_count = 0
        self.failed_count = 0
        #: per-traffic-class lifetime counters, also retention-independent
        #: (the scrape loop and SLO error-rate rules read these)
        self.completed_by_class: dict[str, int] = {}
        self.failed_by_class: dict[str, int] = {}
        #: class → (arrival_time, latency) sample (reservoir mode only)
        self._reservoirs: dict[str, list[tuple[float, float]]] = {}
        self._seen_by_class: dict[str, int] = {}

    @property
    def reservoir_mode(self) -> bool:
        return self._reservoir_size is not None

    def record_completion(self, request: Request) -> None:
        self.completed_count += 1
        cls = request.traffic_class
        self.completed_by_class[cls] = self.completed_by_class.get(cls, 0) + 1
        if self._reservoir_size is None:
            self.requests.append(request)
            return
        seen = self._seen_by_class.get(cls, 0)
        bucket = self._reservoirs.get(cls)
        if bucket is None:
            bucket = self._reservoirs[cls] = []
        if seen < self._reservoir_size:
            bucket.append((request.arrival_time, request.latency))
        else:
            slot = int(self._rng.integers(seen + 1))
            if slot < self._reservoir_size:
                bucket[slot] = (request.arrival_time, request.latency)
        self._seen_by_class[cls] = seen + 1

    def record_failure(self, request: Request) -> None:
        self.failed_count += 1
        cls = request.traffic_class
        self.failed_by_class[cls] = self.failed_by_class.get(cls, 0) + 1
        if self._reservoir_size is None:
            self.failed_requests.append(request)

    def record_bulk(self, traffic_class: str, completed: int,
                    failed: int = 0) -> None:
        """Account a batch of fluid-mode outcomes (counters only).

        Bulk traffic never materialises :class:`Request` objects, so the
        retained-request lists and reservoirs are untouched —
        :meth:`latencies` keeps returning only the sampled event-level
        slice, while the lifetime counters (what the scrape loop and SLO
        error-rate rules read) cover the full simulated load.
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
        if self._keep_spans:
            self.spans.append(span)

    def latencies(self, after: float = 0.0) -> list[float]:
        """E2E latencies of requests arriving at/after ``after`` (warm-up cut).

        In reservoir mode these are the sampled latencies (recording order
        within each class, classes in sorted order).
        """
        if self._reservoir_size is not None:
            return [latency
                    for cls in sorted(self._reservoirs)
                    for arrival, latency in self._reservoirs[cls]
                    if arrival >= after]
        return [r.latency for r in self.requests
                if r.done and r.arrival_time >= after]

    def latencies_by_class(self, after: float = 0.0) -> dict[str, list[float]]:
        if self._reservoir_size is not None:
            return {cls: [latency for arrival, latency in samples
                          if arrival >= after]
                    for cls, samples in sorted(self._reservoirs.items())}
        out: dict[str, list[float]] = {}
        for request in self.requests:
            if request.done and request.arrival_time >= after:
                out.setdefault(request.traffic_class, []).append(request.latency)
        return out

    def sample_counts(self) -> dict[str, tuple[int, int]]:
        """Per class: (completions seen, samples retained). Reservoir mode."""
        return {cls: (self._seen_by_class[cls], len(self._reservoirs[cls]))
                for cls in sorted(self._reservoirs)}

    def traces(self) -> dict[int, "Trace"]:
        """Assemble per-request traces from retained spans.

        Requires ``keep_spans=True``; returns request id → trace. Spans of
        failed/hedged/orphaned work are included — that work really ran.
        """
        from ..sim.request import Trace
        out: dict[int, Trace] = {}
        for span in self.spans:
            trace = out.get(span.request_id)
            if trace is None:
                trace = out[span.request_id] = Trace(span.request_id)
            trace.add(span)
        return out
