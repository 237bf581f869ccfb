"""Distributed tracing over simulated requests.

The first observability pillar: a :class:`Tracer` is a read-only view over
the spans and finished requests a traced run's
:class:`~repro.mesh.telemetry.RunTelemetry` already holds (the telemetry
SLATE-proxies report, §3.1), and stitches each request's spans into a
parent/child :class:`TraceNode` tree spanning services and clusters. All
timestamps are virtual seconds from the simulation clock — a tracer never
reads a wall clock, so traces are byte-reproducible from the seed.

Stitching uses the span data itself: a span's parent is the span of
``caller_service`` in ``caller_cluster`` whose active window contains the
child's enqueue time (latest such start wins, which nests retried calls
correctly). Spans whose parent was abandoned (timeout orphans, losing
hedges) attach to the closest surviving candidate or surface as extra
roots — that work really ran, and the trace shows it.

Exports: JSONL (one span per line, round-trippable via
:meth:`Tracer.from_jsonl_lines`) and the Chrome ``trace_event`` format
(:func:`chrome_trace`) loadable in ``chrome://tracing`` / Perfetto, with one
process per cluster and one thread per service.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..mesh.telemetry import RunTelemetry
from ..sim.network import LatencyMatrix
from ..sim.request import Request, Span, Trace, span_from_dict, span_to_dict

__all__ = ["TraceNode", "Tracer", "build_trace_tree", "chrome_trace"]

#: slack when matching a child's enqueue time against a parent's window
_STITCH_EPSILON = 1e-9

#: seconds → microseconds (the unit Chrome trace_event expects in ``ts``)
_MICROS = 1_000_000.0


@dataclass
class TraceNode:
    """One span plus its stitched children (and the WAN cost to reach it)."""

    span: Span
    children: list["TraceNode"] = field(default_factory=list)
    #: round-trip WAN seconds on the edge into this span (0 for local calls)
    wan_rtt: float = 0.0

    @property
    def end_time(self) -> float:
        return self.span.end_time

    def walk(self):
        """Yield this node and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def depth(self) -> int:
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)


def build_trace_tree(trace: Trace,
                     latency: LatencyMatrix | None = None) -> list[TraceNode]:
    """Stitch one request's spans into parent/child trees.

    Returns the roots: normally one (the ingress call), more when orphaned
    subtrees (timeouts, losing hedges) have no surviving parent. Children
    are ordered by enqueue time.
    """
    nodes = [TraceNode(span=span) for span in
             sorted(trace.spans, key=lambda s: (s.enqueue_time, s.start_time))]
    roots: list[TraceNode] = []
    for index, node in enumerate(nodes):
        span = node.span
        if latency is not None and span.caller_cluster is not None:
            node.wan_rtt = 2.0 * latency.one_way(span.caller_cluster,
                                                 span.cluster)
        if span.caller_service is None:
            roots.append(node)
            continue
        parent: TraceNode | None = None
        for candidate in nodes[:index]:
            cspan = candidate.span
            if cspan.service != span.caller_service:
                continue
            if cspan.cluster != span.caller_cluster:
                continue
            if cspan.start_time > span.enqueue_time + _STITCH_EPSILON:
                continue
            # latest-starting containing span wins: nests retries correctly
            if parent is None or cspan.start_time >= parent.span.start_time:
                parent = candidate
        if parent is not None:
            parent.children.append(node)
        else:
            roots.append(node)   # orphaned subtree: surface it
    return roots


class Tracer:
    """Read-only view of one run's traces.

    Reads the spans and finished requests of a traced
    :class:`~repro.mesh.telemetry.RunTelemetry` — a live run's (attached
    by :class:`~repro.obs.config.Observability`) or one rebuilt by
    :meth:`from_jsonl_lines` — and records nothing itself. Spans are
    grouped by request as they are first read, so a view taken before or
    during a run stays current. The latency matrix lets trees annotate
    WAN round-trips per hop.
    """

    def __init__(self, telemetry: RunTelemetry | None = None,
                 latency: LatencyMatrix | None = None) -> None:
        if telemetry is None:
            telemetry = RunTelemetry(tracing=True)
        if telemetry.spans is None:
            raise ValueError("a Tracer reads a RunTelemetry that keeps "
                             "spans (tracing=True)")
        self.telemetry = telemetry
        self.latency = latency
        #: request id → trace, grouped from the store's first
        #: ``_grouped`` spans
        self._traces: dict[int, Trace] = {}
        self._grouped = 0
        #: request id → finished request, rebuilt when the store grows
        self._requests: dict[int, Request] = {}

    def _by_request(self) -> dict[int, Trace]:
        """Group the spans the store gained since the last read."""
        spans = self.telemetry.spans
        traces = self._traces
        for span in spans[self._grouped:]:
            trace = traces.get(span.request_id)
            if trace is None:
                trace = traces[span.request_id] = Trace(span.request_id)
            trace.spans.append(span)
        self._grouped = len(spans)
        return traces

    # ------------------------------------------------------------- queries

    @property
    def span_count(self) -> int:
        return len(self.telemetry.spans)

    def __len__(self) -> int:
        return len(self._by_request())

    def request_ids(self) -> list[int]:
        return sorted(self._by_request())

    def traces(self) -> dict[int, Trace]:
        """Request id → its trace, ids ascending; each trace keeps its
        spans in finish order. Spans of failed/hedged/orphaned work are
        included — that work really ran."""
        traces = self._by_request()
        return {rid: traces[rid] for rid in sorted(traces)}

    def trace(self, request_id: int) -> Trace:
        trace = self._by_request().get(request_id)
        return trace if trace is not None else Trace(request_id)

    def request(self, request_id: int) -> Request | None:
        """The finished (completed or failed) request with this id."""
        done, failed = self.telemetry.requests, self.telemetry.failed_requests
        if len(self._requests) != len(done) + len(failed):
            self._requests = {r.request_id: r for r in done + failed}
        return self._requests.get(request_id)

    def tree(self, request_id: int) -> list[TraceNode]:
        """The stitched parent/child trees for one request."""
        return build_trace_tree(self.trace(request_id), latency=self.latency)

    def slowest_requests(self, count: int = 10) -> list[Request]:
        """Completed requests by descending end-to-end latency."""
        return sorted(self.telemetry.requests,
                      key=lambda r: (-r.latency, r.request_id))[:count]

    # ------------------------------------------------------------- exports

    def to_jsonl_lines(self) -> list[str]:
        """One JSON document per span, in (request, record) order."""
        return [json.dumps(span_to_dict(span), sort_keys=True)
                for trace in self.traces().values() for span in trace.spans]

    @classmethod
    def from_jsonl_lines(cls, lines,
                         latency: LatencyMatrix | None = None) -> "Tracer":
        """A view over the spans of :meth:`to_jsonl_lines` output."""
        telemetry = RunTelemetry(tracing=True)
        for line in lines:
            line = line.strip()
            if line:
                telemetry.record_span(span_from_dict(json.loads(line)))
        return cls(telemetry, latency=latency)


def chrome_trace(tracer: Tracer,
                 max_requests: int | None = None) -> dict:
    """Render a tracer as a Chrome ``trace_event`` document.

    One process (``pid``) per cluster and one thread (``tid``) per service;
    each span is a complete ("X") event with microsecond ``ts``/``dur`` in
    simulated time. The result is ``json.dump``-able and loads directly in
    ``chrome://tracing`` or https://ui.perfetto.dev. ``max_requests`` keeps
    huge runs viewable by exporting only the first N request ids.
    """
    request_ids = tracer.request_ids()
    if max_requests is not None and max_requests > 0:
        request_ids = request_ids[:max_requests]
    clusters = sorted({span.cluster
                       for rid in request_ids
                       for span in tracer.trace(rid).spans})
    pid_of = {cluster: index + 1 for index, cluster in enumerate(clusters)}
    services: dict[str, set] = {}
    for rid in request_ids:
        for span in tracer.trace(rid).spans:
            services.setdefault(span.cluster, set()).add(span.service)
    tid_of: dict[tuple[str, str], int] = {}
    for cluster in clusters:
        for index, service in enumerate(sorted(services[cluster])):
            tid_of[(cluster, service)] = index + 1

    events: list[dict] = []
    for cluster in clusters:
        events.append({"ph": "M", "pid": pid_of[cluster], "tid": 0,
                       "name": "process_name",
                       "args": {"name": f"cluster {cluster}"}})
        for service in sorted(services[cluster]):
            events.append({"ph": "M", "pid": pid_of[cluster],
                           "tid": tid_of[(cluster, service)],
                           "name": "thread_name",
                           "args": {"name": service}})
    for rid in request_ids:
        for span in tracer.trace(rid).spans:
            events.append({
                "ph": "X",
                "name": f"{span.service} [{span.traffic_class}]",
                "cat": span.traffic_class,
                "ts": span.enqueue_time * _MICROS,
                "dur": max(span.total_time, 0.0) * _MICROS,
                "pid": pid_of[span.cluster],
                "tid": tid_of[(span.cluster, span.service)],
                "args": {
                    "request_id": span.request_id,
                    "caller": f"{span.caller_service or 'ingress'}"
                              f"@{span.caller_cluster or '-'}",
                    "queue_wait_ms": span.queue_wait * 1000.0,
                    "exec_ms": span.exec_time * 1000.0,
                    "remote": span.remote,
                },
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
