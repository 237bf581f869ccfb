"""Request, call, and trace data model.

A *request* enters the system at a cluster's ingress gateway carrying HTTP-ish
attributes (method, path, headers). SLATE classifies it into a *traffic
class* (see :mod:`repro.core.classes`). Serving the request produces a tree
of *calls* across services and clusters; each executed call yields a
:class:`Span`, and the spans of one request form its :class:`Trace` — the
telemetry SLATE-proxies report upward (§3.1 of the paper).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

__all__ = ["RequestAttributes", "Request", "RequestIdAllocator", "Span",
           "Trace", "new_request_id", "span_from_dict", "span_to_dict"]


class RequestIdAllocator:
    """Sequential request ids scoped to one simulation run.

    Each :class:`~repro.sim.runner.MeshSimulation` owns its own allocator
    so request ids — and everything exported with them — are a pure
    function of the run's seed, not of how many simulations the process
    ran before.
    """

    def __init__(self, start: int = 1) -> None:
        self._ids = itertools.count(start)

    def __call__(self) -> int:
        return next(self._ids)


_request_ids = RequestIdAllocator()


def new_request_id() -> int:
    """Allocate a process-unique request id.

    Fallback for standalone :class:`TrafficSource` uses; simulations
    should allocate from their own :class:`RequestIdAllocator` so reruns
    are byte-identical.
    """
    return _request_ids()


@dataclass(frozen=True, slots=True)
class RequestAttributes:
    """The externally visible attributes a classifier may inspect.

    The paper's heuristic classifies on (service, HTTP method, HTTP path);
    headers are carried for richer classifiers (§5 "Traffic classification").
    """

    service: str
    method: str = "GET"
    path: str = "/"
    headers: tuple[tuple[str, str], ...] = ()

    def header(self, name: str, default: str | None = None) -> str | None:
        """Case-insensitive header lookup."""
        lowered = name.lower()
        for key, value in self.headers:
            if key.lower() == lowered:
                return value
        return default

    @staticmethod
    def make(service: str, method: str = "GET", path: str = "/",
             headers: dict[str, str] | None = None) -> "RequestAttributes":
        """Convenience constructor accepting a dict of headers."""
        items = tuple(sorted((headers or {}).items()))
        return RequestAttributes(service=service, method=method, path=path,
                                 headers=items)


@dataclass(slots=True)
class Request:
    """One end-to-end request moving through the system."""

    request_id: int
    attributes: RequestAttributes
    ingress_cluster: str
    arrival_time: float
    traffic_class: str = "default"
    #: the data item this request touches (enables edge caching); None when
    #: the class has no key space
    data_key: int | None = None
    #: set when the response (or final error) leaves the ingress gateway
    completion_time: float | None = None
    #: True when the request ended in an error (exhausted retries)
    failed: bool = False

    @property
    def latency(self) -> float:
        """End-to-end latency in seconds; raises if still in flight.

        For failed requests this is the time until the error surfaced.
        """
        if self.completion_time is None:
            raise ValueError(f"request {self.request_id} has not completed")
        return self.completion_time - self.arrival_time

    @property
    def done(self) -> bool:
        """Finished successfully (failed requests are not "done")."""
        return self.completion_time is not None and not self.failed


@dataclass(slots=True)
class Span:
    """One service execution within a request's call tree.

    Times are virtual seconds. ``enqueue_time <= start_time <= end_time``;
    the gap before ``start_time`` is replica-pool queueing and the rest is
    compute plus downstream calls.
    """

    request_id: int
    traffic_class: str
    service: str
    cluster: str
    caller_service: str | None
    caller_cluster: str | None
    enqueue_time: float
    start_time: float = 0.0
    end_time: float = 0.0
    exec_time: float = 0.0
    #: bytes of the call into this span and of its response (what the
    #: proxy sees on the wire; feeds call-graph inference)
    request_bytes: int = 0
    response_bytes: int = 0

    @property
    def queue_wait(self) -> float:
        """Seconds spent waiting for a free replica."""
        return self.start_time - self.enqueue_time

    @property
    def total_time(self) -> float:
        """Wall time from enqueue to response (includes downstream calls)."""
        return self.end_time - self.enqueue_time

    @property
    def remote(self) -> bool:
        """True when the call crossed a cluster boundary."""
        return (self.caller_cluster is not None
                and self.caller_cluster != self.cluster)


@dataclass(slots=True)
class Trace:
    """All spans recorded for a single request."""

    request_id: int
    spans: list[Span] = field(default_factory=list)

    def add(self, span: Span) -> None:
        if span.request_id != self.request_id:
            raise ValueError(
                f"span for request {span.request_id} added to trace "
                f"{self.request_id}")
        self.spans.append(span)

    def spans_for(self, service: str) -> list[Span]:
        """Spans executed by ``service`` (any cluster)."""
        return [s for s in self.spans if s.service == service]

    @property
    def cross_cluster_hops(self) -> int:
        """Number of calls in the tree that crossed clusters."""
        return sum(1 for s in self.spans if s.remote)


def span_to_dict(span: Span) -> dict:
    """Flat JSON-friendly view of one span: the payload of every span
    export (``write_spans_jsonl`` and the tracer's JSONL)."""
    return {
        "request_id": span.request_id,
        "traffic_class": span.traffic_class,
        "service": span.service,
        "cluster": span.cluster,
        "caller_service": span.caller_service,
        "caller_cluster": span.caller_cluster,
        "enqueue_time": span.enqueue_time,
        "start_time": span.start_time,
        "end_time": span.end_time,
        "exec_time": span.exec_time,
        "request_bytes": span.request_bytes,
        "response_bytes": span.response_bytes,
    }


def span_from_dict(payload: dict) -> Span:
    """Inverse of :func:`span_to_dict`."""
    return Span(
        request_id=int(payload["request_id"]),
        traffic_class=payload["traffic_class"],
        service=payload["service"],
        cluster=payload["cluster"],
        caller_service=payload["caller_service"],
        caller_cluster=payload["caller_cluster"],
        enqueue_time=float(payload["enqueue_time"]),
        start_time=float(payload["start_time"]),
        end_time=float(payload["end_time"]),
        exec_time=float(payload["exec_time"]),
        request_bytes=int(payload["request_bytes"]),
        response_bytes=int(payload["response_bytes"]),
    )
