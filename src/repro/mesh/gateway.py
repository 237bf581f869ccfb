"""Cluster ingress gateways.

User requests enter the system at the gateway of their nearest cluster. The
gateway classifies the request into a traffic class (using whatever
classifier the control plane installed), records ingress telemetry, and
hands the request to the dispatcher (the simulation runner) which starts the
root service call. On response it stamps the completion time — the e2e
latency the paper's CDFs plot.
"""

from __future__ import annotations

from typing import Callable, Protocol, Sequence

import numpy as np

from ..sim.request import Request, RequestAttributes
from .telemetry import ProxyTelemetry, RunTelemetry

__all__ = ["Classifier", "IngressGateway", "settle_cohort"]


class Classifier(Protocol):
    """Maps request attributes to a traffic-class name.

    Implementations live in :mod:`repro.core.classes`; the mesh depends only
    on this protocol.
    """

    def classify(self, attributes: RequestAttributes) -> str: ...


class _DefaultClassifier:
    """Single-class fallback: everything is ``"default"``."""

    def classify(self, attributes: RequestAttributes) -> str:
        return "default"


class IngressGateway:
    """Entry point of one cluster."""

    def __init__(self, cluster: str, telemetry: ProxyTelemetry,
                 run_telemetry: RunTelemetry,
                 classifier: Classifier | None = None) -> None:
        self.cluster = cluster
        self._telemetry = telemetry
        self._run_telemetry = run_telemetry
        self._classifier: Classifier = classifier or _DefaultClassifier()
        self._dispatch: Callable[[Request], None] | None = None
        # lifetime conservation counters (read by the debug invariant
        # checker: admitted == completed + failed + open at quiesce)
        self.admitted_count = 0
        self.completed_count = 0
        self.failed_count = 0
        self.open_requests = 0

    def bind(self, dispatch: Callable[[Request], None]) -> None:
        """Attach the dispatcher that starts the root call (set by runner)."""
        self._dispatch = dispatch

    def set_classifier(self, classifier: Classifier) -> None:
        """Swap the classifier (a control-plane push)."""
        self._classifier = classifier

    def accept(self, request: Request) -> None:
        """Admit one request: classify, meter, dispatch."""
        if self._dispatch is None:
            raise RuntimeError(
                f"gateway {self.cluster!r} has no dispatcher bound")
        if request.ingress_cluster != self.cluster:
            raise ValueError(
                f"request for {request.ingress_cluster!r} sent to gateway "
                f"{self.cluster!r}")
        request.traffic_class = self._classifier.classify(request.attributes)
        self.admitted_count += 1
        self.open_requests += 1
        self._telemetry.record_ingress(request)
        self._dispatch(request)

    def admit_bulk(self, classes: tuple[str, ...],
                   counts: np.ndarray) -> None:
        """Admit a tick's fluid-mode requests as counters, no dispatch.

        The fluid substrate's bulk counterpart of :meth:`accept`:
        ``counts[i]`` requests of ``classes[i]`` arrive pre-classified
        (bulk flow is per traffic class by construction) and no
        per-request call tree is started — :func:`settle_cohort` settles
        each class's cohort later, keeping the conservation identity
        ``admitted == completed + failed + open`` intact at every instant.
        """
        self._telemetry.record_ingress_bulk(classes, counts)
        total = int(counts.sum())
        self.admitted_count += total
        self.open_requests += total

    def settle_bulk(self, traffic_class: str, completed: int,
                    failed: int) -> None:
        """Settle this gateway's share of a bulk cohort admitted earlier
        via :meth:`admit_bulk` (the run-wide counters are
        :func:`settle_cohort`'s to book)."""
        if completed < 0 or failed < 0:
            raise ValueError("bulk counts must be >= 0")
        self.completed_count += completed
        self.failed_count += failed
        self.open_requests -= completed + failed

    def complete(self, request: Request, now: float) -> None:
        """Record the response leaving the gateway."""
        request.completion_time = now
        self.completed_count += 1
        self.open_requests -= 1
        self._telemetry.record_completion(request)
        self._run_telemetry.record_completion(request)

    def fail(self, request: Request, now: float) -> None:
        """Record the request ending in an error (retries exhausted)."""
        request.completion_time = now
        request.failed = True
        self.failed_count += 1
        self.open_requests -= 1
        self._run_telemetry.record_failure(request)


def settle_cohort(gateways: Sequence[IngressGateway],
                  run_telemetry: RunTelemetry, traffic_class: str,
                  completed: Sequence[int], failed: Sequence[int]) -> None:
    """Settle one traffic class's bulk cohort at every gateway at once.

    The fluid substrate's credit event: every cluster's share of a tick's
    cohort of one class settles at the same predicted latency, so one
    event books ``completed[i]`` / ``failed[i]`` at ``gateways[i]`` and
    the cohort's totals into ``run_telemetry``.
    """
    for gateway, done, lost in zip(gateways, completed, failed):
        if done or lost:
            gateway.settle_bulk(traffic_class, done, lost)
    run_telemetry.record_bulk(traffic_class, sum(completed), sum(failed))
