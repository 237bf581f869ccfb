"""Tests for SLATE-proxy routing decisions and ingress gateways."""

from collections import Counter

import numpy as np
import pytest

from repro.mesh.gateway import IngressGateway, settle_cohort
from repro.mesh.proxy import RoutingError, SlateProxy
from repro.mesh.routing_table import RouteKey, RoutingTable, WILDCARD_CLASS
from repro.mesh.telemetry import ProxyTelemetry, RunTelemetry
from repro.sim.request import Request, RequestAttributes
from repro.sim.rng import RngRegistry
from repro.sim.topology import ClusterSpec, DeploymentSpec
from repro.sim.network import LatencyMatrix


def make_deployment():
    latency = LatencyMatrix.from_ms(["west", "mid", "east"], {
        ("west", "mid"): 10.0, ("mid", "east"): 10.0, ("west", "east"): 30.0,
    })
    return DeploymentSpec(
        clusters=[
            ClusterSpec("west", {"A": 1}),
            ClusterSpec("mid", {"A": 1, "B": 1}),
            ClusterSpec("east", {"A": 1, "B": 1, "C": 1}),
        ],
        latency=latency)


def make_proxy(cluster="west", table=None):
    deployment = make_deployment()
    table = table if table is not None else RoutingTable()
    rng = RngRegistry(0).stream(f"route/{cluster}")
    return SlateProxy(cluster, table, deployment, deployment.latency, rng)


def test_default_is_local_when_deployed():
    proxy = make_proxy("west")
    assert proxy.choose_cluster("A", "default") == "west"


def test_default_fails_over_to_nearest():
    proxy = make_proxy("west")
    # B runs only in mid and east; mid is closer to west
    assert proxy.choose_cluster("B", "default") == "mid"


def test_undeployed_service_raises():
    proxy = make_proxy("west")
    with pytest.raises(RoutingError):
        proxy.choose_cluster("nope", "default")


def test_rule_weights_followed_empirically():
    table = RoutingTable()
    table.set_weights(RouteKey("A", "default", "west"),
                      {"west": 0.2, "east": 0.8})
    proxy = make_proxy("west", table)
    counts = Counter(proxy.choose_cluster("A", "default")
                     for _ in range(5000))
    assert counts["east"] / 5000 == pytest.approx(0.8, abs=0.03)


def test_rule_restricted_to_deployed_clusters():
    table = RoutingTable()
    # stale rule points C at west, where C does not exist
    table.set_weights(RouteKey("C", "default", "west"),
                      {"west": 0.9, "east": 0.1})
    proxy = make_proxy("west", table)
    picks = {proxy.choose_cluster("C", "default") for _ in range(50)}
    assert picks == {"east"}


def test_rule_with_no_deployed_destination_falls_back():
    table = RoutingTable()
    table.set_weights(RouteKey("B", "default", "west"), {"west": 1.0})
    proxy = make_proxy("west", table)
    # B not in west at all -> fall through to locality failover
    assert proxy.choose_cluster("B", "default") == "mid"


def test_wildcard_rule_applies_to_any_class():
    table = RoutingTable()
    table.set_weights(RouteKey("A", WILDCARD_CLASS, "west"), {"east": 1.0})
    proxy = make_proxy("west", table)
    assert proxy.choose_cluster("A", "whatever") == "east"


def make_gateway(cluster="west"):
    telemetry = ProxyTelemetry(cluster)
    run = RunTelemetry()
    gateway = IngressGateway(cluster, telemetry, run)
    return gateway, telemetry, run


def make_request(cluster="west", path="/"):
    return Request(request_id=1,
                   attributes=RequestAttributes.make("A", path=path),
                   ingress_cluster=cluster, arrival_time=0.0)


def test_gateway_requires_dispatcher():
    gateway, _, _ = make_gateway()
    with pytest.raises(RuntimeError):
        gateway.accept(make_request())


def test_gateway_rejects_foreign_request():
    gateway, _, _ = make_gateway("west")
    gateway.bind(lambda request: None)
    with pytest.raises(ValueError):
        gateway.accept(make_request(cluster="east"))


def test_gateway_classifies_and_dispatches():
    gateway, telemetry, _ = make_gateway()

    class PathClassifier:
        def classify(self, attributes):
            return "heavy" if attributes.path == "/h" else "light"

    seen = []
    gateway.set_classifier(PathClassifier())
    gateway.bind(seen.append)
    gateway.accept(make_request(path="/h"))
    assert seen[0].traffic_class == "heavy"
    report = telemetry.harvest(1.0, pool_stats={})
    assert report.ingress_counts == {"heavy": 1}


def test_gateway_completion_recorded_in_both_sinks():
    gateway, telemetry, run = make_gateway()
    gateway.bind(lambda request: None)
    request = make_request()
    gateway.accept(request)
    gateway.complete(request, now=0.3)
    assert request.latency == pytest.approx(0.3)
    assert run.latencies() == [pytest.approx(0.3)]
    report = telemetry.harvest(1.0, pool_stats={})
    assert report.request_latencies == [pytest.approx(0.3)]


def test_default_classifier_single_class():
    gateway, _, _ = make_gateway()
    seen = []
    gateway.bind(seen.append)
    gateway.accept(make_request())
    assert seen[0].traffic_class == "default"


def conserved(gateway) -> bool:
    return gateway.admitted_count == (gateway.completed_count
                                      + gateway.failed_count
                                      + gateway.open_requests)


def test_bulk_admission_and_cohort_settle_conserve():
    run = RunTelemetry()
    gateways = [IngressGateway(name, ProxyTelemetry(name), run)
                for name in ("east", "west")]
    classes = ("H", "L")
    gateways[0].admit_bulk(classes, np.array([2, 5]))
    gateways[1].admit_bulk(classes, np.array([0, 7]))
    assert [g.open_requests for g in gateways] == [7, 7]
    assert all(conserved(g) for g in gateways)
    settle_cohort(gateways, run, "L", [4, 6], [1, 1])
    assert [g.open_requests for g in gateways] == [2, 0]
    assert all(conserved(g) for g in gateways)
    settle_cohort(gateways, run, "H", [2, 0], [0, 0])
    assert [g.open_requests for g in gateways] == [0, 0]
    assert all(conserved(g) for g in gateways)
    assert run.completed_by_class == {"L": 10, "H": 2}
    assert run.failed_by_class == {"L": 2}
    assert (run.completed_count, run.failed_count) == (12, 2)
    report = gateways[1]._telemetry.harvest(1.0, pool_stats={})
    assert report.ingress_counts == {"L": 7}


def test_bulk_admission_rejects_negative_counts_untouched():
    gateway, telemetry, _ = make_gateway()
    with pytest.raises(ValueError, match=">= 0"):
        gateway.admit_bulk(("H", "L"), np.array([3, -1]))
    assert (gateway.admitted_count, gateway.open_requests) == (0, 0)
    assert telemetry.harvest(1.0, pool_stats={}).ingress_counts == {}
    with pytest.raises(ValueError, match=">= 0"):
        gateway.settle_bulk("L", 1, -1)
    assert conserved(gateway)

