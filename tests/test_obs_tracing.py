"""Tracer: a view over the run's spans, tree stitching, JSONL round-trip,
Chrome export."""

from __future__ import annotations

import json

import pytest

from repro.mesh.telemetry import RunTelemetry
from repro.obs import Tracer, build_trace_tree, chrome_trace
from repro.obs.tracing import span_from_dict, span_to_dict
from repro.sim.request import Request, RequestAttributes, Span, Trace
from repro.sim.topology import two_region_latency


def make_span(request_id=1, service="A", cluster="west",
              caller_service=None, caller_cluster="west",
              enqueue=0.0, start=None, end=None, exec_time=0.01,
              traffic_class="default") -> Span:
    start = enqueue if start is None else start
    end = start + exec_time if end is None else end
    return Span(request_id=request_id, traffic_class=traffic_class,
                service=service, cluster=cluster,
                caller_service=caller_service,
                caller_cluster=caller_cluster,
                enqueue_time=enqueue, start_time=start, end_time=end,
                exec_time=exec_time, request_bytes=100, response_bytes=200)


def tracer_of(*spans: Span) -> Tracer:
    """A tracer over a traced run store holding ``spans``."""
    telemetry = RunTelemetry(tracing=True)
    for span in spans:
        telemetry.record_span(span)
    return Tracer(telemetry)


def three_hop_spans() -> list[Span]:
    """A -> B (cross-cluster) -> C: the hand-built 3-hop trace."""
    return [
        make_span(service="A", cluster="west", caller_service=None,
                  enqueue=0.0, start=0.0, end=0.5, exec_time=0.05),
        make_span(service="B", cluster="east", caller_service="A",
                  caller_cluster="west", enqueue=0.08, start=0.10,
                  end=0.40, exec_time=0.08),
        make_span(service="C", cluster="east", caller_service="B",
                  caller_cluster="east", enqueue=0.20, start=0.22,
                  end=0.35, exec_time=0.13),
    ]


# ------------------------------------------------------------- stitching

def test_tree_stitches_parent_child_chain():
    trace = Trace(1)
    for span in three_hop_spans():
        trace.add(span)
    roots = build_trace_tree(trace)
    assert len(roots) == 1
    root = roots[0]
    assert root.span.service == "A"
    assert [n.span.service for n in root.walk()] == ["A", "B", "C"]
    assert root.depth() == 3


def test_tree_annotates_wan_rtt():
    trace = Trace(1)
    for span in three_hop_spans():
        trace.add(span)
    latency = two_region_latency(25.0)   # 25 ms one-way west<->east
    roots = build_trace_tree(trace, latency=latency)
    nodes = {n.span.service: n for n in roots[0].walk()}
    # the root's "caller" is the ingress gateway in its own cluster, so it
    # carries the intra-cluster network RTT, same as any local hop
    assert nodes["A"].wan_rtt == pytest.approx(0.0005)
    assert nodes["B"].wan_rtt == pytest.approx(0.050)      # cross-cluster
    assert nodes["C"].wan_rtt == pytest.approx(0.0005)     # intra-cluster


def test_tree_orphan_span_becomes_extra_root():
    trace = Trace(1)
    trace.add(make_span(service="A", enqueue=0.0, end=0.5))
    # claims a caller that emitted no span (abandoned/timed-out parent)
    trace.add(make_span(service="X", caller_service="GHOST",
                        caller_cluster="west", enqueue=0.1, end=0.2))
    roots = build_trace_tree(trace)
    assert sorted(r.span.service for r in roots) == ["A", "X"]


def test_tree_picks_latest_containing_parent():
    """Two sequential calls of the same service: the retry nests correctly."""
    trace = Trace(1)
    trace.add(make_span(service="A", enqueue=0.0, start=0.0, end=0.3))
    trace.add(make_span(service="A", enqueue=0.4, start=0.4, end=0.8))
    trace.add(make_span(service="B", caller_service="A",
                        caller_cluster="west", enqueue=0.5, end=0.6))
    roots = build_trace_tree(trace)
    assert len(roots) == 2
    second = [r for r in roots if r.span.start_time > 0.2][0]
    assert [n.span.service for n in second.walk()] == ["A", "B"]


# ------------------------------------------------------------ the tracer

def test_tracer_records_and_queries():
    tracer = tracer_of(*three_hop_spans(),
                       make_span(request_id=2, service="A"))
    assert len(tracer) == 2
    assert tracer.request_ids() == [1, 2]
    assert tracer.span_count == 4
    assert len(tracer.trace(1).spans) == 3
    assert tracer.tree(1)[0].depth() == 3


def test_tracer_request_records():
    tracer = tracer_of()
    request = Request(request_id=7, attributes=RequestAttributes("A"),
                      ingress_cluster="west", arrival_time=1.0,
                      completion_time=1.25)
    tracer.telemetry.record_completion(request)
    record = tracer.request(7)
    assert record.latency == pytest.approx(0.25)
    assert not record.failed
    assert tracer.slowest_requests() == [record]


# ------------------------------------------------------------- round-trip

def test_span_dict_round_trip():
    span = three_hop_spans()[1]
    assert span_from_dict(span_to_dict(span)) == span


def test_jsonl_round_trip_in_memory():
    tracer = tracer_of(*three_hop_spans(),
                       make_span(request_id=2, service="Z", cluster="east",
                                 caller_cluster="east"))
    lines = tracer.to_jsonl_lines()
    rebuilt = Tracer.from_jsonl_lines(lines)
    assert rebuilt.to_jsonl_lines() == lines
    assert rebuilt.request_ids() == tracer.request_ids()
    # stitched structure survives the round trip
    assert ([n.span.service for n in rebuilt.tree(1)[0].walk()]
            == [n.span.service for n in tracer.tree(1)[0].walk()])


def test_jsonl_files_round_trip(tmp_path):
    from repro.obs import load_trace_jsonl, write_trace_jsonl
    tracer = tracer_of(*three_hop_spans())
    path = tmp_path / "trace.jsonl"
    count = write_trace_jsonl(tracer, path)
    assert count == 3
    rebuilt = load_trace_jsonl(path)
    assert rebuilt.to_jsonl_lines() == tracer.to_jsonl_lines()


# ---------------------------------------------------------- chrome export

def test_chrome_trace_schema():
    tracer = tracer_of(*three_hop_spans())
    document = chrome_trace(tracer)
    assert set(document) == {"traceEvents", "displayTimeUnit"}
    events = document["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    meta = [e for e in events if e["ph"] == "M"]
    assert len(spans) == 3
    # every complete event carries the required trace_event fields
    for event in spans:
        assert {"ph", "name", "ts", "dur", "pid", "tid"} <= set(event)
        assert isinstance(event["pid"], int) and event["pid"] >= 1
        assert isinstance(event["tid"], int) and event["tid"] >= 1
        assert event["ts"] >= 0.0
        assert event["dur"] >= 0.0
    # one process per cluster, one named thread per service
    assert {e["args"]["name"] for e in meta if e["name"] == "process_name"} \
        == {"cluster west", "cluster east"}
    assert {e["args"]["name"] for e in meta if e["name"] == "thread_name"} \
        == {"A", "B", "C"}
    # ts/dur are microseconds of simulated time
    b_event = [e for e in spans if e["name"].startswith("B")][0]
    assert b_event["ts"] == pytest.approx(0.08e6)
    assert b_event["dur"] == pytest.approx((0.40 - 0.08) * 1e6)
    json.dumps(document)   # must be serializable as-is


def test_chrome_trace_round_trips_through_jsonl():
    """The Chrome document is a pure function of the span set: rebuilding
    the tracer from its JSONL export reproduces it event-for-event."""
    tracer = tracer_of(*three_hop_spans(),
                       make_span(request_id=2, service="Z", cluster="east",
                                 caller_cluster="east"))
    document = chrome_trace(tracer)
    reparsed = json.loads(json.dumps(document))
    rebuilt = Tracer.from_jsonl_lines(tracer.to_jsonl_lines())
    assert chrome_trace(rebuilt) == reparsed


# ---------------------------------------- edge cases from real runs

def _traced_sim(timeouts, replicas_west=5, seed=2):
    from repro.obs import Observability, ObservabilityConfig
    from repro.sim import DeploymentSpec, linear_chain_app
    from repro.sim.runner import MeshSimulation
    from repro.sim.topology import ClusterSpec

    app = linear_chain_app(n_services=2, exec_time=0.010)
    deployment = DeploymentSpec(
        clusters=[ClusterSpec("west", {"S1": replicas_west,
                                       "S2": replicas_west}),
                  ClusterSpec("east", {"S1": 5, "S2": 5})],
        latency=two_region_latency(25.0))
    obs = Observability(ObservabilityConfig(tracing=True))
    sim = MeshSimulation(app, deployment, seed=seed, observability=obs,
                         timeouts=timeouts)
    return sim, obs.tracer


def test_orphan_spans_from_requests_dropped_mid_flight():
    """A request abandoned by its deadline still leaves its spans: the
    orphaned work ran, and the trace must show it."""
    from repro.sim import DemandMatrix
    from repro.sim.runner import TimeoutPolicy

    sim, tracer = _traced_sim(
        TimeoutPolicy(call_timeout=0.2, max_attempts=1), replicas_west=1)
    sim.run(DemandMatrix({("default", "west"): 300.0}), duration=10.0)
    failed = sim.telemetry.failed_requests
    assert failed, "overload scenario must produce failed requests"
    traced_failures = [r for r in failed if len(tracer.trace(r.request_id).spans)]
    assert traced_failures, "dropped requests left no spans at all"
    for request in traced_failures[:20]:
        roots = tracer.tree(request.request_id)
        assert roots, "spans recorded but nothing stitched"
        record = tracer.request(request.request_id)
        assert record is not None and record.failed
        # orphaned downstream work may finish *after* the request erred out
        spans = tracer.trace(request.request_id).spans
        assert all(span.end_time >= span.start_time >= span.enqueue_time
                   for span in spans)
    orphan_work = [
        span
        for request in traced_failures
        for span in tracer.trace(request.request_id).spans
        if tracer.request(request.request_id).completion_time is not None
        and span.end_time > tracer.request(request.request_id).completion_time
    ]
    assert orphan_work, "no span outlived its abandoned request"


def test_stitching_across_a_wan_retry():
    """S2 is routed over the WAN, the remote cluster dies mid-flight, and
    the timed-out call retries locally: the retry attempt must stitch as a
    child of the original caller span."""
    from repro.mesh.routing_table import RouteKey
    from repro.sim import DemandMatrix
    from repro.sim.runner import TimeoutPolicy

    sim, tracer = _traced_sim(TimeoutPolicy(call_timeout=0.3, max_attempts=2))
    sim.table.set_weights(RouteKey("S2", "default", "west"), {"east": 1.0})
    sim.sim.schedule(2.0, sim.fail_service, "east", "S2")
    sim.run(DemandMatrix({("default", "west"): 200.0}), duration=10.0)
    assert sim.dropped_calls > 0
    assert sim.telemetry.failed_requests == []   # every retry succeeded

    retried = []
    for request_id in tracer.request_ids():
        for span in tracer.trace(request_id).spans:
            # the retry signature: an S2 attempt enqueued a full deadline
            # after the kill, landing in west (east is excluded)
            if (span.service == "S2" and span.cluster == "west"
                    and span.enqueue_time >= 2.3 - 1e-9
                    and span.caller_service == "S1"
                    and span.caller_cluster == "west"):
                retried.append(request_id)
    assert retried, "no retried S2 attempt found in the traces"
    for request_id in retried[:20]:
        roots = tracer.tree(request_id)
        # (an ingress retry can legitimately produce a second S1 root; the
        # retried S2 attempt must still stitch under one of them)
        parent_of = {id(child): node
                     for root in roots for node in root.walk()
                     for child in node.children}
        stitched = False
        for root in roots:
            for node in root.walk():
                span = node.span
                if (span.service == "S2" and span.cluster == "west"
                        and span.enqueue_time >= 2.3 - 1e-9
                        and span.caller_cluster == "west"):
                    parent = parent_of.get(id(node))
                    assert parent is not None, "retried attempt orphaned"
                    assert parent.span.service == "S1"
                    # the caller's window contains the retry enqueue
                    assert (parent.span.start_time
                            <= span.enqueue_time + 1e-9)
                    assert node.wan_rtt == pytest.approx(0.0005)  # local now
                    stitched = True
        assert stitched


def test_chrome_trace_max_requests_caps_output(tmp_path):
    from repro.obs import write_chrome_trace
    tracer = tracer_of(*(make_span(request_id=rid) for rid in range(1, 6)))
    events = write_chrome_trace(tracer, tmp_path / "t.json", max_requests=2)
    document = json.loads((tmp_path / "t.json").read_text())
    spans = [e for e in document["traceEvents"] if e["ph"] == "X"]
    assert len(spans) == 2
    assert events == len(document["traceEvents"])


# ------------------------------------------------- the run is the one store

def _chain_sim(observability):
    from repro.sim import DeploymentSpec, linear_chain_app
    from repro.sim.runner import MeshSimulation, TimeoutPolicy

    app = linear_chain_app(n_services=3, exec_time=0.010)
    deployment = DeploymentSpec.uniform(
        app.services(), ["west", "east"], replicas=3,
        latency=two_region_latency(25.0))
    # hedges and deadlines leave orphaned and losing spans in the run
    return MeshSimulation(app, deployment, seed=4,
                          observability=observability,
                          timeouts=TimeoutPolicy(call_timeout=0.12,
                                                 max_attempts=2,
                                                 hedge_delay=0.05))


def _run(sim):
    from repro.mesh.routing_table import RouteKey
    from repro.sim import DemandMatrix

    sim.table.set_weights(RouteKey("S2", "default", "west"),
                          {"west": 0.5, "east": 0.5})
    sim.run(DemandMatrix({("default", "west"): 220.0,
                          ("default", "east"): 40.0}), duration=3.0)
    return sim


def _spy_span_sinks(monkeypatch):
    """Count, per span object, every call into a span sink."""
    from repro.mesh.telemetry import ProxyTelemetry

    seen = {"proxy": {}, "run": {}}

    def spy(sink, original):
        def record_span(self, span):
            seen[sink][id(span)] = seen[sink].get(id(span), 0) + 1
            return original(self, span)
        return record_span

    monkeypatch.setattr(ProxyTelemetry, "record_span",
                        spy("proxy", ProxyTelemetry.record_span))
    monkeypatch.setattr(RunTelemetry, "record_span",
                        spy("run", RunTelemetry.record_span))
    return seen


@pytest.mark.parametrize("prebuilt", [False, True])
def test_each_span_reaches_the_proxy_window_and_the_run_store_once(
        monkeypatch, prebuilt):
    from repro.obs import Observability, ObservabilityConfig

    seen = _spy_span_sinks(monkeypatch)
    config = ObservabilityConfig(tracing=True)
    obs = Observability(config) if prebuilt else config
    sim = _run(_chain_sim(obs))
    spans = sim.telemetry.spans
    assert sim.hedged_calls > 0 and sim.timed_out_calls > 0
    assert spans and len({id(span) for span in spans}) == len(spans)
    assert seen["proxy"] == seen["run"] == {id(span): 1 for span in spans}
    # the tracer is a view over that one store, not a copy of it
    tracer = sim.observability.tracer
    if prebuilt:
        assert tracer is obs.tracer
    assert tracer.telemetry is sim.telemetry
    assert tracer.span_count == len(spans)
    assert sorted(id(span) for trace in tracer.traces().values()
                  for span in trace.spans) == sorted(seen["run"])
    finished = sim.telemetry.requests + sim.telemetry.failed_requests
    assert all(tracer.request(r.request_id) is r for r in finished)


def test_an_untraced_run_keeps_no_span_list(monkeypatch):
    from repro.obs import ObservabilityConfig

    seen = _spy_span_sinks(monkeypatch)
    sim = _run(_chain_sim(ObservabilityConfig(metrics=True)))
    assert sim.telemetry.spans is None
    assert sim.observability.tracer is None
    assert seen["proxy"] and not seen["run"]
    with pytest.raises(ValueError, match="keeps spans"):
        Tracer(sim.telemetry)


def _shape(nodes):
    return [(node.span, node.wan_rtt, _shape(node.children))
            for node in nodes]


def test_jsonl_rebuild_reproduces_a_run_tracer():
    """Trees, the slowest requests' breakdowns and the chrome document all
    come back from the JSONL export of a real run."""
    from repro.obs import ObservabilityConfig, trace_summary

    tracer = _run(_chain_sim(ObservabilityConfig(tracing=True))) \
        .observability.tracer
    rebuilt = Tracer.from_jsonl_lines(tracer.to_jsonl_lines(),
                                      latency=tracer.latency)
    assert rebuilt.request_ids() == tracer.request_ids()
    for request_id in tracer.request_ids():
        assert (_shape(rebuilt.tree(request_id))
                == _shape(tracer.tree(request_id)))
    slowest = [r.request_id for r in tracer.slowest_requests(5)]
    assert len(slowest) == 5
    assert ([trace_summary(rebuilt.tree(rid)) for rid in slowest]
            == [trace_summary(tracer.tree(rid)) for rid in slowest])
    assert chrome_trace(rebuilt) == chrome_trace(tracer)
    assert rebuilt.to_jsonl_lines() == tracer.to_jsonl_lines()
