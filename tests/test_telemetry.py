"""Tests for proxy/run telemetry accumulation."""

import numpy as np
import pytest

from repro.mesh.telemetry import ProxyTelemetry, RunTelemetry
from repro.sim.request import Request, RequestAttributes, Span


def make_span(service="S1", cluster="west", cls="default",
              enqueue=0.0, start=0.1, end=0.4, exec_time=0.2,
              caller_cluster="west"):
    return Span(request_id=1, traffic_class=cls, service=service,
                cluster=cluster, caller_service=None,
                caller_cluster=caller_cluster, enqueue_time=enqueue,
                start_time=start, end_time=end, exec_time=exec_time)


def make_request(cluster="west", arrival=0.0, completion=0.5):
    request = Request(request_id=1,
                      attributes=RequestAttributes.make("S1"),
                      ingress_cluster=cluster, arrival_time=arrival,
                      traffic_class="default")
    request.completion_time = completion
    return request


def test_span_aggregation_per_service_class():
    telemetry = ProxyTelemetry("west")
    telemetry.record_span(make_span())
    telemetry.record_span(make_span(end=0.6))
    report = telemetry.harvest(10.0, pool_stats={})
    window = report.service_class[("S1", "default")]
    assert window.completions == 2
    assert window.mean_latency == pytest.approx((0.4 + 0.6) / 2)
    assert window.mean_exec == pytest.approx(0.2)
    assert window.mean_queue_wait == pytest.approx(0.1)


def test_remote_arrivals_counted():
    telemetry = ProxyTelemetry("west")
    telemetry.record_span(make_span(caller_cluster="east"))
    telemetry.record_span(make_span(caller_cluster="west"))
    report = telemetry.harvest(1.0, pool_stats={})
    assert report.service_class[("S1", "default")].remote_arrivals == 1


def test_wrong_cluster_span_rejected():
    telemetry = ProxyTelemetry("west")
    with pytest.raises(ValueError):
        telemetry.record_span(make_span(cluster="east"))


def test_ingress_counting_and_rps():
    telemetry = ProxyTelemetry("west")
    for _ in range(20):
        telemetry.record_ingress(make_request())
    report = telemetry.harvest(10.0, pool_stats={})
    assert report.ingress_counts["default"] == 20
    assert report.ingress_rps("default") == pytest.approx(2.0)
    assert report.ingress_rps("other") == 0.0


def test_harvest_resets_accumulators():
    telemetry = ProxyTelemetry("west")
    telemetry.record_span(make_span())
    telemetry.record_ingress(make_request())
    telemetry.harvest(5.0, pool_stats={})
    report = telemetry.harvest(10.0, pool_stats={})
    assert report.service_class == {}
    assert report.ingress_counts == {}
    assert report.start_time == 5.0
    assert report.duration == 5.0


def test_service_rps_from_report():
    telemetry = ProxyTelemetry("west")
    for _ in range(30):
        telemetry.record_span(make_span())
    report = telemetry.harvest(10.0, pool_stats={})
    assert report.service_rps("S1", "default") == pytest.approx(3.0)
    assert report.service_rps("S9", "default") == 0.0


def test_completion_latencies_recorded():
    telemetry = ProxyTelemetry("west")
    telemetry.record_completion(make_request(completion=0.75))
    report = telemetry.harvest(1.0, pool_stats={})
    assert report.request_latencies == [pytest.approx(0.75)]


def test_run_telemetry_warmup_filter():
    run = RunTelemetry()
    run.record_completion(make_request(arrival=1.0, completion=1.5))
    run.record_completion(make_request(arrival=6.0, completion=6.2))
    assert len(run.latencies()) == 2
    assert run.latencies(after=5.0) == [pytest.approx(0.2)]


def test_run_telemetry_by_class():
    run = RunTelemetry()
    fast = make_request()
    fast.traffic_class = "L"
    slow = make_request(completion=2.0)
    slow.traffic_class = "H"
    run.record_completion(fast)
    run.record_completion(slow)
    by_class = run.latencies_by_class()
    assert set(by_class) == {"L", "H"}
    assert by_class["H"] == [pytest.approx(2.0)]


def test_run_telemetry_span_retention_flag():
    keeping = RunTelemetry(tracing=True)
    keeping.record_span(make_span())
    assert len(keeping.spans) == 1
    assert RunTelemetry().spans is None   # untraced: no span list at all


KEYS = (("S1", "L"), ("S2", "L"), ("S1", "H"))


def observe(telemetry, keys=KEYS, completions=(2, 0, 1), remote=(1, 0, 0),
            wait=0.5, exec_time=0.25):
    completions = np.array(completions, dtype=np.int64)
    return telemetry.observe_bulk(
        keys, completions, completions * (wait + exec_time),
        completions * exec_time, completions * wait,
        np.array(remote, dtype=np.int64))


@pytest.mark.parametrize("column", ["completions", "remote"])
@pytest.mark.parametrize("entry", [0, 1, 2])
def test_bulk_window_block_rejects_any_negative_count(column, entry):
    telemetry = ProxyTelemetry("west")
    counts = {"completions": [2, 0, 1], "remote": [1, 0, 0]}
    counts[column][entry] = -1
    with pytest.raises(ValueError, match=">= 0"):
        observe(telemetry, completions=counts["completions"],
                remote=counts["remote"])
    assert telemetry.harvest(1.0, pool_stats={}).service_class == {}


@pytest.mark.parametrize("entry", [0, 1])
def test_bulk_ingress_block_rejects_any_negative_count(entry):
    telemetry = ProxyTelemetry("west")
    counts = np.array([3, 4], dtype=np.int64)
    counts[entry] = -1
    with pytest.raises(ValueError, match=">= 0"):
        telemetry.record_ingress_bulk(("H", "L"), counts)
    assert telemetry.harvest(1.0, pool_stats={}).ingress_counts == {}


def test_bulk_block_must_match_its_keys():
    telemetry = ProxyTelemetry("west")
    with pytest.raises(ValueError, match="3 keys"):
        observe(telemetry, completions=(1, 1), remote=(0, 0))


def test_bulk_blocks_accumulate_and_fold_at_harvest():
    telemetry = ProxyTelemetry("west")
    observe(telemetry)
    observe(telemetry, completions=(1, 0, 0), remote=(0, 0, 2))
    telemetry.record_ingress_bulk(("H", "L"), np.array([0, 5]))
    telemetry.record_ingress_bulk(("H", "L"), np.array([0, 2]))
    report = telemetry.harvest(2.0, pool_stats={})
    windows = report.service_class
    # a key that never counted anything gets no window
    assert sorted(windows) == [("S1", "H"), ("S1", "L")]
    assert windows[("S1", "L")].completions == 3
    assert windows[("S1", "L")].remote_arrivals == 1
    assert windows[("S1", "L")].mean_latency == pytest.approx(0.75)
    assert windows[("S1", "L")].mean_queue_wait == pytest.approx(0.5)
    assert windows[("S1", "H")].completions == 1
    assert windows[("S1", "H")].remote_arrivals == 2
    assert report.ingress_counts == {"L": 7}
    assert report.service_rps("S1", "L") == pytest.approx(1.5)


def test_bulk_block_adds_onto_span_windows():
    telemetry = ProxyTelemetry("west")
    telemetry.record_span(make_span(service="S1", cls="L"))
    telemetry.record_ingress(make_request())
    observe(telemetry)
    telemetry.record_ingress_bulk(("default",), np.array([4]))
    report = telemetry.harvest(1.0, pool_stats={})
    window = report.service_class[("S1", "L")]
    assert window.completions == 3
    assert window.exec_sum == pytest.approx(0.2 + 2 * 0.25)
    assert report.ingress_counts == {"default": 5}


def test_new_key_tuple_folds_the_held_block_first():
    telemetry = ProxyTelemetry("west")
    observe(telemetry)
    telemetry.record_ingress_bulk(("H", "L"), np.array([1, 2]))
    # another key order: the held block is folded under the old keys
    observe(telemetry, keys=(("S1", "H"), ("S1", "L"), ("S2", "L")),
            completions=(4, 0, 0), remote=(0, 0, 0))
    telemetry.record_ingress_bulk(("L",), np.array([10]))
    report = telemetry.harvest(1.0, pool_stats={})
    assert report.service_class[("S1", "H")].completions == 1 + 4
    assert report.service_class[("S1", "L")].completions == 2
    assert report.ingress_counts == {"H": 1, "L": 12}


def test_harvest_resets_bulk_accumulators():
    telemetry = ProxyTelemetry("west")
    observe(telemetry)
    telemetry.record_ingress_bulk(("H", "L"), np.array([1, 2]))
    first = telemetry.harvest(1.0, pool_stats={})
    second = telemetry.harvest(2.0, pool_stats={})
    assert first.service_class and first.ingress_counts
    assert second.service_class == {} and second.ingress_counts == {}
    # the same keys keep accumulating from zero after a harvest
    observe(telemetry, completions=(1, 0, 0), remote=(0, 0, 0))
    third = telemetry.harvest(3.0, pool_stats={})
    assert third.service_class[("S1", "L")].completions == 1
    assert third.service_class[("S1", "L")].latency_sum == pytest.approx(
        0.75)
    # the folded report owns its windows: later blocks do not reach it
    assert first.service_class[("S1", "L")].completions == 2


def test_run_telemetry_bulk_rejects_negative_counts():
    run = RunTelemetry()
    with pytest.raises(ValueError):
        run.record_bulk("L", -1)
    run.record_bulk("L", 3, 1)
    assert run.completed_by_class == {"L": 3}
    assert run.failed_by_class == {"L": 1}

