"""Decision provenance: the per-epoch causal chain + the flight recorder.

Covers the PR 8 acceptance chain end to end: a diurnal run whose records
link demand delta → solver path (replay/warm/cold) → installed rule delta
→ next-epoch scraped effect; anomaly-triggered flight dumps (chaos fault
edges, SLO alerts, invariant failures, fallback trips); and the
perturbation-free guarantee when the pillar is off.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.devtools.invariants import InvariantViolation
from repro.mesh.routing_table import RouteKey
from repro.experiments.scenarios import (chaos_outage_setup,
                                         diurnal_control_setup)
from repro.obs import (Observability, ObservabilityConfig, FlightRecorder,
                       ProvenanceLog, ProvenanceRecord, telemetry_digest,
                       write_flight_dump, write_provenance_jsonl)
from repro.obs.provenance import EpochEffect
from repro.obs.reading import read_epoch


# ------------------------------------------------------------ unit layer

def make_record(epoch=0, sim_time=10.0, outcome="solved", **overrides):
    fields = dict(
        epoch=epoch, sim_time=sim_time, outcome=outcome,
        telemetry_digest="abc", report_count=2,
        demand={"default": {"west": 200.0, "east": 100.0}},
        demand_delta={"default": {"west": 25.0, "east": -25.0}},
        solver={"solver_path": "warm", "warm_build": True,
                "hot_start": "optimal"},
        objective=1.5, fingerprint="f00",
        rule_deltas={"default": {"added": 0, "removed": 0, "changed": 1,
                                 "churn": 0.2,
                                 "shift": {"east": 0.1, "west": -0.1}}},
        rule_changes=[], weight_churn=0.2)
    fields.update(overrides)
    return ProvenanceRecord(**fields)


def test_record_accessors_and_dict_roundtrip():
    record = make_record()
    assert record.demand_delta_l1() == pytest.approx(50.0)
    assert record.demand_delta_l1("default") == pytest.approx(50.0)
    assert record.demand_delta_l1("other") == 0.0
    assert record.shift_for("default") == {"east": 0.1, "west": -0.1}
    assert record.churn_for("default") == pytest.approx(0.2)
    assert record.churn_for("other") == 0.0
    payload = record.as_dict()
    json.dumps(payload)                      # JSONL-safe
    assert payload["solver"]["solver_path"] == "warm"
    assert payload["effect"] is None


def test_flight_ring_bounds_and_counts_drops():
    ring = FlightRecorder(capacity=4)
    for index in range(7):
        ring.append(make_record(epoch=index, sim_time=float(index)))
    assert len(ring) == 4
    assert ring.dropped_records == 3
    assert [r.epoch for r in ring.records()] == [3, 4, 5, 6]
    with pytest.raises(ValueError):
        FlightRecorder(capacity=1)


def test_flight_snapshot_freezes_ring():
    ring = FlightRecorder(capacity=4)
    ring.append(make_record())
    dump = ring.snapshot({"reason": "test", "sim_time": 1.0},
                         {"scenario": "s", "seed": 7}, None)
    assert dump["run"] == {"scenario": "s", "seed": 7}
    assert dump["ring_capacity"] == 4
    assert len(dump["records"]) == 1
    # the dump is a copy of state, not a live view
    ring.append(make_record(epoch=1))
    assert len(dump["records"]) == 1
    assert ring.snapshots == [dump]


def test_telemetry_digest_is_content_addressed():
    from types import SimpleNamespace

    def report(cluster, start=0.0, counts=None):
        return SimpleNamespace(cluster=cluster, start_time=start,
                               duration=2.0,
                               ingress_counts=counts or {"default": 10},
                               request_latencies=[0.01] * 10)

    a = telemetry_digest([report("west"), report("east")])
    # order-insensitive: the payload sorts by (cluster, start)
    assert telemetry_digest([report("east"), report("west")]) == a
    assert telemetry_digest([report("west"),
                             report("east", counts={"default": 11})]) != a
    assert len(a) == 16


def test_seed_rules_baselines_the_first_diff():
    log = ProvenanceLog()
    initial = {RouteKey("S1", "default", "west"): {"west": 1.0}}
    log.seed_rules(initial)
    record = log.record_epoch(read_epoch(10.0, None, None), rules=dict(initial))
    assert record.weight_churn == 0.0
    assert record.rule_deltas == {}
    # ...whereas an unseeded log would have claimed the install
    unseeded = ProvenanceLog()
    claimed = unseeded.record_epoch(read_epoch(10.0, None, None), rules=dict(initial))
    assert claimed.rule_deltas["default"]["added"] == 1


def test_record_epoch_diffs_rules_and_closes_effect_windows():
    key = RouteKey("S1", "default", "west")
    log = ProvenanceLog()
    log.seed_rules({key: {"west": 1.0}})
    first = log.record_epoch(read_epoch(10.0, None, None), rules={key: {"west": 0.8, "east": 0.2}})
    second = log.record_epoch(read_epoch(20.0, None, None), rules={key: {"west": 0.8, "east": 0.2}})
    delta = first.rule_deltas["default"]
    assert delta["changed"] == 1
    assert delta["churn"] == pytest.approx(0.4)   # |Δwest| + |Δeast|
    assert first.shift_for("default")["east"] == pytest.approx(0.2)
    assert first.rule_changes[0]["new"] == {"west": 0.8, "east": 0.2}
    assert first.rule_changes[0]["kind"] == "changed"
    assert second.weight_churn == 0.0
    # without a bound TimeSeriesStore the window closes but cannot be
    # attributed: effect stays None rather than inventing numbers
    log.finalize(30.0)
    assert first.effect is None and second.effect is None


def test_record_anomaly_without_store_snapshots_ring():
    log = ProvenanceLog()
    log.bind_run("unit", 3, policy="slate")
    log.record_epoch(read_epoch(10.0, None, None), rules={})
    dump = log.record_anomaly(10.0, "invariant", {"error": "boom"})
    assert dump["trigger"]["reason"] == "invariant"
    assert dump["run"] == {"scenario": "unit", "seed": 3, "policy": "slate"}
    assert dump["timeseries"] is None        # no store bound
    assert log.snapshots == [dump]


# --------------------------------------------- diurnal acceptance chain

@pytest.fixture(scope="module")
def diurnal_log():
    # replicas=2: peak demand exceeds one cluster's capacity, so epochs
    # actually shift weight cross-cluster (see diurnal_control_setup)
    setup = diurnal_control_setup(duration=120.0, replicas=2)
    obs = Observability(ObservabilityConfig(
        provenance=True, decisions=True, timeseries=True))
    setup.run(obs)
    return obs


def test_diurnal_records_cover_reuse_ladder(diurnal_log):
    records = diurnal_log.provenance.records
    assert len(records) == 12                 # 120 s / 10 s epochs
    paths = {r.solver["solver_path"] for r in records
             if r.solver is not None}
    # the cold rung is paid by the initial plan (same controller, same
    # solver), which is not an epoch: epochs start warm
    assert {"warm", "replay"} <= paths
    solved = [r for r in records if r.outcome == "solved"]
    assert solved and all(r.objective is not None and r.fingerprint
                          for r in solved)
    # every warm epoch records the hot start that produced it
    warm = [r for r in records
            if r.solver and r.solver["solver_path"] == "warm"]
    assert warm and all(r.solver["hot_start"] == "optimal" for r in warm)
    assert all(r.solver["candidates"] is None or
               r.solver["candidates"]["paths"] > 0 for r in warm)


def test_diurnal_chain_links_cause_to_effect(diurnal_log):
    """The acceptance bar: demand delta → solve → rule delta → shift."""
    records = diurnal_log.provenance.records
    shifted = [r for r in records
               if r.churn_for("default") > 0 and r.effect is not None]
    assert shifted, "no epoch shifted weight — scenario regressed"
    for record in shifted:
        # (a) observed: a telemetry digest plus a real demand movement
        assert record.telemetry_digest and record.report_count == 2
        assert record.demand_delta_l1("default") > 0
        # (b) decided: the epoch took a concrete reuse-ladder rung
        assert record.solver["solver_path"] in ("replay", "warm", "cold")
        # (c) shipped: a per-class diff with a net destination shift
        shift = record.shift_for("default")
        assert shift and sum(shift.values()) == pytest.approx(0.0, abs=1e-6)
        # (d) effect: the scrape loop saw exactly the churn we installed
        assert record.effect.weight_churn == pytest.approx(
            record.weight_churn, abs=1e-6)
        assert record.effect.egress       # per-(src,dst) attribution


def test_explain_renders_full_narrative(diurnal_log):
    text = diurnal_log.provenance.explain("default")
    for fragment in ("why did traffic for class 'default' shift",
                     "observed:", "demand[default]:", "decided:",
                     "shipped:", "net weight shift", "effect over"):
        assert fragment in text, f"missing {fragment!r}:\n{text}"


def test_explain_at_picks_epoch_by_time(diurnal_log):
    text = diurnal_log.provenance.explain("default", at=50.0)
    assert "at t=50 (epoch 4)" in text
    # before the first epoch boundary falls back to the oldest record
    assert "(epoch 0)" in diurnal_log.provenance.explain("default", at=0.0)


def test_render_and_jsonl_exports(diurnal_log, tmp_path):
    log = diurnal_log.provenance
    table = log.render()
    assert "records=12" in table and "replay" in table
    path = tmp_path / "prov.jsonl"
    count = write_provenance_jsonl(log, path)
    lines = path.read_text().strip().splitlines()
    assert count == len(lines) == 12
    restored = [json.loads(line) for line in lines]
    assert restored[0]["epoch"] == 0
    assert {r["outcome"] for r in restored} <= {
        "solved", "replayed", "no-demand"}


def test_empty_log_explains_gracefully():
    assert "no provenance records" in ProvenanceLog().explain("default")


# -------------------------------------------------- anomaly triggers

def test_chaos_fault_triggers_flight_dump(tmp_path):
    """The injected FaultRecord freezes a ring that reaches the fallback
    rule install — the §5 outage story end to end."""
    setup = chaos_outage_setup(duration=40.0)
    obs = Observability(ObservabilityConfig(
        provenance=True, decisions=True, timeseries=True))
    setup.run(obs)
    log = obs.provenance
    snapshots = log.snapshots
    reasons = [s["trigger"]["reason"] for s in snapshots]
    # injection edge, the tripped guard, and both recovery edges
    assert "fault" in reasons
    assert "fallback" in reasons
    assert "fault_recovered" in reasons
    fault = next(s for s in snapshots if s["trigger"]["reason"] == "fault")
    assert fault["trigger"]["detail"]["kind"] in ("ControlPlaneOutage",
                                                  "WanFault")
    assert fault["run"]["scenario"] == "chaos-outage"
    assert fault["run"]["seed"] == 42
    # the recovery dump's ring contains the outage epochs and the
    # fallback install the dead controller never saw
    recovered = next(s for s in snapshots
                     if s["trigger"]["reason"] == "fault_recovered")
    ring = recovered["records"]
    assert any(r["outcome"] == "outage" for r in ring)
    assert any(r["fallback_clusters"] for r in ring)
    tripped = next(r for r in ring if r["fallback_clusters"])
    assert set(tripped["fallback_clusters"]) == {"west", "east"}
    assert tripped["weight_churn"] > 0        # the fallback swap itself
    # dumps are written one JSON document per line
    out = tmp_path / "flight.jsonl"
    assert write_flight_dump(log, out) == len(snapshots)
    first = json.loads(out.read_text().splitlines()[0])
    assert first["trigger"]["reason"] == reasons[0]


def test_slo_alert_triggers_snapshot():
    from repro.experiments.scenarios import slo_burnrate_setup

    setup = slo_burnrate_setup()
    obs = Observability(setup.observability(provenance=True))
    setup.run(obs)
    alerts = [s for s in obs.provenance.snapshots
              if s["trigger"]["reason"] == "slo_alert"]
    assert alerts, "the surge scenario must fire at least one alert"
    assert alerts[0]["trigger"]["detail"]["rule"] == "latency-250ms"
    assert alerts[0]["timeseries"] is not None


def test_invariant_violation_freezes_recorder():
    class ExplodingPolicy:
        name = "exploding"
        controller = None

        def compute_rules(self, ctx):
            from repro.baselines.locality import LocalityFailoverPolicy
            return LocalityFailoverPolicy().compute_rules(ctx)

        def on_epoch(self, reports, ctx):
            raise InvariantViolation("synthetic failure")

    setup = diurnal_control_setup(duration=30.0)
    obs = Observability(ObservabilityConfig(provenance=True,
                                            timeseries=True))
    with pytest.raises(InvariantViolation):
        replace(setup, policy=ExplodingPolicy()).run(obs)
    snapshots = obs.provenance.snapshots
    assert len(snapshots) == 1
    assert snapshots[0]["trigger"]["reason"] == "invariant"
    assert snapshots[0]["trigger"]["detail"]["error"] == "synthetic failure"


# ---------------------------------------------- perturbation-free bar

def test_disabled_provenance_is_byte_identical():
    """Provenance off (the default) must not perturb a run at all."""
    base = diurnal_control_setup(duration=60.0, replicas=2)
    baseline = base.run()
    prov = diurnal_control_setup(duration=60.0, replicas=2)
    obs = Observability(ObservabilityConfig(
        provenance=True, decisions=True, timeseries=True))
    observed = prov.run(obs)
    assert observed.latencies == baseline.latencies
    assert observed.egress_bytes == baseline.egress_bytes
    assert observed.egress_cost == baseline.egress_cost
    assert len(obs.provenance.records) > 0    # and it really recorded


def test_provenance_config_implies_timeseries():
    config = ObservabilityConfig(provenance=True)
    assert config.enabled
    obs = Observability(config)
    assert obs.provenance is not None
    assert obs.timeseries is not None         # effect attribution source
    assert Observability.coerce(ObservabilityConfig()) is None


def test_epoch_effect_dict_shape():
    effect = EpochEffect(start=1.0, end=2.0, weight_churn=0.5,
                         egress={"a->b": {"rate": 1.0, "delta": 0.5}},
                         latency={"default": {"p95": 0.1, "delta": None}})
    payload = effect.as_dict()
    json.dumps(payload)
    assert payload["egress"]["a->b"]["delta"] == 0.5
