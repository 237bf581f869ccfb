"""Smoke test of the ledger itself: ``pytest benchmarks/e2e -q``.

Not in tier-1 ``testpaths``. Every workload runs in-process at ``--scale
smoke``, traced, twice with one seed.
"""

import json
import re
from pathlib import Path

import pytest

from . import driver, trace
from .spec import END_TO_END, PER_LAYER, WORKLOADS, exact_names

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_contract_file_matches_spec():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert contract["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in contract["workloads"])
    assert contract["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in END_TO_END]
    assert contract["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in PER_LAYER]
    names = [m.name for m in END_TO_END + PER_LAYER] + list(WORKLOADS)
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert len(WORKLOADS) <= 8
    assert len(END_TO_END) <= 16 and len(PER_LAYER) <= 128
    assert any(m.name == "setup_s" and m.unit == "s" for m in END_TO_END)
    assert all(0 < m.bound <= 0.25 for m in END_TO_END)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_smoke(name):
    from repro.mesh.proxy import SlateProxy
    from repro.sim.engine import Simulator
    originals = (SlateProxy.choose_cluster, Simulator.schedule)

    first = driver.measure(name, seed=7, seconds=0.0, trace=True,
                           scale="smoke")
    second = driver.measure(name, seed=7, seconds=0.0, trace=True,
                            scale="smoke")

    assert first["correct"], first["problems"]
    assert first["failed"] == 0 and first["attempted"] >= 1
    assert set(first["per_layer"]) == {m.name for m in PER_LAYER}
    assert first["sim_digest"] == second["sim_digest"]
    for metric in exact_names():
        assert first["per_layer"][metric] == second["per_layer"][metric], (
            metric)
    # wrappers fully removed
    assert (SlateProxy.choose_cluster, Simulator.schedule) == originals
    assert not hasattr(SlateProxy.choose_cluster, "_e2e_traced")
    # the layers partition the traced wall: self times sum to it
    traced_wall = first["round_wall_s"][0] * (
        1 + first["per_layer"]["bench.trace_overhead_frac"])
    self_times = sum(
        value for key, value in first["per_layer"].items()
        if key.endswith("_s") and "." in key)
    assert self_times == pytest.approx(traced_wall, rel=0.10)


def test_untraced_run_reports_every_end_to_end_metric():
    report = driver.measure("ctl_churn_arc", seed=7, seconds=0.0,
                            trace=False, scale="smoke")
    assert report["correct"], report["problems"]
    assert set(report["end_to_end"]) == {m.name for m in END_TO_END}
    assert all(value > 0 for value in report["end_to_end"].values())


def test_every_target_resolves():
    for target in trace.TARGETS:
        assert target.attr in trace._resolve(target.owner).__dict__, target
