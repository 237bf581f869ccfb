"""Booking goldens for the fluid tick: what bulk flow writes into the mesh.

``tests/golden/fluid_bookings.json`` freezes, per control epoch of one
``"fluid"`` and one ``"hybrid"`` run, everything the tick books against
the mesh objects the controllers read:

* every harvested :class:`~repro.mesh.telemetry.ClusterEpochReport`'s
  ``service_class`` windows (all six counters) and ``ingress_counts``;
* each gateway's admitted, completed, failed and open counts at the epoch
  boundary — the open count moves if a bulk cohort settles at any other
  time than ``tick + predicted mean latency``;
* :class:`~repro.mesh.telemetry.RunTelemetry`'s ``completed_by_class``
  and ``failed_by_class``.

The fluid run must match exactly. In the hybrid run every integer must
match exactly, but the float window sums may differ by at most 1e-12
relative: event spans add into a window one at a time while bulk flow
arrives as one block per tick, and where the two meet in one window the
fold re-associates their additions.

The scenarios straddle epoch boundaries with settle delays (epochs are not
a multiple of the tick), saturate a pool so cohorts carry failures, route
across clusters so windows carry remote arrivals, and add a class at one
cluster mid-run.

Regenerate (only when the *model* is meant to change):
``PYTHONPATH=src python tests/test_fluid_booking_golden.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.classes import AppSpecClassifier
from repro.mesh.routing_table import RouteKey
from repro.sim import DemandMatrix, DeploymentSpec, two_region_latency
from repro.sim.apps import two_class_app
from repro.sim.runner import MeshSimulation
from repro.sim.traces import DemandTimeline

GOLDEN = Path(__file__).parent / "golden" / "fluid_bookings.json"

#: relative tolerance on hybrid window float sums (see module docstring)
HYBRID_REL = 1e-12


def _world(replicas: int):
    app = two_class_app(n_services=3)
    deployment = DeploymentSpec.uniform(
        app.services(), ["west", "east"], replicas=replicas,
        latency=two_region_latency(25.0))
    return app, deployment


def _timeline(scale: float) -> DemandTimeline:
    return DemandTimeline(keyframes=[
        (0.0, DemandMatrix({("L", "west"): 400.0 * scale,
                            ("H", "west"): 60.0 * scale,
                            ("L", "east"): 50.0 * scale})),
        (1.45, DemandMatrix({("L", "west"): 150.0 * scale,
                             ("H", "west"): 10.0 * scale,
                             ("L", "east"): 80.0 * scale,
                             ("H", "east"): 20.0 * scale})),
    ], end=3.0)


def _run(fidelity: str, replicas: int, scale: float, seed: int,
         **kwargs) -> list[dict]:
    app, deployment = _world(replicas)
    sim = MeshSimulation(app, deployment, seed=seed, fidelity=fidelity,
                         fluid_tick=0.1,
                         classifier=AppSpecClassifier(app), **kwargs)
    sim.table.set_weights(RouteKey("S2", "*", "west"),
                          {"west": 0.7, "east": 0.3})
    epochs: list[dict] = []

    def on_epoch(reports, simulation) -> None:
        epochs.append(_epoch(simulation, reports))

    sim.run_timeline(_timeline(scale), epoch=0.75, on_epoch=on_epoch)
    return epochs


def _epoch(sim: MeshSimulation, reports) -> dict:
    telemetry = sim.telemetry
    return {
        "time": sim.sim.now,
        "reports": {
            report.cluster: {
                "start": report.start_time,
                "duration": report.duration,
                "windows": {
                    f"{service}|{cls}": [
                        window.arrivals, window.completions,
                        window.latency_sum, window.exec_sum,
                        window.queue_wait_sum, window.remote_arrivals]
                    for (service, cls), window
                    in sorted(report.service_class.items())},
                "ingress": dict(sorted(report.ingress_counts.items())),
            }
            for report in reports},
        "gateways": {
            name: [gateway.admitted_count, gateway.completed_count,
                   gateway.failed_count, gateway.open_requests]
            for name, gateway in sorted(sim.gateways.items())},
        "completed_by_class": dict(sorted(
            telemetry.completed_by_class.items())),
        "failed_by_class": dict(sorted(telemetry.failed_by_class.items())),
    }


def fluid_saturating() -> list[dict]:
    # 3 replicas per pool: west's first keyframe offers 4 erlangs at S1
    return _run("fluid", replicas=3, scale=1.0, seed=5)


def hybrid_sampled() -> list[dict]:
    return _run("hybrid", replicas=12, scale=4.0, seed=9, sample_rate=0.2)


SCENARIOS = {
    "fluid_saturating": fluid_saturating,
    "hybrid_sampled": hybrid_sampled,
}


@pytest.fixture(scope="module")
def golden():
    with GOLDEN.open() as fh:
        return json.load(fh)


def test_golden_covers_every_scenario(golden):
    assert sorted(golden) == sorted(SCENARIOS)


def test_scenarios_reach_the_branches_they_name(golden):
    """The bookings are only worth freezing if the branches ran."""
    for name, epochs in golden.items():
        assert len(epochs) == 4, name
        # a cohort is still in flight at some boundary
        assert any(count[3] > 0 for epoch in epochs
                   for count in epoch["gateways"].values()), name
        assert any(window[5] > 0 for epoch in epochs
                   for report in epoch["reports"].values()
                   for window in report["windows"].values()), name
        last = epochs[-1]
        for admitted, completed, failed, still_open in (
                last["gateways"].values()):
            assert admitted == completed + failed and still_open == 0, name
    assert golden["fluid_saturating"][-1]["failed_by_class"]
    # H enters at east only in the second keyframe
    assert "H" not in golden["fluid_saturating"][0]["reports"]["east"][
        "ingress"]
    assert golden["fluid_saturating"][2]["reports"]["east"]["ingress"]["H"]


def _assert_close(actual, frozen, path: str) -> None:
    """Integers (and structure) exact; floats within ``HYBRID_REL``."""
    if isinstance(frozen, dict):
        assert sorted(actual) == sorted(frozen), path
        for key in frozen:
            _assert_close(actual[key], frozen[key], f"{path}/{key}")
    elif isinstance(frozen, list):
        assert len(actual) == len(frozen), path
        for index, (got, want) in enumerate(zip(actual, frozen)):
            _assert_close(got, want, f"{path}[{index}]")
    elif isinstance(frozen, float):
        assert isinstance(actual, float), path
        assert actual == pytest.approx(frozen, rel=HYBRID_REL, abs=0.0), path
    else:
        assert type(actual) is type(frozen) and actual == frozen, path


def test_fluid_bookings_match_golden_exactly(golden):
    assert json.loads(json.dumps(fluid_saturating())) == (
        golden["fluid_saturating"])


def test_hybrid_bookings_match_golden(golden):
    _assert_close(json.loads(json.dumps(hybrid_sampled())),
                  golden["hybrid_sampled"], "hybrid_sampled")


if __name__ == "__main__":
    frozen = {name: build() for name, build in sorted(SCENARIOS.items())}
    GOLDEN.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(frozen)} scenarios)")
