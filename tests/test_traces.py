"""Tests for demand timelines, diurnal curves, and CSV traces."""

import math

import pytest

from repro.sim import (DemandMatrix, DeploymentSpec, linear_chain_app,
                       two_region_latency)
from repro.sim.runner import MeshSimulation
from repro.sim.traces import (DemandTimeline, diurnal_timeline,
                              install_timeline, load_demand_csv,
                              save_demand_csv)


def dm(west=100.0, east=50.0):
    return DemandMatrix({("default", "west"): west,
                         ("default", "east"): east})


class TestTimeline:
    def test_constant(self):
        timeline = DemandTimeline.constant(dm(), duration=10.0)
        assert timeline.demand_at(5.0).rps("default", "west") == 100.0
        assert timeline.entries() == {("default", "west"),
                                      ("default", "east")}

    def test_keyframe_switching(self):
        timeline = DemandTimeline(
            keyframes=[(0.0, dm(100.0)), (10.0, dm(400.0))], end=20.0)
        assert timeline.demand_at(5.0).rps("default", "west") == 100.0
        assert timeline.demand_at(15.0).rps("default", "west") == 400.0

    def test_profile_segments(self):
        timeline = DemandTimeline(
            keyframes=[(0.0, dm(100.0)), (10.0, dm(400.0))], end=20.0)
        profile = timeline.profile_for("default", "west")
        assert profile.segment_at(5.0).rps == 100.0
        assert profile.segment_at(15.0).rps == 400.0
        assert profile.end == 20.0

    def test_silent_source_profile(self):
        timeline = DemandTimeline.constant(
            DemandMatrix({("default", "west"): 10.0}), duration=5.0)
        profile = timeline.profile_for("default", "east")
        assert profile.segment_at(2.0).rps == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="time-ordered"):
            DemandTimeline(keyframes=[(5.0, dm()), (1.0, dm())], end=10.0)
        with pytest.raises(ValueError, match="duplicate"):
            DemandTimeline(keyframes=[(1.0, dm()), (1.0, dm())], end=10.0)
        with pytest.raises(ValueError, match="end"):
            DemandTimeline(keyframes=[(5.0, dm())], end=5.0)

    def test_peak_total(self):
        timeline = DemandTimeline(
            keyframes=[(0.0, dm(100.0, 50.0)), (10.0, dm(400.0, 50.0))],
            end=20.0)
        assert timeline.peak_total_rps() == 450.0


class TestDiurnal:
    def test_sinusoid_shape(self):
        timeline = diurnal_timeline(
            DemandMatrix({("default", "west"): 100.0}),
            duration=86_400.0, amplitude=0.5, steps_per_period=24)
        rates = [demand.rps("default", "west")
                 for _, demand in timeline.keyframes]
        assert max(rates) == pytest.approx(150.0, rel=0.02)
        assert min(rates) == pytest.approx(50.0, rel=0.02)

    def test_phase_shift_creates_imbalance(self):
        timeline = diurnal_timeline(
            dm(100.0, 100.0), duration=86_400.0, amplitude=0.5,
            phase_by_cluster={"west": 0.0, "east": math.pi},
            steps_per_period=24)
        # at the west peak, east is in its trough
        quarter = timeline.keyframes[6][1]   # t = period/4
        assert quarter.rps("default", "west") > 140.0
        assert quarter.rps("default", "east") < 60.0

    def test_validation(self):
        with pytest.raises(ValueError):
            diurnal_timeline(dm(), duration=10.0, amplitude=1.5)
        with pytest.raises(ValueError):
            diurnal_timeline(dm(), duration=10.0, steps_per_period=1)

    @pytest.mark.parametrize("period, duration", [
        (0.0, 10.0),            # the step would divide by zero
        (-10.0, 10.0),          # a negative step never reaches duration
        (math.nan, 10.0),
        (math.inf, 10.0),
        (10.0, math.inf),       # the keyframe loop would never end
        (10.0, math.nan),
    ])
    def test_rejects_degenerate_period_and_duration(self, period, duration):
        with pytest.raises(ValueError, match="period|duration"):
            diurnal_timeline(dm(), duration=duration, period=period)


class TestCSV:
    def test_round_trip(self, tmp_path):
        timeline = DemandTimeline(
            keyframes=[(0.0, dm(100.0)), (10.0, dm(400.0, 75.0))], end=20.0)
        path = tmp_path / "trace.csv"
        save_demand_csv(timeline, path)
        loaded = load_demand_csv(path)
        assert loaded.end == 20.0
        assert loaded.demand_at(15.0).rps("default", "west") == 400.0
        assert loaded.demand_at(15.0).rps("default", "east") == 75.0

    def test_empty_trace_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("time,class,cluster,rps\n")
        with pytest.raises(ValueError, match="no demand rows"):
            load_demand_csv(path)

    @pytest.mark.parametrize("rps", ["nan", "inf", "-inf"])
    def test_non_finite_rate_rejected(self, tmp_path, rps):
        """A nan/inf row used to load, and peak_total_rps() read nan."""
        path = tmp_path / "trace.csv"
        path.write_text("time,class,cluster,rps\n0.0,default,west,100\n"
                        f"5.0,default,west,{rps}\n10.0,,,\n")
        with pytest.raises(ValueError, match="finite"):
            load_demand_csv(path)

    def test_missing_end_marker_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("time,class,cluster,rps\n0.0,default,west,100\n")
        with pytest.raises(ValueError, match="end marker"):
            load_demand_csv(path)


class TestInstall:
    def test_timeline_drives_simulation(self):
        app = linear_chain_app(n_services=2, exec_time=0.005)
        deployment = DeploymentSpec.uniform(
            app.services(), ["west", "east"], replicas=5,
            latency=two_region_latency(25.0))
        sim = MeshSimulation(app, deployment, seed=8)
        timeline = DemandTimeline(
            keyframes=[(0.0, DemandMatrix({("default", "west"): 100.0})),
                       (10.0, DemandMatrix({("default", "west"): 300.0}))],
            end=20.0)
        install_timeline(sim, timeline, deterministic=True)
        sim.sim.run(until=20.0)
        sim.sim.run_until_idle()
        first = sum(1 for r in sim.telemetry.requests
                    if r.arrival_time < 10.0)
        second = sum(1 for r in sim.telemetry.requests
                     if r.arrival_time >= 10.0)
        assert first == pytest.approx(1000, abs=5)
        assert second == pytest.approx(3000, abs=5)


class TestRunTimeline:
    def test_run_timeline_with_epochs(self):
        app = linear_chain_app(n_services=2, exec_time=0.005)
        deployment = DeploymentSpec.uniform(
            app.services(), ["west", "east"], replicas=5,
            latency=two_region_latency(25.0))
        sim = MeshSimulation(app, deployment, seed=9)
        timeline = DemandTimeline(
            keyframes=[(0.0, DemandMatrix({("default", "west"): 100.0}))],
            end=12.0)
        epochs = []
        sim.run_timeline(timeline, epoch=4.0,
                         on_epoch=lambda reports, s: epochs.append(
                             sum(r.ingress_counts.get("default", 0)
                                 for r in reports)))
        # 2 mid-run boundaries + final harvest
        assert len(epochs) == 3
        assert sum(epochs) == len(sim.telemetry.requests)
        assert len(sim.telemetry.requests) > 1000

    def test_run_timeline_validation(self):
        app = linear_chain_app(n_services=2)
        deployment = DeploymentSpec.uniform(
            app.services(), ["west", "east"], replicas=5,
            latency=two_region_latency(25.0))
        sim = MeshSimulation(app, deployment, seed=9)
        timeline = DemandTimeline(
            keyframes=[(0.0, DemandMatrix({("default", "west"): 10.0}))],
            end=5.0)
        with pytest.raises(ValueError, match="epoch"):
            sim.run_timeline(timeline, epoch=0.0)

    @pytest.mark.parametrize("fidelity", ["event", "fluid"])
    @pytest.mark.parametrize("entry, message", [
        (("ghost", "west"), "unknown traffic class 'ghost'"),
        (("default", "mars"), "unknown cluster 'mars'"),
    ])
    def test_run_timeline_rejects_unknown_demand(self, fidelity, entry,
                                                 message):
        """A later keyframe naming an unknown class or cluster fails up
        front, like ``run`` — not with a bare KeyError (event) or a silent
        zero-traffic run (fluid). Keyframes come from outside
        (``load_demand_csv``)."""
        app = linear_chain_app(n_services=2)
        deployment = DeploymentSpec.uniform(
            app.services(), ["west", "east"], replicas=5,
            latency=two_region_latency(25.0))
        sim = MeshSimulation(app, deployment, seed=9, fidelity=fidelity)
        timeline = DemandTimeline(
            keyframes=[(0.0, DemandMatrix({("default", "west"): 10.0})),
                       (1.0, DemandMatrix({entry: 10.0}))],
            end=2.0)
        with pytest.raises(ValueError, match=message):
            sim.run_timeline(timeline)
        assert sim.sim.now == 0.0
