"""Tests for the per-replica service model."""

import statistics

import pytest

from repro.mesh.loadbalancer import (LeastOutstandingBalancer,
                                     RoundRobinBalancer)
from repro.sim import (DemandMatrix, DeploymentSpec, linear_chain_app,
                       two_region_latency)
from repro.sim.engine import Simulator
from repro.sim.replicas import Replica, ReplicaSet
from repro.sim.runner import MeshSimulation


def make_set(replicas=2, balancer=None):
    sim = Simulator()
    rs = ReplicaSet(sim, "svc", "west", replicas,
                    balancer or LeastOutstandingBalancer())
    return sim, rs


class TestReplica:
    def test_single_server_fifo(self):
        sim = Simulator()
        replica = Replica(sim, "r0")
        done = []
        replica.submit(1.0, lambda t: done.append(("a", t)))
        replica.submit(1.0, lambda t: done.append(("b", t)))
        sim.run()
        assert done == [("a", 1.0), ("b", 2.0)]

    def test_outstanding_counts_queue_and_running(self):
        sim = Simulator()
        replica = Replica(sim, "r0")
        replica.submit(1.0, lambda t: None)
        replica.submit(1.0, lambda t: None)
        assert replica.outstanding == 2
        sim.run()
        assert replica.outstanding == 0
        assert replica.idle

    def test_draining_rejects_new_work(self):
        sim = Simulator()
        replica = Replica(sim, "r0")
        replica.draining = True
        with pytest.raises(RuntimeError):
            replica.submit(1.0, lambda t: None)

    def test_lifetime_busy(self):
        sim = Simulator()
        replica = Replica(sim, "r0")
        replica.submit(2.0, lambda t: None)
        sim.run()
        assert replica.lifetime_busy_seconds == pytest.approx(2.0)


class TestReplicaSet:
    def test_least_outstanding_spreads_work(self):
        sim, rs = make_set(replicas=2)
        for _ in range(2):
            rs.submit(1.0, lambda t: None)
        # both replicas busy: true parallelism
        assert rs.busy_replicas == 2
        sim.run()
        assert rs.in_flight == 0

    def test_round_robin_can_queue_behind_busy_replica(self):
        sim, rs = make_set(replicas=2, balancer=RoundRobinBalancer())
        done = []
        rs.submit(2.0, lambda t: done.append(t))   # replica 0
        rs.submit(0.1, lambda t: done.append(t))   # replica 1
        rs.submit(0.1, lambda t: done.append(t))   # replica 0 again: queues!
        sim.run()
        # third job waited behind the 2s job even though replica 1 was idle
        assert sorted(done) == [pytest.approx(0.1), pytest.approx(2.0),
                                pytest.approx(2.1)]

    def test_harvest_aggregates(self):
        sim, rs = make_set(replicas=2)
        for _ in range(4):
            rs.submit(1.0, lambda t: None)
        sim.run()
        stats = rs.harvest()
        assert stats.arrivals == 4
        assert stats.completions == 4
        assert stats.utilization == pytest.approx(1.0)   # 4 jobs/2 reps/2 s

    def test_harvest_resets(self):
        sim, rs = make_set()
        rs.submit(1.0, lambda t: None)
        sim.run()
        rs.harvest()
        stats = rs.harvest()
        assert stats.completions == 0
        assert stats.busy_seconds == 0.0

    def test_resize_up(self):
        sim, rs = make_set(replicas=1)
        rs.resize(3)
        assert rs.replicas == 3
        for _ in range(3):
            rs.submit(1.0, lambda t: None)
        assert rs.busy_replicas == 3

    def test_resize_down_drains_busy_replica(self):
        sim, rs = make_set(replicas=2)
        done = []
        rs.submit(2.0, lambda t: done.append(t))
        rs.resize(1)
        assert rs.replicas == 1
        sim.run()
        assert done == [pytest.approx(2.0)]   # drained, not killed
        # lifetime accounting still includes the retired replica's work
        assert rs.lifetime_busy_seconds == pytest.approx(2.0)

    def test_harvest_counts_work_finished_on_draining_replicas(self):
        sim, rs = make_set(replicas=2)
        for _ in range(4):
            rs.submit(1.0, lambda t: None)
        rs.resize(1)
        sim.run()
        stats = rs.harvest()
        assert stats.arrivals == 4
        assert stats.completions == 4   # two of them on the retired replica
        assert stats.queue_wait_seconds == pytest.approx(2.0)
        # idle and harvested: the retired replica is let go, its busy time
        # is not
        assert rs._retired == []
        assert rs.lifetime_busy_seconds == pytest.approx(4.0)
        assert rs.harvest().completions == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            make_set(replicas=0)
        sim, rs = make_set()
        with pytest.raises(ValueError):
            rs.submit(-1.0, lambda t: None)
        with pytest.raises(ValueError):
            rs.resize(0)


class TestRunnerIntegration:
    def run_model(self, service_model, intra_lb="least-outstanding",
                  west_rps=400.0):
        app = linear_chain_app(n_services=3, exec_time=0.010)
        deployment = DeploymentSpec.uniform(
            app.services(), ["west", "east"], replicas=5,
            latency=two_region_latency(25.0))
        sim = MeshSimulation(app, deployment, seed=6,
                             service_model=service_model, intra_lb=intra_lb)
        sim.run(DemandMatrix({("default", "west"): west_rps}), duration=15.0)
        return sim.telemetry.latencies(after=3.0)

    def test_replica_model_runs_end_to_end(self):
        lats = self.run_model("replicas")
        assert len(lats) > 4000

    def test_central_queue_beats_round_robin_tail(self):
        """The classic ordering: central queue <= LOR <= RR at the tail."""
        pool = self.run_model("pool")
        rr = self.run_model("replicas", intra_lb="round-robin")

        def p99(vals):
            vals = sorted(vals)
            return vals[int(0.99 * len(vals))]

        assert p99(pool) < p99(rr)

    def test_least_outstanding_beats_round_robin_mean(self):
        lor = self.run_model("replicas", intra_lb="least-outstanding")
        rr = self.run_model("replicas", intra_lb="round-robin")
        assert statistics.mean(lor) < statistics.mean(rr)

    def test_invalid_model_rejected(self):
        app = linear_chain_app()
        deployment = DeploymentSpec.uniform(
            app.services(), ["west", "east"], replicas=2,
            latency=two_region_latency(25.0))
        with pytest.raises(ValueError):
            MeshSimulation(app, deployment, service_model="quantum")
        with pytest.raises(ValueError):
            MeshSimulation(app, deployment, service_model="replicas",
                           intra_lb="psychic")
