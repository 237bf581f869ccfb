"""One pool contract: every (service, cluster) pool model honours it.

``ReplicaPool`` (one central FIFO), ``ReplicaSet`` (a FIFO per replica
behind an intra-cluster balancer) and ``FluidPool`` (occupancy set by the
fluid tick; sampled jobs only draw a wait) all derive from
:class:`repro.sim.service.Pool`. The runner, telemetry, autoscaler and
chaos layer rely on exactly what this suite states, whichever pool a run
builds.
"""

import itertools

import pytest

from repro.mesh.loadbalancer import (ConsistentHashBalancer,
                                     LeastOutstandingBalancer,
                                     RoundRobinBalancer)
from repro.sim.engine import Simulator
from repro.sim.fluid.pool import FluidPool
from repro.sim.replicas import ReplicaSet
from repro.sim.service import Pool, ReplicaPool


class KeyedRequests:
    """Consistent hashing needs a request key: every pick gets its own."""

    def __init__(self) -> None:
        self._balancer = ConsistentHashBalancer()
        self._keys = itertools.count()

    def pick(self, endpoints, key=None):
        return self._balancer.pick(endpoints,
                                   key=f"request-{next(self._keys)}")


def replica_set(balancer):
    return lambda sim, service, cluster, replicas: ReplicaSet(
        sim, service, cluster, replicas, balancer())


POOLS = {
    "central-queue": ReplicaPool,
    "replicas-round-robin": replica_set(RoundRobinBalancer),
    "replicas-least-outstanding": replica_set(LeastOutstandingBalancer),
    "replicas-consistent-hash": replica_set(KeyedRequests),
    "fluid": FluidPool,
}


@pytest.fixture(params=POOLS)
def make(request):
    """``make(replicas)`` → a fresh simulator and one pool on it."""
    factory = POOLS[request.param]

    def build(replicas=2):
        sim = Simulator()
        return sim, factory(sim, "svc", "west", replicas)
    return build


def submit_all(pool, works, events):
    """Submit one job per work time, logging ``(kind, job, time)``."""
    for job, work in enumerate(works):
        pool.submit(work,
                    lambda now, job=job: events.append(("complete", job, now)),
                    lambda now, job=job: events.append(("start", job, now)))


def test_every_model_is_a_pool(make):
    _, pool = make()
    assert isinstance(pool, Pool)
    assert (pool.service, pool.cluster, pool.replicas, pool.slowdown) == (
        "svc", "west", 2, 1.0)


@pytest.mark.parametrize("replicas", [0, -3])
def test_fewer_than_one_replica_is_rejected(make, replicas):
    with pytest.raises(ValueError, match="replicas must be >= 1"):
        make(replicas)


def test_invalid_work_slowdown_and_size_are_rejected(make):
    _, pool = make()
    with pytest.raises(ValueError, match="work_time"):
        pool.submit(-1.0, lambda now: None)
    for factor in (0.0, -2.0):
        with pytest.raises(ValueError, match="slowdown"):
            pool.degrade(factor)
    for size in (0, -1):
        with pytest.raises(ValueError, match="replicas"):
            pool.resize(size)
    # nothing was half-applied
    assert (pool.replicas, pool.slowdown) == (2, 1.0)
    assert pool.harvest().arrivals == 0


def test_each_job_starts_before_it_completes(make):
    sim, pool = make()
    events = []
    submit_all(pool, [1.0, 0.5, 2.0, 0.0, 1.5], events)
    sim.run()
    position = {(kind, job): index
                for index, (kind, job, _) in enumerate(events)}
    assert len(position) == len(events) == 10
    for job in range(5):
        assert position[("start", job)] < position[("complete", job)]


@pytest.mark.parametrize("factor", [0.5, 3.0])
def test_slowdown_stretches_compute_time(make, factor):
    sim, pool = make()
    pool.degrade(factor)
    assert pool.slowdown == factor
    events = []
    submit_all(pool, [2.0], events)
    sim.run()
    (_, _, started), (_, _, completed) = events
    assert completed - started == pytest.approx(2.0 * factor)
    pool.degrade(1.0)
    events.clear()
    submit_all(pool, [2.0], events)
    sim.run()
    (_, _, started), (_, _, completed) = events
    assert completed - started == 2.0


def test_harvest_returns_the_window_and_resets_it(make):
    sim, pool = make()
    submit_all(pool, [1.0] * 4, [])
    sim.run(until=1.5)
    first = pool.harvest()
    assert first.window_seconds == 1.5
    assert first.arrivals == 4
    assert 0.0 <= first.utilization <= 1.0
    sim.run()
    second = pool.harvest()
    assert second.window_seconds == sim.now - 1.5
    assert second.arrivals == 0
    assert first.completions + second.completions == 4
    assert 0.0 <= second.utilization <= 1.0
    empty = pool.harvest()
    assert (empty.window_seconds, empty.arrivals, empty.completions,
            empty.busy_seconds, empty.utilization) == (0.0, 0, 0, 0.0, 0.0)


def test_lifetime_busy_seconds_never_decreases(make):
    sim, pool = make(replicas=3)
    readings = []

    def probe():
        readings.append(pool.lifetime_busy_seconds)

    submit_all(pool, [0.25 * (job % 4 + 1) for job in range(12)], [])
    for tick in range(1, 40):
        sim.schedule_at(tick * 0.1, probe)
    sim.schedule_at(0.55, pool.resize, 1)
    sim.schedule_at(0.75, pool.harvest)
    sim.schedule_at(1.05, pool.resize, 2)
    sim.run()
    probe()
    assert readings == sorted(readings)


def test_every_job_submitted_before_a_shrink_completes_once(make):
    """Work finished on a replica the shrink retired is harvested like any
    other — once — and later windows do not count it again."""
    sim, pool = make(replicas=4)
    submit_all(pool, [1.0] * 8, [])
    pool.resize(1)
    windows = []
    sim.schedule_at(0.5, lambda: windows.append(pool.harvest()))
    sim.schedule_at(1.5, lambda: windows.append(pool.harvest()))
    sim.run()
    windows += [pool.harvest(), pool.harvest()]
    assert sum(window.arrivals for window in windows) == 8
    assert sum(window.completions for window in windows) == 8
    assert windows[-1].completions == 0


def test_nothing_is_in_flight_at_quiesce(make):
    sim, pool = make()
    submit_all(pool, [1.0, 2.0, 0.5, 0.5, 3.0], [])
    pool.resize(1)
    sim.run()
    assert (pool.in_flight, pool.busy_replicas, pool.queue_length) == (
        0, 0, 0)
