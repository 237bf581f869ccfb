"""Tests for weighted rendezvous affinity routing."""

import dataclasses
from collections import Counter

import pytest

from repro.mesh.affinity import weighted_rendezvous
from repro.mesh.routing_table import RouteKey
from repro.obs import ObservabilityConfig
from repro.sim import (DemandMatrix, DeploymentSpec, anomaly_detection_app,
                       two_region_latency)
from repro.sim.apps import AppSpec
from repro.sim.cache import CacheSpec
from repro.sim.runner import MeshSimulation


class TestWeightedRendezvous:
    def test_deterministic(self):
        weights = {"a": 0.5, "b": 0.5}
        for key in range(50):
            assert (weighted_rendezvous(key, weights)
                    == weighted_rendezvous(key, weights))

    def test_split_matches_weights(self):
        weights = {"a": 0.7, "b": 0.3}
        counts = Counter(weighted_rendezvous(key, weights)
                         for key in range(20000))
        assert counts["a"] / 20000 == pytest.approx(0.7, abs=0.02)

    def test_zero_weight_cluster_never_wins(self):
        weights = {"a": 1.0, "b": 0.0}
        assert all(weighted_rendezvous(key, weights) == "a"
                   for key in range(200))

    def test_minimal_disruption_on_weight_change(self):
        """Growing one cluster's weight only moves keys *to* it."""
        before = {key: weighted_rendezvous(key, {"a": 0.5, "b": 0.5})
                  for key in range(5000)}
        after = {key: weighted_rendezvous(key, {"a": 0.7, "b": 0.5})
                 for key in range(5000)}
        for key in range(5000):
            if before[key] != after[key]:
                assert after[key] == "a"   # only migrations toward "a"

    def test_validation(self):
        with pytest.raises(ValueError):
            weighted_rendezvous(1, {})
        with pytest.raises(ValueError):
            weighted_rendezvous(1, {"a": -1.0})
        with pytest.raises(ValueError):
            weighted_rendezvous(1, {"a": 0.0})


def sticky_cached_app(sticky=True):
    base = anomaly_detection_app()
    spec = dataclasses.replace(base.classes["default"], key_space=400,
                               sticky_affinity=sticky)
    return AppSpec(name=base.name, classes={"default": spec},
                   caches={("MP", "DB"): CacheSpec("MP", "DB", ttl=8.0)})


def run_split(sticky, seed=19):
    app = sticky_cached_app(sticky=sticky)
    deployment = DeploymentSpec.uniform(
        app.services(), ["west", "east"], replicas=8,
        latency=two_region_latency(25.0))
    sim = MeshSimulation(app, deployment, seed=seed,
                         observability=ObservabilityConfig(tracing=True))
    sim.table.set_weights(RouteKey("MP", "default", "west"),
                          {"west": 0.5, "east": 0.5})
    sim.run(DemandMatrix({("default", "west"): 200.0}), duration=20.0)
    return sim


class TestStickyRouting:
    def test_affinity_pins_keys_to_clusters(self):
        sim = run_split(sticky=True)
        key_clusters: dict[int, set] = {}
        requests = {r.request_id: r for r in sim.telemetry.requests}
        for span in sim.telemetry.spans:
            if span.service != "MP" or span.request_id not in requests:
                continue
            key = requests[span.request_id].data_key
            key_clusters.setdefault(key, set()).add(span.cluster)
        multi = [k for k, clusters in key_clusters.items()
                 if len(clusters) > 1]
        assert multi == []   # every key served by exactly one cluster

    def test_random_split_scatters_keys(self):
        sim = run_split(sticky=False)
        key_clusters: dict[int, set] = {}
        requests = {r.request_id: r for r in sim.telemetry.requests}
        for span in sim.telemetry.spans:
            if span.service != "MP" or span.request_id not in requests:
                continue
            key = requests[span.request_id].data_key
            key_clusters.setdefault(key, set()).add(span.cluster)
        multi = [k for k, clusters in key_clusters.items()
                 if len(clusters) > 1]
        assert len(multi) > len(key_clusters) / 2

    def test_affinity_preserves_cache_hit_rate_under_split(self):
        def aggregate_hit_rate(sim):
            hits = misses = 0
            for cluster in ("west", "east"):
                stats = sim.edge_cache("MP", "DB", cluster).stats
                hits += stats.hits
                misses += stats.misses
            return hits / (hits + misses)

        sticky_rate = aggregate_hit_rate(run_split(sticky=True))
        random_rate = aggregate_hit_rate(run_split(sticky=False))
        # same 50/50 split, same load: affinity keeps each key's working
        # set warm in exactly one cluster
        assert sticky_rate > random_rate + 0.05

    def test_affinity_split_still_balances_load(self):
        sim = run_split(sticky=True)
        reports = {r.cluster: r for r in sim.harvest_reports()}
        west = reports["west"].service_rps("MP", "default")
        east = reports["east"].service_rps("MP", "default")
        assert west / (west + east) == pytest.approx(0.5, abs=0.06)
