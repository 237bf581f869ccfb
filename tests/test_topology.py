"""Tests for deployment topologies and the GCP latency matrix."""

import pytest

from repro.sim.network import LatencyMatrix
from repro.sim.topology import (GCP_REGIONS, ClusterSpec, DeploymentSpec,
                                gcp_four_region_latency, two_region_latency)


def test_gcp_matrix_matches_paper_rtts():
    lat = gcp_four_region_latency()
    # §4.2: OR-UT 30ms, UT-IOW 20ms, IOW-SC 35ms, OR-SC 66ms, OR-IOW 37ms
    assert lat.rtt("OR", "UT") == pytest.approx(0.030)
    assert lat.rtt("UT", "IOW") == pytest.approx(0.020)
    assert lat.rtt("IOW", "SC") == pytest.approx(0.035)
    assert lat.rtt("OR", "SC") == pytest.approx(0.066)
    assert lat.rtt("OR", "IOW") == pytest.approx(0.037)


def test_gcp_ut_sc_estimate_configurable():
    assert gcp_four_region_latency().rtt("UT", "SC") == pytest.approx(0.055)
    assert gcp_four_region_latency(ut_sc_rtt_ms=60.0).rtt(
        "UT", "SC") == pytest.approx(0.060)


def test_gcp_ut_is_nearest_to_both_or_and_iow():
    # the premise of the §4.2 greedy pathology
    lat = gcp_four_region_latency()
    for src in ("OR", "IOW"):
        others = [c for c in GCP_REGIONS if c != src]
        nearest = min(others, key=lambda c: lat.one_way(src, c))
        assert nearest == "UT"


def test_two_region_latency():
    lat = two_region_latency(25.0)
    assert lat.one_way("west", "east") == pytest.approx(0.025)


def test_cluster_spec_has():
    spec = ClusterSpec("west", {"A": 2, "B": 0})
    assert spec.has("A")
    assert not spec.has("B")
    assert not spec.has("C")


def test_cluster_spec_negative_replicas_rejected():
    with pytest.raises(ValueError):
        ClusterSpec("west", {"A": -1})


def test_deployment_clusters_with_partial_replication():
    dep = DeploymentSpec(
        clusters=[ClusterSpec("west", {"FR": 1}),
                  ClusterSpec("east", {"FR": 1, "DB": 2})],
        latency=two_region_latency(10.0))
    assert dep.clusters_with("FR") == ["west", "east"]
    assert dep.clusters_with("DB") == ["east"]
    assert dep.clusters_with("nope") == []


def test_deployment_replicas_lookup():
    dep = DeploymentSpec(
        clusters=[ClusterSpec("west", {"A": 3})],
        latency=LatencyMatrix(["west"], {}))
    assert dep.replicas("A", "west") == 3
    assert dep.replicas("B", "west") == 0


def test_deployment_duplicate_cluster_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        DeploymentSpec(
            clusters=[ClusterSpec("west", {}), ClusterSpec("west", {})],
            latency=two_region_latency(10.0))


def test_deployment_cluster_missing_from_latency_rejected():
    with pytest.raises(ValueError, match="missing from the latency"):
        DeploymentSpec(
            clusters=[ClusterSpec("nowhere", {})],
            latency=two_region_latency(10.0))


def test_uniform_deployment():
    dep = DeploymentSpec.uniform(["A", "B"], ["west", "east"], replicas=4,
                                 latency=two_region_latency(10.0))
    assert dep.replicas("A", "west") == 4
    assert dep.replicas("B", "east") == 4
    assert dep.services() == ["A", "B"]


def test_unknown_cluster_lookup():
    dep = DeploymentSpec.uniform(["A"], ["west", "east"], 1,
                                 two_region_latency(10.0))
    with pytest.raises(KeyError):
        dep.cluster("north")


# ------------------------------------------------- placement change notices


def two_cluster_deployment():
    return DeploymentSpec(
        clusters=[ClusterSpec("west", {"FR": 1, "DB": 1}),
                  ClusterSpec("east", {"FR": 1, "DB": 2})],
        latency=two_region_latency(10.0))


@pytest.mark.parametrize("write", [
    lambda replicas: replicas.__setitem__("DB", 3),
    lambda replicas: replicas.__delitem__("DB"),
    lambda replicas: replicas.update({"DB": 0}),
    lambda replicas: replicas.update(DB=0),
    lambda replicas: replicas.__ior__({"DB": 0}),
    lambda replicas: replicas.pop("DB"),
    lambda replicas: replicas.popitem(),
    lambda replicas: replicas.setdefault("MP", 2),
    lambda replicas: replicas.clear(),
], ids=["setitem", "delitem", "update", "update-kw", "ior", "pop",
        "popitem", "setdefault", "clear"])
def test_every_way_of_writing_replicas_bumps_the_revision(write):
    dep = two_cluster_deployment()
    before = dep.revision
    write(dep.cluster("east").replicas)
    assert dep.revision > before


def test_revision_ignores_reads_and_unchanged_writes():
    dep = two_cluster_deployment()
    replicas = dep.cluster("west").replicas
    before = dep.revision
    replicas["DB"] = 1                    # the count already there
    assert replicas.setdefault("FR", 9) == 1
    assert replicas.get("nope", 0) == 0 and dict(replicas) == replicas
    assert dep.revision == before
    replicas["DB"] += 1
    assert dep.revision == before + 1


def test_cluster_spec_copies_the_mapping_it_is_given():
    given = {"FR": 1}
    spec = ClusterSpec("west", given)
    given["FR"] = 5                       # not a write to the placement
    assert spec.replicas == {"FR": 1}
    assert isinstance(spec.replicas, dict)


def test_cluster_spec_shared_by_two_deployments_notifies_both():
    spec = ClusterSpec("west", {"FR": 1})
    latency = two_region_latency(10.0)
    one = DeploymentSpec([spec, ClusterSpec("east", {"FR": 1})], latency)
    two = DeploymentSpec([spec], latency)
    spec.replicas["FR"] = 0
    assert (one.revision, two.revision) == (1, 1)
    assert one.clusters_with("FR") == ["east"]
    assert two.clusters_with("FR") == []


def test_deployment_copies_keep_counting_their_own_writes():
    import copy
    import pickle
    dep = two_cluster_deployment()
    for clone in (copy.deepcopy(dep), pickle.loads(pickle.dumps(dep))):
        assert clone.clusters == dep.clusters
        before, original = clone.revision, dep.revision
        clone.cluster("east").replicas["DB"] = 7
        assert clone.revision == before + 1
        assert dep.revision == original
        assert dep.cluster("east").replicas["DB"] == 2
