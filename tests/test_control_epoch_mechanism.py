"""The steady control epoch's cost model as deterministic checks (ISSUE 14).

Wall time says the epoch got faster; these say *why*, byte-stable on any
host:

* ``observe`` / ``build_problem`` touch only the (class, cluster) pairs
  that carry state or were counted, and produce — float for float — the
  estimates of the dense classes × clusters loop frozen below;
* a cold path build ranks each service's deployment sites around each
  anchor cluster at most once;
* a warm-build epoch (observe → plan → rules → distribute) derives nothing
  from the call trees or the delay models again: it reads the structure's
  tables;
* an epoch builds rule objects only for what it has not met before and
  normalises into the routing table only the rules whose weights moved;
* the path LP carries one load column per pool, so its non-zeros are
  bounded by the paths' own hops plus two per delay segment — a dense
  epigraph (every path in every segment row of its pools) cannot come back
  unnoticed;
* ``model_fingerprint`` resumed from the structure's hash prefix is the
  digest of hashing all seven components afresh.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.controller.cluster_controller import ClusterController
from repro.core.controller.global_controller import (GlobalController,
                                                     GlobalControllerConfig)
from repro.core.optimizer import (StructureCache, build_model,
                                  build_path_model, model_fingerprint)
from repro.core.optimizer import model as arc_model
from repro.core.optimizer import paths, tables, vectorized
from repro.core.optimizer.paths import extract_path_result
from repro.core.optimizer.solve import highs_solve
from repro.experiments.scenarios import synthetic_te_problem
from repro.forecasting import HoltForecaster
from repro.core.rules import RoutingRule
from repro.mesh import routing_table
from repro.mesh.routing_table import RoutingTable
from repro.mesh.telemetry import ClusterEpochReport
from repro.sim import DeploymentSpec, linear_chain_app, two_region_latency
from repro.sim.apps import AppSpec, TrafficClassSpec
from repro.sim.network import LatencyMatrix

from .test_path_plan_golden import epoch_reports, mesh_of

# ------------------------------------------ sparse observe == dense observe

CLASSES = ("alpha", "beta", "gamma")
CLUSTERS = ("a", "b", "c")


class DenseEstimator:
    """The classes × reports loop ``GlobalController.observe`` ran before it
    went sparse, with ``demand_estimate`` and ``build_problem``'s demand
    filter — frozen here as the reference."""

    def __init__(self, config: GlobalControllerConfig) -> None:
        self.config = config
        self.forecaster = HoltForecaster()
        self.estimates: dict[tuple[str, str], float] = {}

    def observe(self, reports) -> None:
        alpha = self.config.demand_alpha
        for report in reports:
            for cls in CLASSES:
                observed = report.ingress_rps(cls)
                key = (cls, report.cluster)
                self.forecaster.observe(key, observed)
                current = self.estimates.get(key)
                if current is None:
                    self.estimates[key] = observed
                else:
                    self.estimates[key] = (
                        (1 - alpha) * current + alpha * observed)

    def demand_estimate(self, cls: str, cluster: str) -> float:
        key = (cls, cluster)
        if self.config.forecast_demand and self.forecaster.known(key):
            estimate = self.forecaster.forecast(key, steps_ahead=1)
        else:
            estimate = self.estimates.get(key, 0.0)
        quantum = self.config.demand_quantum
        if quantum > 0:
            estimate = round(estimate / quantum) * quantum
        return estimate

    def demand(self, cls: str) -> list[tuple[str, float]]:
        return [(cluster, self.demand_estimate(cls, cluster))
                for cluster in CLUSTERS
                if self.demand_estimate(cls, cluster) > 0]


def three_class_world():
    chain = linear_chain_app(n_services=2, exec_time=0.002).classes["default"]
    app = AppSpec(name="three", classes={
        name: dataclasses.replace(chain, name=name) for name in CLASSES})
    latency = LatencyMatrix.from_ms(
        CLUSTERS, {("a", "b"): 5.0, ("a", "c"): 9.0, ("b", "c"): 7.0})
    deployment = DeploymentSpec.uniform(app.services(), list(CLUSTERS),
                                        replicas=4, latency=latency)
    return app, deployment


#: one class's count in one report: not mentioned, an explicit zero, or
#: some requests; "stray" is a class the app does not have
count = st.one_of(st.none(), st.just(0), st.integers(1, 4000))
report = st.fixed_dictionaries({
    name: count for name in (*CLASSES, "stray")})
#: per cluster: no report this epoch, or a report (rarely of zero length)
cluster_epoch = st.one_of(
    st.none(),
    st.tuples(report, st.sampled_from((10.0, 10.0, 10.0, 2.5, 0.0))))
epoch = st.lists(st.tuples(st.sampled_from(CLUSTERS), cluster_epoch),
                 min_size=0, max_size=4)


@settings(max_examples=200, deadline=None)
@given(epochs=st.lists(epoch, min_size=1, max_size=9),
       alpha=st.sampled_from((1.0, 0.5, 0.3)),
       quantum=st.sampled_from((0.0, 0.5, 7.0)),
       forecast=st.booleans())
def test_sparse_observe_and_build_equal_the_dense_loop(epochs, alpha,
                                                       quantum, forecast):
    app, deployment = three_class_world()
    config = GlobalControllerConfig(
        learn_profiles=False, demand_alpha=alpha, demand_quantum=quantum,
        forecast_demand=forecast)
    controller = GlobalController(app, deployment, config)
    dense = DenseEstimator(config)
    for index, entries in enumerate(epochs):
        # a cluster may report twice in one batch, or not at all
        reports = [
            ClusterEpochReport(
                cluster=cluster, start_time=10.0 * index,
                duration=entry[1],
                ingress_counts={cls: n for cls, n in entry[0].items()
                                if n is not None})
            for cluster, entry in entries if entry is not None]
        controller.observe(reports)
        dense.observe(reports)
        for cls in CLASSES:
            for cluster in CLUSTERS:
                assert (controller.demand_estimate(cls, cluster)
                        == dense.demand_estimate(cls, cluster))
        problem = controller.build_problem()
        assert list(problem.workloads) == list(CLASSES)
        for cls in CLASSES:
            # same clusters, same order (float sums follow it), same floats
            assert (list(problem.workloads[cls].demand.items())
                    == dense.demand(cls))


def test_observe_rejects_a_negative_count_like_the_dense_loop():
    app, deployment = three_class_world()
    controller = GlobalController(
        app, deployment, GlobalControllerConfig(learn_profiles=False))
    with pytest.raises(ValueError, match="negative observation"):
        controller.observe([ClusterEpochReport(
            cluster="a", start_time=0.0, duration=10.0,
            ingress_counts={"alpha": -3})])


# --------------------------------------------------------- work counters

def smoke_mesh():
    """``ctl_steady_path`` at the ledger's smoke size."""
    clusters, services, classes, ingresses = 10, 3, 24, 2
    problem = synthetic_te_problem(
        clusters, services, classes,
        rps_per_class=2_400.0 / (classes * ingresses), headroom=2.0,
        ingresses_per_class=ingresses)
    app, deployment, base = mesh_of(problem)
    config = GlobalControllerConfig(
        formulation="path", path_k=4, path_prune_limit=6,
        learn_profiles=False, demand_alpha=1.0)
    return app, deployment, base, config


def run_epoch(controller, distributors, table, reports) -> None:
    controller.observe(reports)
    rules = controller.plan().rules()
    for distributor in distributors:
        distributor.distribute(rules, table)


def counting(monkeypatch, owner, name: str) -> list:
    """Replace ``owner.name`` with a wrapper that logs each call."""
    original = getattr(owner, name)
    calls: list = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_cold_build_ranks_each_neighbourhood_once(monkeypatch):
    app, deployment, base, config = smoke_mesh()
    names = deployment.cluster_names
    sorts = counting(monkeypatch, paths, "candidate_clusters")
    enumerations = counting(monkeypatch, paths, "candidate_paths")
    controller = GlobalController(app, deployment, config)
    controller.observe(epoch_reports(names, base)[0])
    assert controller.plan().ok
    assert len(enumerations) == len(base)       # once per (class, ingress)
    assert 0 < len(sorts) <= len(app.services()) * len(names)


def test_warm_epoch_reads_the_structures_tables(monkeypatch):
    app, deployment, base, config = smoke_mesh()
    names = deployment.cluster_names
    reports = epoch_reports(names, base, repeat_at=None)
    controller = GlobalController(app, deployment, config)
    table = RoutingTable()
    distributors = [ClusterController(name) for name in names]
    run_epoch(controller, distributors, table, reports[0])

    derived = [counting(monkeypatch, module, "class_edges")
               for module in (arc_model, paths, vectorized)]
    derived.append(counting(monkeypatch, TrafficClassSpec,
                            "executions_per_request"))
    derived.append(counting(monkeypatch, tables, "PoolDelayModel"))
    rates = counting(monkeypatch, ClusterEpochReport, "ingress_rps")
    solver = controller.epoch_solver
    for batch in reports[1:4]:
        run_epoch(controller, distributors, table, batch)
    assert solver.builds == 4 and solver.warm_builds == 3
    assert [len(calls) for calls in derived] == [0] * len(derived)
    # observe asked each report only about the classes it counted
    assert len(rates) == 3 * len(base)


def test_an_epoch_ships_only_the_rules_that_moved(monkeypatch):
    """After the first epoch a rule object is built only for a (rule,
    destination) pair not met before or a rule split across destinations,
    only the rules whose weights moved are normalised into the table, and
    a replay epoch builds nothing and leaves ``table.version`` alone."""
    app, deployment, base, config = smoke_mesh()
    names = deployment.cluster_names
    controller = GlobalController(app, deployment, config)
    table = RoutingTable()
    distributors = [ClusterController(name) for name in names]
    seen: set = set()          # (rule key, destination) of one-way rules
    installed: dict = {}       # rule key → the weights last pushed
    paths_taken = []
    for epoch, batch in enumerate(epoch_reports(names, base)):
        if epoch == 1:
            built = counting(monkeypatch, RoutingRule, "__init__")
            normalised = counting(monkeypatch, routing_table, "_normalise")
        if epoch:
            built_before, normalised_before = len(built), len(normalised)
            version = table.version
        controller.observe(batch)
        result = controller.plan()
        rules = result.rules()
        for distributor in distributors:
            distributor.distribute(rules, table)
        one_way = {(rule.key, rule.weights[0][0]) for rule in rules
                   if len(rule.weights) == 1}
        split = [rule for rule in rules if len(rule.weights) > 1]
        moved = [rule for rule in rules
                 if installed.get(rule.key) != rule.weights]
        if epoch:
            paths_taken.append(result.solver_path)
            assert (len(built) - built_before
                    <= len(one_way - seen) + len(split))
            assert len(normalised) - normalised_before == len(moved)
            if result.solver_path == "replay":
                assert len(built) == built_before
                assert table.version == version
        seen |= one_way
        installed.update((rule.key, rule.weights) for rule in rules)
    assert "replay" in paths_taken and "warm" in paths_taken


def test_path_lp_has_one_load_column_per_pool():
    app, deployment, base, config = smoke_mesh()
    controller = GlobalController(app, deployment, config)
    controller.observe(epoch_reports(deployment.cluster_names, base)[0])
    problem = controller.build_problem()
    model = build_path_model(problem, k=config.path_k,
                             prune_limit=config.path_prune_limit)
    n_paths = len(model.route_vars)
    pools = len(problem.pools())
    hops = len(app.services())
    segments = len(next(iter(model.pool_segments.values())))
    assert model.n_variables == n_paths + 2 * pools       # paths | t | L
    nnz = model.a_ub.nnz + model.a_eq.nnz
    assert nnz <= (hops + 1) * n_paths + 2 * segments * pools + pools
    # every delay-segment row is slope·L − t: two entries, whatever the
    # number of paths through the pool
    assert set(np.diff(model.a_ub.indptr)) == {2}
    # and L is the pool's offered work, capped by its column bound
    solution = highs_solve(model)
    result = extract_path_result(model, solution, "optimal", 0.0)
    for pool, column in model.load_columns.items():
        assert model.upper_bounds[column] == (
            problem.rho_max * problem.replica_count(*pool))
        assert solution[column] == pytest.approx(result.pool_load[pool],
                                                 rel=1e-9, abs=1e-9)


# ------------------------------------------------------------ fingerprint

def uncached_fingerprint(model) -> str:
    """``model_fingerprint`` as it was before the per-structure prefix."""
    def hash_array(hasher, array):
        data = np.ascontiguousarray(array)
        hasher.update(str(data.shape).encode())
        hasher.update(data.dtype.str.encode())
        hasher.update(data.tobytes())

    def hash_sparse(hasher, matrix):
        canonical = matrix.tocsr().copy()
        canonical.sum_duplicates()
        canonical.sort_indices()
        hasher.update(str(canonical.shape).encode())
        hash_array(hasher, canonical.indptr)
        hash_array(hasher, canonical.indices)
        hash_array(hasher, canonical.data)

    hasher = hashlib.sha256()
    hash_array(hasher, model.objective)
    hash_sparse(hasher, model.a_ub)
    hash_array(hasher, model.b_ub)
    hash_sparse(hasher, model.a_eq)
    hash_array(hasher, model.b_eq)
    hash_array(hasher, model.upper_bounds)
    return hasher.hexdigest()


@pytest.mark.parametrize("build", [
    lambda problem, cache: build_model(problem, structure_cache=cache),
    lambda problem, cache: build_path_model(problem, structure_cache=cache),
], ids=["arc", "path-latency"])
def test_fingerprint_from_the_structure_prefix_is_the_uncached_hash(build):
    problem = synthetic_te_problem(6, 3, 4, seed=5)
    cache = StructureCache()
    seen = set()
    for scale in (1.0, 1.25, 0.9):
        for workload in problem.workloads.values():
            for cluster in workload.demand:
                workload.demand[cluster] *= scale
        model = build(problem, cache)
        # twice: the first call of a structure lays the prefix down, every
        # later one resumes from it
        for _ in range(2):
            assert model_fingerprint(model) == uncached_fingerprint(model)
        seen.add(model_fingerprint(model))
    assert cache.hits == 2 and len(seen) == 3
