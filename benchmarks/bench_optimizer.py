"""Optimizer throughput: vectorized builds, warm solves, arc vs path.

The planet-scale optimizer's perf surface (docs/performance.md
"Planet-scale optimizer"). Three families of numbers land in
``BENCH_optimizer.json``:

* build rates on the *same* mid-size instance BENCH_engine.json tracks
  (``lp_builds_per_sec`` there is the cold arc build rate, which the
  structured rebuild must beat 10x);
* warm vs cold solve rates on a mid-size instance;
* arc vs path formulation wall time as the cluster count grows, ending
  at the 100-cluster x 1000-class planet case, which must build + solve
  inside one control epoch (10 s).
"""

import json
import time

from reporting import bench_json_path

from repro.analysis.report import format_table
from repro.core.optimizer import (EpochSolver, StructureCache, TEProblem,
                                  build_model, warm_solve)
from repro.core.optimizer.solve import highs_solve
from repro.experiments.scenarios import (planet_scale_problem,
                                         synthetic_te_problem)
from repro.sim import (DemandMatrix, DeploymentSpec, linear_chain_app,
                       two_region_latency)

#: one control-plane epoch — the planet-scale build+solve budget (§5)
EPOCH_BUDGET_SECONDS = 10.0


def engine_scenario_problem() -> TEProblem:
    """The exact instance behind BENCH_engine.json's lp_builds_per_sec."""
    app = linear_chain_app(n_services=5)
    deployment = DeploymentSpec.uniform(
        app.services(), ["west", "east"], replicas=5,
        latency=two_region_latency(25.0))
    demand = DemandMatrix({("default", "west"): 300.0,
                           ("default", "east"): 100.0})
    return TEProblem.from_specs(app, deployment, demand)


def baseline_builds_per_sec() -> float:
    """The committed cold build rate the structured rebuild must beat
    10x."""
    path = bench_json_path("engine")
    try:
        return float(json.loads(
            path.read_text(encoding="utf-8"))["lp_builds_per_sec"])
    except (OSError, ValueError, KeyError):
        return 1166.0   # committed BENCH_engine.json value at PR 7


def test_warm_build_rate(benchmark, bench_json):
    """Headline: structured rebuild (demand rescatter) rate.

    Epoch N+1's build when only demand values moved — the steady-state
    cost of the adaptive control loop.
    """
    problem = engine_scenario_problem()
    cache = StructureCache()
    build_model(problem, structure_cache=cache)   # populate
    model = benchmark(lambda: build_model(problem, structure_cache=cache))
    assert model.n_variables > 0
    assert cache.hits > 0
    if benchmark.stats is not None:
        rate = 1.0 / benchmark.stats.stats.mean
        assert rate > 10.0 * baseline_builds_per_sec()
        bench_json("optimizer", {"lp_builds_per_sec": rate})


def test_cold_build_rate(benchmark, bench_json):
    """Vectorized assembly from scratch (structure-cache miss)."""
    problem = engine_scenario_problem()
    model = benchmark(lambda: build_model(problem))
    assert model.n_variables > 0
    if benchmark.stats is not None:
        bench_json("optimizer", {
            "lp_cold_builds_per_sec": 1.0 / benchmark.stats.stats.mean,
        })


def test_warm_vs_cold_solve(benchmark, bench_json):
    """Restricted warm re-solve vs cold solve on a mid-size instance."""
    problem = synthetic_te_problem(8, 10, 4)
    cache = StructureCache()
    model = build_model(problem, structure_cache=cache)
    cold_x = highs_solve(model)
    # nudge demand the way one control epoch would, rescatter, re-solve
    for workload in problem.workloads.values():
        for cluster in workload.demand:
            workload.demand[cluster] *= 1.05
    moved = build_model(problem, structure_cache=cache)
    assert cache.hits > 0

    warm_x = benchmark(lambda: warm_solve(moved, cold_x))
    assert warm_x is not None
    if benchmark.stats is not None:
        warm_rate = 1.0 / benchmark.stats.stats.mean
        rounds = 20
        started = time.perf_counter()
        for _ in range(rounds):
            highs_solve(moved)
        cold_rate = rounds / (time.perf_counter() - started)
        bench_json("optimizer", {
            "warm_solves_per_sec": warm_rate,
            "cold_solves_per_sec": cold_rate,
        })


def test_arc_vs_path_scale(benchmark, bench_json, report_sink):
    """Both formulations across 4 / 20 / 100 clusters.

    Sparse demand (2 ingresses per class) with replication thinning as
    the fleet grows — the regime where path-variable count stops
    tracking cluster count. The arc column is omitted at 100 clusters:
    a quarter-million route variables is exactly the blow-up the path
    formulation exists to avoid.
    """
    sizes = [(4, 1.0, True), (20, 0.5, True), (100, 0.2, False)]

    def run():
        rows = []
        metrics = {}
        for n_clusters, replication, run_arc in sizes:
            problem = synthetic_te_problem(
                n_clusters, 5, 40, replication=replication,
                ingresses_per_class=2, seed=11)
            arc_cell = "-"
            if run_arc:
                solver = EpochSolver()
                started = time.perf_counter()
                result = solver.solve(problem)
                arc_total = time.perf_counter() - started
                assert result.ok
                metrics[f"arc_total_seconds_{n_clusters}c"] = arc_total
                arc_cell = f"{arc_total:.3f}"
            solver = EpochSolver(formulation="path", path_k=6,
                                 path_prune_limit=8)
            started = time.perf_counter()
            result = solver.solve(problem)
            path_total = time.perf_counter() - started
            assert result.ok
            metrics[f"path_total_seconds_{n_clusters}c"] = path_total
            rows.append([n_clusters, arc_cell, f"{path_total:.3f}"])
        return rows, metrics

    rows, metrics = benchmark.pedantic(run, rounds=1, iterations=1)
    text = format_table(
        ["clusters", "arc build+solve (s)", "path build+solve (s)"],
        rows, title="Arc vs path formulation "
                    "(5 services, 40 classes, 2 ingresses/class)")
    text += ("\narc at 100 clusters is omitted: the per-(class, edge, "
             "src, dst) variable\ngrid is the scaling wall the path "
             "formulation removes")
    report_sink("optimizer_scale", text)
    bench_json("optimizer", metrics)


def test_planet_scale(benchmark, bench_json):
    """The ISSUE 7 target: 100 clusters x 1000 classes in one epoch.

    Cold epoch (candidate enumeration + assembly + solve) must fit the
    10 s control epoch; the steady-state epoch (structure-cache
    rescatter + warm restricted solve) should be far cheaper.
    """
    problem = planet_scale_problem()
    solver = EpochSolver(formulation="path", path_k=6, path_prune_limit=8)

    def cold_epoch():
        started = time.perf_counter()
        result = solver.solve(problem)
        return result, time.perf_counter() - started

    result, cold_total = benchmark.pedantic(cold_epoch, rounds=1,
                                            iterations=1)
    assert result.ok
    assert cold_total < EPOCH_BUDGET_SECONDS

    # one control epoch later: demand moved, structure did not
    for workload in problem.workloads.values():
        for cluster in workload.demand:
            workload.demand[cluster] *= 1.1
    started = time.perf_counter()
    warm_result = solver.solve(problem)
    warm_total = time.perf_counter() - started
    assert warm_result.ok
    assert warm_result.warm_build
    assert warm_total < cold_total

    bench_json("optimizer", {
        "planet_build_seconds": result.build_time,
        "planet_solve_seconds": result.solve_time,
        "planet_total_seconds": cold_total,
        "planet_warm_total_seconds": warm_total,
    })
