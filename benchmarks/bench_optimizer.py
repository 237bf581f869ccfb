"""Optimizer throughput: vectorized builds, warm solves, arc vs path.

The planet-scale optimizer's perf surface (docs/performance.md
"Planet-scale optimizer"). Three families of numbers land in
``BENCH_optimizer.json``:

* build rates on the *same* mid-size instance BENCH_engine.json tracks
  (``lp_builds_per_sec`` there is the cold arc build rate, which the
  structured rebuild must beat 10x);
* hot-started vs cold solve rates on a mid-size instance;
* arc vs path formulation wall time as the cluster count grows, ending
  at the 100-cluster x 1000-class planet case, which must build + solve
  inside one control epoch (10 s).
"""

import dataclasses
import itertools
import json
import statistics
import time

from reporting import bench_json_path

from repro.analysis.report import format_table
from repro.core.optimizer import (ClassGroups, EpochSolver, HighsLP,
                                  TEProblem, build_model, highs_solve,
                                  warm_solve)
from repro.experiments.scenarios import (planet_scale_problem,
                                         synthetic_te_problem)
from repro.sim import (DemandMatrix, DeploymentSpec, linear_chain_app,
                       two_region_latency)
from repro.sim.rng import RngRegistry

#: one control-plane epoch — the planet-scale build+solve budget (§5)
EPOCH_BUDGET_SECONDS = 10.0
#: the planet's cold epoch, planned once for its interchangeable classes
PLANET_COLD_BUDGET_SECONDS = 0.5
#: cold epochs, each on a fresh solver, behind a planet row's median
PLANET_COLD_EPOCHS = 3
#: per-class compute-time and byte-size scales of the heterogeneous planet
HETEROGENEOUS_SCALE = (0.8, 1.2)


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
    cost of the adaptive control loop: the previous epoch's snapshot
    instantiated, as :class:`EpochSolver` does.
    """
    problem = engine_scenario_problem()
    snapshot = build_model(problem).snapshot
    model = benchmark(lambda: snapshot.instantiate(problem))
    assert model.n_variables > 0
    assert model.snapshot is snapshot
    if benchmark.stats is not None:
        rate = 1.0 / benchmark.stats.stats.mean
        assert rate > 10.0 * baseline_builds_per_sec()
        bench_json("optimizer", {"lp_builds_per_sec": rate})


def test_cold_build_rate(benchmark, bench_json):
    """Vectorized assembly from scratch (a new structure)."""
    problem = engine_scenario_problem()
    model = benchmark(lambda: build_model(problem))
    assert model.n_variables > 0
    if benchmark.stats is not None:
        bench_json("optimizer", {
            "lp_cold_builds_per_sec": 1.0 / benchmark.stats.stats.mean,
        })


def test_warm_vs_cold_solve(benchmark, bench_json):
    """Hot-started re-solve vs cold solve on a mid-size instance."""
    problem = synthetic_te_problem(8, 10, 4)
    model = build_model(problem)
    lp = HighsLP(model)
    lp.run()
    # nudge demand the way one control epoch would, rescatter, re-solve
    for workload in problem.workloads.values():
        for cluster in workload.demand:
            workload.demand[cluster] *= 1.05
    moved = model.snapshot.instantiate(problem)
    assert moved.tables.structure is model.tables.structure

    # each call hot-starts one epoch from the other one's optimum
    epochs = itertools.cycle((moved, model))
    solution = benchmark(lambda: warm_solve(lp, next(epochs)))
    assert solution is not None
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


def planet_cold_epochs(problem: TEProblem):
    """``PLANET_COLD_EPOCHS`` cold epochs of ``problem``, each on a fresh
    solver: the last solver, its result and the median wall time."""
    walls = []
    for _ in range(PLANET_COLD_EPOCHS):
        solver = EpochSolver(formulation="path", path_k=6,
                             path_prune_limit=8)
        started = time.perf_counter()
        result = solver.solve(problem)
        walls.append(time.perf_counter() - started)
        assert result.ok
    return solver, result, statistics.median(walls)


def heterogeneous_planet_problem() -> TEProblem:
    """The planet instance with no two classes alike: each class's compute
    times and byte sizes are scaled by its own factors, drawn from a seeded
    stream, so every class is a group of one and the LP is the un-grouped
    one (the ledger instances are left as they are)."""
    problem = planet_scale_problem()
    low, high = HETEROGENEOUS_SCALE
    rng = RngRegistry(seed=0).stream("bench/heterogeneous-planet")
    for name in sorted(problem.workloads):
        workload = problem.workloads[name]
        spec = workload.spec
        exec_scale, byte_scale = (float(v) for v in rng.uniform(low, high, 2))

        def scaled(nbytes: int) -> int:
            return round(nbytes * byte_scale)

        workload.spec = dataclasses.replace(
            spec,
            exec_time={service: seconds * exec_scale
                       for service, seconds in spec.exec_time.items()},
            edges=[dataclasses.replace(
                edge, request_bytes=scaled(edge.request_bytes),
                response_bytes=scaled(edge.response_bytes))
                for edge in spec.edges],
            ingress_request_bytes=scaled(spec.ingress_request_bytes),
            ingress_response_bytes=scaled(spec.ingress_response_bytes))
    return problem


def test_planet_scale(benchmark, bench_json):
    """The planet target: 100 clusters x 1000 classes in one epoch.

    Its classes are interchangeable, so the cold epoch (candidate
    enumeration + assembly + solve + the split back per class) plans one
    class group and must fit ``PLANET_COLD_BUDGET_SECONDS``, as the median
    of ``PLANET_COLD_EPOCHS``; the steady-state epoch (the previous
    epoch's snapshot rescattered + hot start) should be cheaper still.
    """
    problem = planet_scale_problem()
    solver, result, cold_total = benchmark.pedantic(
        lambda: planet_cold_epochs(problem), rounds=1, iterations=1)
    assert cold_total < PLANET_COLD_BUDGET_SECONDS
    assert len(ClassGroups(problem).members) < len(problem.workloads)

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
        "planet_lp_cols": result.n_variables,
    })


def test_planet_scale_heterogeneous(benchmark, bench_json):
    """The planet with no interchangeable classes: every group has one
    member, so grouping saves nothing and must cost nothing — the cold
    epoch is the un-grouped LP's, within the 10 s control epoch."""
    problem = heterogeneous_planet_problem()
    _, result, cold_total = benchmark.pedantic(
        lambda: planet_cold_epochs(problem), rounds=1, iterations=1)
    assert len(ClassGroups(problem).members) == len(problem.workloads)
    assert cold_total < EPOCH_BUDGET_SECONDS
    bench_json("optimizer", {
        "planet_heterogeneous_total_seconds": cold_total,
        "planet_heterogeneous_lp_cols": result.n_variables,
    })
