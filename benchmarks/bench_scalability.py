"""§5 "Scalability & fast reaction": optimizer solve time vs problem size.

"The optimization problem run by SLATE's controller expands with the number
of clusters, services, and traffic classes ... an optimization time on the
order of seconds for large-scale deployments is desirable."

Measures LP build+solve wall time as each dimension grows, on the seeded
synthetic topologies from :mod:`repro.experiments.scenarios` (so the same
instances are reachable from tests, benches, and the optimizer bench).
Assertions keep the reproduction honest (seconds, not minutes, at the
largest size) without being brittle about hardware.

The sweep now extends well past the paper's 4-region testbed: 32 clusters
of arc formulation here, and BENCH_optimizer.json carries the 100-cluster
path-formulation planet case.
"""

import math
import time

from repro.analysis.fluid import evaluate_rules
from repro.analysis.report import format_table
from repro.core.optimizer import build_path_model, solve, solve_model
from repro.experiments.parallel import SweepExecutor
from repro.experiments.scenarios import synthetic_te_problem
from repro.sim.apps import AppSpec
from repro.sim.topology import ClusterSpec, DeploymentSpec
from repro.sim.workload import DemandMatrix


def synthetic_problem(n_clusters, n_services, n_classes,
                      rps_per_class=50.0):
    """The scaling-sweep instance family (seeded, fully replicated)."""
    return synthetic_te_problem(n_clusters, n_services, n_classes,
                                rps_per_class=rps_per_class,
                                replicas=max(4, n_classes * 2))


SIZES = [
    (2, 3, 1),
    (4, 6, 2),
    (8, 10, 4),
    (12, 15, 8),
    (16, 15, 8),
    (24, 15, 8),
    (32, 12, 8),
]


def solve_size(size):
    """Build + solve one synthetic instance (top-level so it pickles)."""
    n_clusters, n_services, n_classes = size
    problem = synthetic_problem(n_clusters, n_services, n_classes)
    started = time.perf_counter()
    result = solve(problem)
    elapsed = time.perf_counter() - started
    return [n_clusters, n_services, n_classes,
            n_clusters * n_services * n_classes,
            elapsed, result.solve_time]


def sweep(executor=None):
    executor = executor or SweepExecutor()
    return executor.map(solve_size, SIZES)


def test_optimizer_scalability(benchmark, report_sink):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    text = format_table(
        ["clusters", "services", "classes", "product",
         "build+solve (s)", "solve (s)"],
        rows, title="Optimizer scaling (LP, HiGHS)")
    report_sink("scalability", text)

    # §5's bar: "optimization time on the order of seconds" at scale
    largest = rows[-1]
    assert largest[4] < 10.0
    # every instance solved
    assert all(row[5] > 0 for row in rows)


def test_single_solve_latency(benchmark):
    """Microbenchmark: one mid-size solve (what an epoch costs)."""
    problem = synthetic_problem(4, 6, 2)
    result = benchmark(lambda: solve(problem))
    assert result.ok


def skewed_problem():
    """16 clusters, 10 services, 4 classes with alternating hot (370 rps)
    and cold (30 rps) ingresses, so offloading is actually required.

    Returns the problem and the (app, deployment, demand) it stands for,
    which the fluid evaluator scores plans against.
    """
    problem = synthetic_problem(16, 10, 4)
    for index, cluster in enumerate(problem.clusters):
        for workload in problem.workloads.values():
            workload.demand[cluster] = 370.0 if index % 2 == 0 else 30.0
    app = AppSpec(name="synthetic", classes={
        name: workload.spec for name, workload in problem.workloads.items()})
    deployment = DeploymentSpec(
        [ClusterSpec(cluster, {service: count for (service, where), count
                               in problem.replicas.items()
                               if where == cluster})
         for cluster in problem.clusters],
        problem.latency, problem.pricing)
    demand = DemandMatrix({(name, cluster): rps
                           for name, workload in problem.workloads.items()
                           for cluster, rps in workload.demand.items()})
    return problem, (app, deployment, demand)


#: path-emitter settings on the frontier: candidates per (class, ingress)
#: × clusters considered per hop (None = every deployed cluster)
PATH_KS = (2, 4, 8)
PRUNE_LIMITS = (None, 4, 2)

#: timing repeats per variant (the best one is reported)
REPEATS = 5


def best_of(solve_once):
    """``(result, fastest wall time)`` over ``REPEATS`` identical solves."""
    best = math.inf
    for _ in range(REPEATS):
        started = time.perf_counter()
        result = solve_once()
        best = min(best, time.perf_counter() - started)
    return result, best


def test_path_frontier(benchmark, report_sink):
    """§5 acceleration: the path emitter's (k, prune) frontier vs the full
    arc LP on a large skewed fleet.

    Every variant plans the real 16-cluster topology; its quality is the
    mean latency the fluid evaluator predicts for its rules, so a
    variant that leaves too few candidates shows as a latency gap (or
    ``inf`` when the rules overload a pool), never as a hidden one.
    """
    problem, specs = skewed_problem()

    def run_all():
        variants = [("arc LP (full)", lambda: solve(problem))]
        variants += [
            (f"path k={k} prune={prune}",
             lambda k=k, prune=prune: solve_model(
                 build_path_model(problem, k=k, prune_limit=prune)))
            for k in PATH_KS for prune in PRUNE_LIMITS]
        rows = []
        for name, solve_once in variants:
            result, elapsed = best_of(solve_once)
            latency = evaluate_rules(*specs, result.rules()).mean_latency
            rows.append([name, elapsed, latency * 1000, result.objective])
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    text = format_table(
        ["variant", "build+solve (s)", "true mean latency (ms)",
         "LP objective"],
        rows, title="Path frontier: speed vs quality "
                    "(16 clusters x 10 services x 4 classes, skewed load; "
                    f"best of {REPEATS})")
    report_sink("scalability_paths", text)

    _, arc_time, arc_latency, arc_objective = rows[0]
    by_name = {row[0]: row for row in rows[1:]}
    # some pruned/short-listed plan is faster than the full LP at
    # (nearly) its quality
    assert any(elapsed < arc_time and latency <= arc_latency * 1.05
               for _, elapsed, latency, _ in by_name.values())
    # enough candidates recover the arc optimum
    k8 = by_name["path k=8 prune=None"][3]
    assert abs(k8 - arc_objective) <= 1e-6 * abs(arc_objective)
