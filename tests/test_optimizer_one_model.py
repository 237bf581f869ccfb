"""One model, one structure snapshot, one extractor, one HiGHS seam.

Both formulations emit a :class:`LinearModel`; what surrounds the LP — the
warm rebuild, the extraction of flows, the call into HiGHS and its failure
— is written once, so every property here is stated once and run for every
emitter.
"""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.controller.global_controller import GlobalController
from repro.core.optimizer import (EpochSolver, LinearModel, SolverCache,
                                  SolverError, StructureCache, build_model,
                                  build_path_model, highs_solve, solve)
from repro.core.optimizer.cache import model_fingerprint
from repro.core.optimizer.model import ModelStructure
from repro.core.optimizer.result import FLOW_EPSILON, extract_result
from repro.experiments.scenarios import synthetic_te_problem
from tests.test_optimizer import chain_problem, chain_specs

#: every emitter: id → (builder, its keyword arguments)
EMITTERS = {
    "arc": (build_model, {}),
    "path-latency": (build_path_model, {}),
}

emitters = pytest.mark.parametrize("emitter", EMITTERS)


def sparse_problem():
    return synthetic_te_problem(6, 3, 3, seed=5, replication=0.7,
                                ingresses_per_class=3)


#: the service whose compute time ``pinned_problem`` zeroes
PINNED = "svc2"


def pinned_problem():
    """``sparse_problem()`` with no compute at ``PINNED``: its pools carry
    no work expression, so the arc LP pins their ``t`` and only their
    tables and segments depend on the count."""
    problem = sparse_problem()
    for workload in problem.workloads.values():
        workload.spec = dataclasses.replace(
            workload.spec, exec_time={**workload.spec.exec_time, PINNED: 0.0})
    return problem


def test_both_formulations_emit_the_one_model():
    problem = chain_problem()
    assert type(build_model(problem)) is LinearModel
    assert type(build_path_model(problem)) is LinearModel


# ------------------------------------------------- warm build == cold build

def pool_table(model) -> list:
    return [(pool, replicas, cap, delay.servers, delay.mode)
            for pool, replicas, cap, delay in model.tables.pools]


def assert_same_model(warm, cold) -> None:
    """``warm`` is ``cold`` entry for entry, byte for byte."""
    assert model_fingerprint(warm) == model_fingerprint(cold)
    for part in ("data", "indices", "indptr"):
        assert (getattr(warm.a_ub, part).tobytes()
                == getattr(cold.a_ub, part).tobytes())
    for name in ("upper_bounds", "b_ub", "b_eq"):
        assert getattr(warm, name).tobytes() == getattr(cold, name).tobytes()
    assert warm.pool_segments == cold.pool_segments
    assert pool_table(warm) == pool_table(cold)


#: replica counts a move may set: a jump to 40 and a drop to 1 included
COUNTS = (1, 2, 3, 5, 40)


@emitters
@settings(max_examples=15, deadline=None)
@given(moves=st.lists(st.tuples(st.integers(0, 999), st.sampled_from(COUNTS)),
                      max_size=6))
def test_warm_build_equals_cold_build(emitter, moves):
    build, kwargs = EMITTERS[emitter]
    problem = pinned_problem()
    cache = StructureCache()
    first = build(problem, structure_cache=cache, **kwargs)
    (structure,) = cache._entries.values()
    assert type(structure) is ModelStructure and structure.model is first
    first_print = model_fingerprint(first)

    # demand values move (unevenly, so class totals and shares both change)
    for scale, workload in enumerate(problem.workloads.values(), start=2):
        for cluster in workload.demand:
            workload.demand[cluster] *= 1.0 + 0.13 * scale
    warm = structure.instantiate(problem)
    cold = build(problem, **kwargs)

    assert model_fingerprint(warm) == model_fingerprint(cold)
    for name in ("upper_bounds", "b_ub", "b_eq"):
        assert getattr(warm, name).tobytes() == getattr(cold, name).tobytes()
    assert warm.problem is problem
    # everything demand does not touch is shared with the snapshot, which
    # is what the warm solve's "same structure" test reads
    assert warm.a_ub is first.a_ub and warm.a_eq is first.a_eq
    assert warm.tables is first.tables
    assert warm.route_vars is first.route_vars
    # and the cold-built model the snapshot holds was not written to
    assert model_fingerprint(first) != model_fingerprint(warm)

    # through the cache it is the same rescatter, counted as a hit
    again = build(problem, structure_cache=cache, **kwargs)
    assert cache.hits == 1
    assert model_fingerprint(again) == model_fingerprint(cold)

    # replica counts move: drawn moves, then a pinned pool, a 1 → 40
    # jump, and every count back where the snapshot was built
    built = dict(problem.replicas)
    pools = sorted(pool for pool, count in built.items() if count > 0)
    pinned = next(pool for pool in pools if pool[0] == PINNED)
    worked = next(pool for pool in pools if pool[0] != PINNED)
    steps = [(pools[index % len(pools)], count) for index, count in moves]
    steps += [(pinned, 9), (worked, 1), (worked, 40)]
    steps += [(pool, built[pool]) for pool, _ in steps]
    for pool, count in steps:
        problem.replicas[pool] = count
        warm = build(problem, structure_cache=cache, **kwargs)
        assert_same_model(warm, build(problem, **kwargs))
        # what no count touches is the snapshot's, by identity
        assert warm.a_eq is first.a_eq and warm.objective is first.objective
        assert warm.route_vars is first.route_vars
        # (scipy wraps them in views, so the buffers are what is shared)
        assert np.shares_memory(warm.a_ub.indices, first.a_ub.indices)
        assert np.shares_memory(warm.a_ub.indptr, first.a_ub.indptr)
        assert warm.tables.structure is first.tables.structure
    assert cache.misses == 1
    # all counts back: the snapshot's own matrices and tables again
    assert warm.a_ub is first.a_ub and warm.tables is first.tables
    assert model_fingerprint(first) == first_print


@emitters
def test_deployment_move_is_a_structure_miss(emitter):
    """A count change is warm; a pool going 0 ↔ >0 is a new structure."""
    build, kwargs = EMITTERS[emitter]
    problem = sparse_problem()
    cache = StructureCache()
    first = build(problem, structure_cache=cache, **kwargs)
    service = "svc1"
    deployed = problem.deployed_in(service)
    spare = next(c for c in problem.clusters if c not in deployed)
    structures = {first.tables.structure}
    for pool, count in (((service, spare), 4),       # 0 → deployed
                        ((service, deployed[0]), 0)):   # deployed → 0
        misses = cache.misses
        problem.replicas[pool] = count
        model = build(problem, structure_cache=cache, **kwargs)
        assert cache.misses == misses + 1
        assert model.tables.structure not in structures
        structures.add(model.tables.structure)
        assert model_fingerprint(model) == model_fingerprint(
            build(problem, **kwargs))


@emitters
def test_demand_pattern_move_is_a_structure_miss(emitter):
    build, kwargs = EMITTERS[emitter]
    problem = sparse_problem()
    cache = StructureCache()
    first = build(problem, structure_cache=cache, **kwargs)
    workload = problem.workloads["class0"]
    new_ingress = next(c for c in problem.clusters
                       if c not in workload.demand)
    workload.demand[new_ingress] = 5.0
    second = build(problem, structure_cache=cache, **kwargs)
    assert (cache.hits, cache.misses) == (0, 2)
    assert second.tables is not first.tables
    assert model_fingerprint(second) == model_fingerprint(
        build(problem, **kwargs))


# ------------------------------------------------------------ one extractor

@settings(max_examples=25, deadline=None)
@given(n_clusters=st.integers(2, 5), n_services=st.integers(1, 3),
       n_classes=st.integers(1, 3), seed=st.integers(0, 50),
       replication=st.sampled_from((0.5, 0.75, 1.0)),
       sparse_ingress=st.booleans())
def test_arc_flows_are_the_route_columns_read_straight_off(
        n_clusters, n_services, n_classes, seed, replication,
        sparse_ingress):
    """An arc column is the one-hop × 1.0 case of the merged extractor."""
    problem = synthetic_te_problem(
        n_clusters, n_services, n_classes, seed=seed,
        replication=replication,
        ingresses_per_class=1 if sparse_ingress else None)
    model = build_model(problem)
    x = highs_solve(model)
    expected = {
        (var.edge.traffic_class, var.edge.edge_index, var.src, var.dst):
        float(x[column])
        for var, column in zip(model.route_vars, model.route_columns)
        if x[column] > FLOW_EPSILON}
    assert extract_result(model, x, "optimal", 0.0).flows == expected


def test_path_flows_expand_every_hop_of_the_embedding():
    problem = chain_problem()
    model = build_path_model(problem, k=4)
    x = highs_solve(model)
    expected: dict = {}
    for j, path in enumerate(model.route_vars):
        if x[j] <= FLOW_EPSILON:
            continue
        assign = dict(path.assignment)
        hops = [("default", -1, path.ingress, assign["S1"]),
                ("default", 0, assign["S1"], assign["S2"]),
                ("default", 1, assign["S2"], assign["S3"])]
        assert [key for key, _ in model.hops(j)] == hops
        for key in hops:
            expected[key] = expected.get(key, 0.0) + float(x[j])
    assert extract_result(model, x, "optimal", 0.0).flows == expected


# ----------------------------------------------------------- one HiGHS seam

OVER_CAPACITY = dict(west_rps=50_000.0)   # beyond rho_max × every replica


def failure(call) -> str:
    with pytest.raises(SolverError, match=r"^optimization failed: ") as info:
        call()
    return str(info.value)


def test_every_full_solve_fails_the_same_way():
    one_shot = failure(lambda: solve(chain_problem(**OVER_CAPACITY)))
    assert one_shot.startswith("optimization failed: lp:2:")
    assert failure(lambda: EpochSolver().solve(
        chain_problem(**OVER_CAPACITY))) == one_shot
    assert failure(lambda: highs_solve(
        build_model(chain_problem(**OVER_CAPACITY)))) == one_shot
    assert failure(lambda: GlobalController.oracle(
        *chain_specs(**OVER_CAPACITY))) == one_shot
    path = failure(lambda: EpochSolver(formulation="path").solve(
        chain_problem(**OVER_CAPACITY)))
    assert path.startswith("optimization failed: lp:2:")


#: scipy.optimize's LP and MILP entry points (both run HiGHS)
HIGHS_ENTRY_POINTS = {"linprog", "milp"}


class _HighsCalls(ast.NodeVisitor):
    """Collects ``(enclosing function, entry point)`` for every call of a
    ``HIGHS_ENTRY_POINTS`` name in one module, however it was imported:
    ``scipy.optimize.linprog``, ``optimize.milp`` after ``from scipy import
    optimize``, or a bare name from ``from scipy.optimize import ...``."""

    def __init__(self) -> None:
        self.modules = {"scipy.optimize"}   # spellings of scipy.optimize
        self.names: dict[str, str] = {}     # local name → entry point
        self.function: str | None = None
        self.calls: list[tuple[str | None, str]] = []

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "scipy.optimize" and alias.asname:
                self.modules.add(alias.asname)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            local = alias.asname or alias.name
            if node.module == "scipy" and alias.name == "optimize":
                self.modules.add(local)
            elif node.module == "scipy.optimize":
                self.names[local] = alias.name

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        outer, self.function = self.function, node.name
        self.generic_visit(node)
        self.function = outer

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = self.names.get(func.id)
        elif (isinstance(func, ast.Attribute)
              and ast.unparse(func.value) in self.modules):
            name = func.attr
        if name in HIGHS_ENTRY_POINTS:
            self.calls.append((self.function, name))
        self.generic_visit(node)


def highs_calls(source: str) -> list[tuple[str | None, str]]:
    visitor = _HighsCalls()
    visitor.visit(ast.parse(source))
    return visitor.calls


@pytest.mark.parametrize("source", [
    "import scipy.optimize\ndef f():\n    scipy.optimize.milp()",
    "import scipy.optimize as so\ndef f():\n    so.milp()",
    "from scipy import optimize as opt\ndef f():\n    opt.milp()",
    "def f():\n    from scipy.optimize import milp as m\n    m()",
])
def test_the_highs_call_finder_sees_every_import_spelling(source):
    assert highs_calls(source) == [("f", "milp")]


def test_linprog_in_the_two_seams_is_the_only_call_into_highs():
    """``highs_solve`` (full models) and ``warm_solve`` (column
    restrictions) are the program's only HiGHS calls, and both solve an LP:
    a ``milp`` call or a third ``linprog`` caller fails here."""
    root = Path(repro.__file__).parent
    calls = [(path.relative_to(root).as_posix(), *call)
             for path in sorted(root.rglob("*.py"))
             for call in highs_calls(path.read_text(encoding="utf-8"))]
    assert calls == [("core/optimizer/solve.py", "highs_solve", "linprog"),
                     ("core/optimizer/warm.py", "warm_solve", "linprog")]


@pytest.mark.parametrize("formulation", ["arc", "path"])
def test_failed_solve_leaves_nothing_to_warm_start_from(formulation):
    solver = EpochSolver(formulation=formulation)
    problem = chain_problem()
    solver.solve(problem)
    structure, _ = solver._previous     # held by reference, not by id()
    problem.workloads["default"].demand["west"] = 50_000.0
    failure(lambda: solver.solve(problem))
    assert solver._previous is None
    assert solver.stats()["solves"] == 2
    # the structure is still cached: the next feasible epoch — at a new
    # replica count too — is a warm build and, with no previous solution,
    # a cold solve
    problem.workloads["default"].demand["west"] = 650.0
    problem.replicas[("S1", "west")] += 1
    result = solver.solve(problem)
    assert result.warm_build and not result.warm_start
    assert solver._previous[0] is structure


@pytest.mark.parametrize("formulation", ["arc", "path"])
def test_a_count_toggle_never_replays_the_other_counts_plan(formulation):
    """Counts A → B → A under unchanged demand. B is warm-built from A's
    snapshot, and its refreshed tables start a fresh fingerprint prefix:
    a stale one would let the solver cache serve B the plan solved for
    A's capacities."""
    build, kwargs = EMITTERS["arc" if formulation == "arc"
                             else "path-latency"]
    solver = EpochSolver(cache=SolverCache(), formulation=formulation)
    problem = sparse_problem()
    pool = min(pool for pool, count in problem.replicas.items() if count)
    count_a = problem.replicas[pool]
    results = []
    for count in (count_a, count_a + 3, count_a):
        problem.replicas[pool] = count
        result = solver.solve(problem)
        assert result.fingerprint == model_fingerprint(
            build(problem, **kwargs))
        results.append(result)
    first, toggled, back = results
    assert toggled.warm_build and not toggled.cache_hit
    assert toggled.fingerprint != first.fingerprint
    assert back.cache_hit and back.fingerprint == first.fingerprint
    assert back.objective == first.objective and back.flows == first.flows
