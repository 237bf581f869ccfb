"""One model, one structure snapshot, one extractor, one HiGHS seam.

Both formulations emit a :class:`LinearModel`; what surrounds the LP — the
warm rebuild, the extraction of flows, the call into HiGHS and its failure
— is written once, so every property here is stated once and run for every
emitter.
"""

import ast
import dataclasses
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.controller.global_controller import GlobalController
from repro.core.optimizer import (EpochSolver, LinearModel, SolverError,
                                  build_model, build_path_model, highs_solve,
                                  solve)
from repro.core.optimizer.cache import model_fingerprint
from repro.core.optimizer.groups import ClassGroups
from repro.core.optimizer.model import ModelStructure
from repro.core.optimizer.result import FLOW_EPSILON, extract_result
from repro.experiments.scenarios import synthetic_te_problem
from tests.test_optimizer import chain_problem, chain_specs

#: the module (the package re-exports its ``solve`` function by that name)
solve_module = import_module("repro.core.optimizer.solve")

#: every emitter: id → (builder, its keyword arguments)
EMITTERS = {
    "arc": (build_model, {}),
    "path-latency": (build_path_model, {}),
}

emitters = pytest.mark.parametrize("emitter", EMITTERS)

#: the EpochSolver formulation of each emitter
FORMULATIONS = {"arc": "arc", "path-latency": "path"}


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
    first = build(problem, **kwargs)
    structure = first.snapshot
    assert type(structure) is ModelStructure
    # the snapshot's own model holds no snapshot: no reference cycle
    assert structure.model.snapshot is None
    assert structure.model.a_ub is first.a_ub
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
    assert warm.problem is problem and warm.snapshot is structure
    # everything demand does not touch is shared with the snapshot, which
    # is what the warm solve's "same structure" test reads
    assert warm.a_ub is first.a_ub and warm.a_eq is first.a_eq
    assert warm.tables is first.tables
    assert warm.route_vars is first.route_vars
    # and the cold-built model the snapshot holds was not written to
    assert model_fingerprint(first) != model_fingerprint(warm)

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
        warm = structure.instantiate(problem)
        assert_same_model(warm, build(problem, **kwargs))
        # what no count touches is the snapshot's, by identity
        assert warm.a_eq is first.a_eq and warm.objective is first.objective
        assert warm.route_vars is first.route_vars
        # (scipy wraps them in views, so the buffers are what is shared)
        assert np.shares_memory(warm.a_ub.indices, first.a_ub.indices)
        assert np.shares_memory(warm.a_ub.indptr, first.a_ub.indptr)
        assert warm.tables.structure is first.tables.structure
    # all counts back: the snapshot's own matrices and tables again
    assert warm.a_ub is first.a_ub and warm.tables is first.tables
    assert model_fingerprint(first) == first_print


def grouped_print(problem, emitter) -> str:
    """Fingerprint of the model the solver plans for ``problem``: its
    interchangeable classes built as one."""
    build, kwargs = EMITTERS[emitter]
    return model_fingerprint(build(ClassGroups(problem).planned, **kwargs))


def solved_print(solver: EpochSolver) -> str:
    """Fingerprint of the model the solver's last solve ran on."""
    return model_fingerprint(solver._previous.lp.model)


@emitters
def test_deployment_move_is_a_structure_miss(emitter):
    """A count change is warm; a pool going 0 ↔ >0 is a new structure."""
    solver = EpochSolver(formulation=FORMULATIONS[emitter])
    problem = sparse_problem()
    solver.solve(problem)
    snapshots = [solver._previous.snapshot]
    service = "svc1"
    deployed = problem.deployed_in(service)
    spare = next(c for c in problem.clusters if c not in deployed)
    for pool, count in (((service, spare), 4),       # 0 → deployed
                        ((service, deployed[0]), 0)):   # deployed → 0
        problem.replicas[pool] = count
        result = solver.solve(problem)
        assert not result.warm_build and not result.warm_start
        snapshot = solver._previous.snapshot
        assert all(snapshot is not seen for seen in snapshots)
        snapshots.append(snapshot)
        assert solved_print(solver) == grouped_print(problem, emitter)


@emitters
def test_demand_pattern_move_is_a_structure_miss(emitter):
    solver = EpochSolver(formulation=FORMULATIONS[emitter])
    problem = sparse_problem()
    solver.solve(problem)
    first = solver._previous.snapshot
    # an ingress no class enters at yet: the group's pattern moves too
    new_ingress = next(c for c in problem.clusters if all(
        c not in workload.demand for workload in problem.workloads.values()))
    problem.workloads["class0"].demand[new_ingress] = 5.0
    second = solver.solve(problem)
    assert not second.warm_build
    assert solver._previous.snapshot.model.tables is not first.model.tables
    assert solved_print(solver) == grouped_print(problem, emitter)


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

#: the HiGHS class of scipy's bindings, however it is reached
HIGHS_CLASS = "_Highs"


class _HighsCalls(ast.NodeVisitor):
    """Collects ``(enclosing function, entry point)`` for every call of a
    ``HIGHS_ENTRY_POINTS`` name in one module, however it was imported:
    ``scipy.optimize.linprog``, ``optimize.milp`` after ``from scipy import
    optimize``, or a bare name from ``from scipy.optimize import ...``; and
    for every construction of ``HIGHS_CLASS``, through any module."""

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
        if HIGHS_CLASS in (getattr(func, "attr", None),
                           getattr(func, "id", None)):
            name = HIGHS_CLASS
        if name in HIGHS_ENTRY_POINTS or name == HIGHS_CLASS:
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


@pytest.mark.parametrize("source", [
    "from scipy.optimize._highspy import _core\ndef f():\n    _core._Highs()",
    "from scipy.optimize._highspy._core import _Highs\ndef f():\n"
    "    _Highs()",
])
def test_the_highs_call_finder_sees_the_highs_class(source):
    assert highs_calls(source) == [("f", HIGHS_CLASS)]


def test_one_function_constructs_highs_and_nothing_calls_linprog():
    """``solve._load`` constructs the program's only HiGHS instances, and
    no module calls ``linprog`` or ``milp``: every solve goes through
    :class:`~repro.core.optimizer.solve.HighsLP`."""
    root = Path(repro.__file__).parent
    calls = [(path.relative_to(root).as_posix(), *call)
             for path in sorted(root.rglob("*.py"))
             for call in highs_calls(path.read_text(encoding="utf-8"))]
    assert calls == [("core/optimizer/solve.py", "_load", HIGHS_CLASS)]


def test_every_highs_method_the_seam_calls_exists():
    """Start-up guard for the private binding the seam drives: a scipy
    that moves ``scipy.optimize._highspy._core`` or drops one of the
    ``_Highs`` methods, ``HighsInfo`` readings or options the seam uses
    fails here rather than mid-run. It reads the module the seam itself
    loaded, which is scipy's extension by name."""
    _core = solve_module.highspy
    assert _core.__name__ == "scipy.optimize._highspy._core"

    tree = ast.parse(Path(solve_module.__file__).read_text(encoding="utf-8"))
    called = {node.func.attr for node in ast.walk(tree)
              if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and ast.unparse(node.func.value) in ("highs", "self._highs")}
    assert {"passOptions", "passModel", "run", "changeRowBounds",
            "changeColsBounds", "changeCoeff", "getBasis",
            "setBasis"} <= called
    assert [name for name in sorted(called)
            if not hasattr(_core._Highs, name)] == []
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and ast.unparse(node.value) in ("info", "options",
                                            "highs.getInfo()")}
    assert [name for name in sorted(read)
            if not (hasattr(_core.HighsInfo(), name)
                    or hasattr(_core.HighsOptions(), name))] == []
    assert _core.MatrixFormat.kColwise is not None
    assert (_core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
            is not None)


@pytest.mark.parametrize("formulation", ["arc", "path"])
def test_failed_solve_leaves_nothing_to_warm_start_from(formulation):
    solver = EpochSolver(formulation=formulation)
    problem = chain_problem()
    solver.solve(problem)
    snapshot = solver._previous.snapshot  # held by reference, not by id()
    problem.workloads["default"].demand["west"] = 50_000.0
    failure(lambda: solver.solve(problem))
    assert solver._previous.lp is None
    assert solver.stats()["solves"] == 2
    # the structure is still kept: the next feasible epoch — at a new
    # replica count too — is a warm build and, with no previous solution,
    # a cold solve
    problem.workloads["default"].demand["west"] = 650.0
    problem.replicas[("S1", "west")] += 1
    result = solver.solve(problem)
    assert result.warm_build and not result.warm_start
    assert solver._previous.snapshot is snapshot
    assert solver._previous.lp is not None


@pytest.mark.parametrize("formulation", ["arc", "path"])
def test_a_count_toggle_never_replays_the_other_counts_plan(formulation):
    """Counts A → B → A under unchanged demand. B is warm-built from A's
    snapshot with B's capacities pushed into HiGHS, so its hot start
    plans for B, and the way back plans A's model again."""
    build, kwargs = EMITTERS["arc" if formulation == "arc"
                             else "path-latency"]
    solver = EpochSolver(formulation=formulation)
    problem = sparse_problem()
    pool = min(pool for pool, count in problem.replicas.items() if count)
    count_a = problem.replicas[pool]
    results, prints = [], []
    for count in (count_a, count_a + 3, count_a):
        problem.replicas[pool] = count
        result = solver.solve(problem)
        # the three classes are interchangeable: the solver plans the
        # one-class model of their group
        prints.append(solved_print(solver))
        assert prints[-1] == model_fingerprint(
            build(ClassGroups(problem).planned, **kwargs))
        results.append(result)
    first, toggled, back = results
    assert toggled.warm_build and toggled.warm_start
    assert back.warm_build and back.warm_start
    assert prints[1] != prints[0] and prints[2] == prints[0]
    assert toggled.objective != first.objective
    # the same vertex, reached from B's basis: equal to float noise
    assert back.objective == pytest.approx(first.objective, rel=1e-12)
    assert back.flows == pytest.approx(first.flows, rel=1e-9, abs=1e-9)
