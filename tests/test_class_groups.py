"""Interchangeable classes planned as one group and split back per class.

* The split, substituted into the *un-grouped* LP, is feasible to the
  hot-start shadow's tolerance, costs the un-grouped optimum and loads
  every pool as the group plan does (path, arc, and a mixed instance).
* A problem without interchangeable classes (fig6d's L/H) builds the
  un-grouped LP byte for byte.
* A re-plan of an unchanged group model (a zero-iteration hot start)
  splits with this epoch's member demands.
* Warm and cold solves install the same rules on every epoch of a
  ``ctl_steady_path``-shaped loop: the ties between class copies are gone.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.controller.global_controller import GlobalController
from repro.core.optimizer import (ClassGroups, EpochSolver, TEProblem,
                                  build_model, build_path_model,
                                  model_fingerprint)
from repro.core.optimizer import warm as warm_module
from repro.core.optimizer.result import FLOW_EPSILON, extract_result
from repro.core.optimizer.solve import highs_solve
from repro.experiments.scenarios import (fig6d_traffic_classes,
                                         synthetic_te_problem)

from .conftest import SHADOW_FEASIBILITY, infeasibility
from .test_control_epoch_mechanism import smoke_mesh
from .test_path_plan_golden import epoch_reports

BUILDERS = {"arc": build_model, "path": build_path_model}


def rescaled(problem: TEProblem, names, exec_scale: float) -> None:
    """Scale the compute times of ``names`` in place: a different group."""
    for name in names:
        workload = problem.workloads[name]
        workload.spec = dataclasses.replace(workload.spec, exec_time={
            service: seconds * exec_scale
            for service, seconds in workload.spec.exec_time.items()})


def mixed_problem() -> TEProblem:
    """Two groups of interchangeable classes (3 and 2) and one singleton."""
    problem = synthetic_te_problem(6, 3, 6, seed=3, replication=0.7,
                                   ingresses_per_class=2, headroom=1.6)
    rescaled(problem, ("class3", "class4"), 1.3)
    rescaled(problem, ("class5",), 0.7)
    return problem


INSTANCES = {
    "arc": ("arc", lambda: synthetic_te_problem(
        6, 3, 5, seed=5, replication=0.7, ingresses_per_class=2)),
    "path": ("path", lambda: synthetic_te_problem(
        8, 4, 6, seed=4, replication=0.75, ingresses_per_class=2,
        headroom=1.5)),
    "mixed-arc": ("arc", mixed_problem),
    "mixed-path": ("path", mixed_problem),
}


def ungrouped_vector(full, model, split, x: np.ndarray) -> np.ndarray:
    """The split of group solution ``x`` as a point of the un-grouped
    model ``full``: member columns at the split's rates, each pool's
    epigraph and load columns at the group's values."""
    plan = split.plan
    point = np.zeros(full.n_variables)
    if plan.formulation == "arc":
        column_of = {var.flow_key: i for i, var in enumerate(full.route_vars)}
        columns = [column_of[hops[0][0]] for hops in plan.hops]
    else:
        column_of = {(path.traffic_class, path.ingress, path.assignment): i
                     for i, path in enumerate(full.route_vars)}
        columns = []
        for hops, group_column in zip(plan.hops, plan.columns):
            path = model.route_vars[group_column]
            columns.append(column_of[(hops[0][0][0], path.ingress,
                                      path.assignment)])
    # every un-grouped flow column is one member column
    assert sorted(columns) == list(range(len(full.route_vars)))
    point[columns] = split.rates(x)
    for pool, column in model.pool_columns.items():
        point[full.pool_columns[pool]] = x[column]
        point[full.load_columns[pool]] = x[model.load_columns[pool]]
    return point


@pytest.mark.parametrize("instance", sorted(INSTANCES))
def test_split_is_an_optimum_of_the_ungrouped_lp(instance):
    formulation, make = INSTANCES[instance]
    build = BUILDERS[formulation]
    problem = make()
    groups = ClassGroups(problem)
    assert len(groups.members) < len(problem.workloads)
    model = build(groups.planned)
    x = highs_solve(model)
    split = groups.split(model)
    result = extract_result(model, x, "optimal", 0.0, split)

    full = build(problem)
    assert model.n_variables < full.n_variables
    point = ungrouped_vector(full, model, split, x)
    assert infeasibility(full, point) <= SHADOW_FEASIBILITY
    optimum = extract_result(full, highs_solve(full), "optimal", 0.0)
    for objective in (float(full.objective @ point), result.objective):
        assert objective == pytest.approx(optimum.objective, rel=1e-9)
    # the members' flows load every pool exactly as the group plan does
    for pool, column in model.load_columns.items():
        assert result.pool_load[pool] == pytest.approx(x[column], rel=1e-9,
                                                       abs=1e-9)
    assert result.pool_load == pytest.approx(optimum.pool_load, rel=1e-6,
                                             abs=1e-9)
    assert result.total_demand == problem.total_demand()
    # every member class meets its own demand, and is keyed by name
    for name, workload in problem.workloads.items():
        for cluster, rps in workload.demand.items():
            served = sum(rate for (cls, edge, src, _), rate
                         in result.flows.items()
                         if cls == name and edge == -1 and src == cluster)
            assert served == pytest.approx(rps, rel=1e-9)


@pytest.mark.parametrize("instance", sorted(INSTANCES))
def test_member_flows_equal_the_column_walk(instance):
    """The split's vectorised flows are the walk ``extract_result`` makes
    over an un-grouped model's columns: each member column above
    ``FLOW_EPSILON`` expanded onto its hops, summed per key in order."""
    formulation, make = INSTANCES[instance]
    groups = ClassGroups(make())
    model = BUILDERS[formulation](groups.planned)
    split = groups.split(model)
    x = highs_solve(model)
    rates = split.rates(x)
    walk: dict = {}
    for i in np.flatnonzero(rates > FLOW_EPSILON):
        for key, mult in split.plan.hops[i]:
            walk[key] = walk.get(key, 0.0) + float(rates[i]) * mult
    flows, order = split.flows(x)
    assert list(flows.items()) == list(walk.items())
    assert [split.plan.keys[i] for i in order] == list(flows)


def test_a_problem_without_interchangeable_classes_builds_the_ungrouped_lp(
        monkeypatch):
    """fig6d's L and H classes differ in compute and bytes: each is a group
    of one, and the LP the solver builds is the un-grouped one, byte for
    byte."""
    scenario = fig6d_traffic_classes().scenario
    problem = TEProblem.from_specs(scenario.app, scenario.deployment,
                                   scenario.demand)
    groups = ClassGroups(problem)
    assert groups.members == {"H": ("H",), "L": ("L",)}
    assert groups.planned is problem
    built = []
    original = warm_module.build_model

    def spy(*args, **kwargs):
        built.append(original(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(warm_module, "build_model", spy)
    result = EpochSolver(warm_start=False).solve(problem)
    reference = build_model(problem)
    assert model_fingerprint(built[0]) == model_fingerprint(reference)
    assert built[0].route_vars == reference.route_vars
    assert result == extract_result(reference, highs_solve(reference),
                                    "optimal", 0.0)


@pytest.mark.parametrize("formulation", ["arc", "path"])
def test_a_replay_splits_with_this_epochs_member_demands(formulation):
    """Member demands move while every group sum stays put: the group model
    is the same, so its re-plan is a hot start that pivots nothing — and
    the re-plan's flows and rules follow the members' new shares."""
    solver = EpochSolver(formulation=formulation)
    problem = synthetic_te_problem(6, 3, 4, seed=5, replication=0.7,
                                   ingresses_per_class=6)
    first = solver.solve(problem)
    cluster = problem.clusters[0]
    a, b = (problem.workloads[name].demand for name in ("class0", "class1"))
    a[cluster], b[cluster] = a[cluster] + 20.0, b[cluster] - 20.0
    again = solver.solve(problem)
    assert again.hot_start == "optimal"
    assert again.certificate.simplex_iteration_count == 0
    fresh = EpochSolver(formulation=formulation).solve(problem)
    assert fresh.solver_path == "cold"
    assert again.flows == fresh.flows
    assert again.rules() == fresh.rules()
    assert again.flows != first.flows
    assert again.objective == first.objective

    def ingress(result, name):
        return sum(rate for (cls, edge, src, _), rate in result.flows.items()
                   if cls == name and edge == -1 and src == cluster)

    assert ingress(again, "class0") == pytest.approx(a[cluster], rel=1e-12)
    assert ingress(again, "class1") == pytest.approx(b[cluster], rel=1e-12)


#: a hot start and a cold solve that end on one vertex may still differ in
#: the last bits of the solution (presolve runs only cold); a tie between
#: class copies moved whole weights, up to 1.0
RULE_WEIGHT_TOLERANCE = 1e-12


def same_rules(a, b) -> bool:
    """Same rule keys, the same destinations per rule, and weights within
    ``RULE_WEIGHT_TOLERANCE``."""
    if [rule.key for rule in a] != [rule.key for rule in b]:
        return False
    for ours, theirs in zip(a, b):
        if [dst for dst, _ in ours.weights] != [dst for dst, _ in
                                                theirs.weights]:
            return False
        if any(abs(x - y) > RULE_WEIGHT_TOLERANCE for (_, x), (_, y)
               in zip(ours.weights, theirs.weights)):
            return False
    return True


def test_warm_and_cold_solves_install_the_same_rules_every_epoch():
    """The ledger's control loop in small: every epoch's hot-started plan
    installs the rules of a cold solve of the same problem — no tie-break stage needed, since the only ties on this
    instance were between copies of interchangeable classes."""
    app, deployment, base, config = smoke_mesh()
    controller = GlobalController(app, deployment, config)
    solver = controller.epoch_solver
    cold = EpochSolver(warm_start=False, formulation=solver.formulation,
                       path_k=solver.path_k,
                       path_prune_limit=solver.path_prune_limit)
    rungs = []
    for batch in epoch_reports(deployment.cluster_names, base):
        controller.observe(batch)
        result = controller.plan()
        rungs.append(result.solver_path)
        reference = cold.solve(controller.build_problem())
        assert reference.solver_path == "cold"
        assert same_rules(result.rules(), reference.rules())
    assert set(rungs) == {"cold", "warm"}
    stats = solver.last_candidate_stats
    assert stats["class_groups"] == 1
    assert stats["member_classes"] == len(app.classes)
