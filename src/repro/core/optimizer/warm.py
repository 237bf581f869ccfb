"""Hot-started epoch solving: the previous epoch's structure and basis reused.

:class:`EpochSolver` gives the controller a strict cost ladder per epoch:

* structure unchanged, demand values or replica counts may have moved →
  warm build (the previous epoch's
  :meth:`~repro.core.optimizer.model.ModelStructure.instantiate`: demand
  rescattered, the moved counts' load caps and delay chords rewritten) +
  hot start (:func:`warm_solve`): the previous epoch's
  :class:`~repro.core.optimizer.solve.HighsLP` takes what moved and
  re-runs dual simplex from its optimal basis. An unchanged LP (demand
  unchanged after ``demand_quantum`` rounding) is a zero-iteration hot
  start: HiGHS's basis is already optimal;
* structure moved (topology, classes, which pools are deployed) → cold
  build + cold solve on a freshly loaded instance.

A count change is warm; a deployment change is a cold build. Only the
previous epoch's structure is kept — one slot, not a cache: a structure
last seen two epochs ago is built cold again.

Every rung works on the model of the problem's class groups
(:class:`~repro.core.optimizer.groups.ClassGroups`): interchangeable
classes are built and solved as one, and the solution is split back per
member class at this epoch's demands.

A hot start solves the full model under the same certificate as a cold
solve, and where it ends on the cold solve's basis it returns the cold
bits; but a tied optimum has a face of optimal vertices, and two pivot
paths may end on different ones. ``tests/conftest.py`` shadows every hot
start the test suite drives with a cold solve and holds the two to the
same vertex, or to a feasible point of a tied optimum at the cold
objective.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .groups import ClassGroups, SplitPlan
from .model import LinearModel, ModelStructure, build_model
from .paths import build_path_model
from .problem import TEProblem
from .result import OptimizationResult, extract_result
from .solve import HighsLP, SolverError
from .vectorized import structure_key

__all__ = ["EpochSolver", "warm_solve"]


def warm_solve(lp: HighsLP, model: LinearModel) -> np.ndarray | None:
    """Re-solve ``lp`` as ``model`` from the basis HiGHS holds.

    Returns the optimal solution vector, or ``None`` when ``model`` is not
    of ``lp``'s structure or the hot start does not end optimal (the
    caller then solves cold).
    """
    if model.tables.structure is not lp.model.tables.structure:
        return None
    lp.push(model)
    try:
        return lp.run()
    except SolverError:
        return None


@dataclass
class _Previous:
    """The previous epoch's structure: what an epoch of the same
    structure reuses instead of building and solving cold."""

    #: (formulation, k, prune limit, :func:`structure_key`) it was built
    #: under
    key: tuple
    #: the cold build's snapshot, which a warm build instantiates
    snapshot: ModelStructure
    #: the class-group split plan last used (None: no class groups)
    split_plan: SplitPlan | None = None
    #: HiGHS at the optimal basis of the last solve (None: none to
    #: hot-start from)
    lp: HighsLP | None = None


class EpochSolver:
    """Build + solve pipeline with structure reuse and hot starts.

    One instance lives inside each :class:`GlobalController` and solves
    everything it plans — ``plan_known`` (the oracle and a policy's
    initial plan) and every epoch's ``plan``; only the cacheless arc
    one-shot :func:`~repro.core.optimizer.solve.solve` bypasses it.
    ``warm_start=False`` keeps no previous epoch: every build and solve
    is cold. Each result carries its rung (``solver_path``,
    ``warm_build``, ``hot_start``), its build and solve wall time and
    HiGHS's certificate for whoever reads it; the counters sum them.

    ``cache`` must be ``None``: it remains only because the performance
    ledger's reference solver still passes ``cache=None``, and goes with
    the ledger's next change.
    """

    def __init__(self, *, cache: None = None,
                 warm_start: bool = True,
                 formulation: str = "arc",
                 path_k: int = 4,
                 path_prune_limit: int | None = None) -> None:
        if cache is not None:
            raise TypeError(f"EpochSolver takes no solver cache, got "
                            f"{type(cache).__name__}")
        if formulation not in ("arc", "path"):
            raise ValueError(f"unknown formulation {formulation!r}")
        self.warm_start = warm_start
        self.formulation = formulation
        self.path_k = path_k
        self.path_prune_limit = path_prune_limit
        #: path-formulation candidate stats of the most recent build
        #: (None for the arc formulation) — surfaced via stats()/collect
        self.last_candidate_stats: dict | None = None
        #: the previous epoch's structure, split plan and HiGHS instance —
        #: the one live HiGHS instance, dropped by pickling
        self._previous: _Previous | None = None
        # counters surfaced through stats() → repro.obs collectors
        self.builds = 0
        self.warm_builds = 0
        self.build_seconds = 0.0
        self.solves = 0
        self.warm_solves = 0
        self.warm_rejects = 0
        self.solve_seconds = 0.0

    # ------------------------------------------------------------- helpers

    def _build(self, problem: TEProblem) -> tuple[LinearModel, bool]:
        """``problem``'s model and whether it was a warm build: the
        previous epoch's snapshot instantiated when the structure is the
        same, else a cold build, which then becomes the previous epoch."""
        previous = self._previous
        key = None
        if self.warm_start:
            key = (self.formulation, self.path_k, self.path_prune_limit,
                   structure_key(problem))
            if (previous is not None and previous.key == key
                    and previous.snapshot.model.tables.structure
                    .matches(problem)):
                return previous.snapshot.instantiate(problem), True
        if self.formulation == "path":
            model = build_path_model(problem, k=self.path_k,
                                     prune_limit=self.path_prune_limit)
        else:
            model = build_model(problem)
        self._previous = (None if key is None
                          else _Previous(key, model.snapshot))
        return model, False

    def _candidate_stats(self, model: LinearModel,
                         groups: ClassGroups) -> dict | None:
        """Candidate-set sizes for a path-formulation model.

        ``groups`` counts the (class group, ingress) pairs — the unit the
        k-best enumeration ran per; ``class_groups`` the groups of
        interchangeable classes the model was built for and
        ``member_classes`` the classes in them. None for the arc
        formulation.
        """
        if self.formulation != "path":
            return None
        sizes: dict[tuple[str, str], int] = {}
        for var in model.route_vars:
            key = (var.traffic_class, var.ingress)
            sizes[key] = sizes.get(key, 0) + 1
        return {
            "paths": len(model.route_vars),
            "groups": len(sizes),
            "k": self.path_k,
            "max_group": max(sizes.values(), default=0),
            "class_groups": len(groups.members),
            "member_classes": len(groups.problem.workloads),
        }

    # --------------------------------------------------------------- solve

    def solve(self, problem: TEProblem) -> OptimizationResult:
        """Solve one epoch's instance through the reuse ladder."""
        # solver wall time is diagnostic output, never simulation input
        started = time.perf_counter()   # lint: ignore[D02]
        groups = ClassGroups(problem)
        model, warm_build = self._build(groups.planned)
        build_elapsed = time.perf_counter() - started   # lint: ignore[D02]
        self.builds += 1
        self.build_seconds += build_elapsed
        if warm_build:
            self.warm_builds += 1
        self.last_candidate_stats = self._candidate_stats(model, groups)
        previous = self._previous
        split = groups.split(
            model, None if previous is None else previous.split_plan)
        if previous is not None:
            previous.split_plan = None if split is None else split.plan

        solve_started = time.perf_counter()   # lint: ignore[D02]
        solution = None
        hot_start = None
        lp = None
        if previous is not None:
            # taken, not read: a solve that raises leaves no basis to
            # hot-start the next epoch from (its structure stays)
            lp, previous.lp = previous.lp, None
        try:
            # a previous basis exists only after a warm build: same
            # structure snapshot ⇔ only demand and count entries differ
            # from last epoch, so HiGHS holds a basis of this very LP
            if lp is not None:
                solution = warm_solve(lp, model)
                if solution is not None:
                    hot_start = "optimal"
                    self.warm_solves += 1
                else:
                    hot_start = "rejected"
                    self.warm_rejects += 1
            if solution is None:
                lp = HighsLP(model)
                solution = lp.run()
        finally:
            elapsed = time.perf_counter() - solve_started  # lint: ignore[D02]
            self.solves += 1
            self.solve_seconds += elapsed
        if previous is not None:
            previous.lp = lp
        result = extract_result(model, solution, "optimal", elapsed, split)
        result.certificate = lp.certificate
        result.build_time = build_elapsed
        result.warm_build = warm_build
        result.warm_start = hot_start == "optimal"
        result.hot_start = hot_start
        return result

    def __getstate__(self) -> dict:
        # a live HiGHS instance does not pickle: the next epoch is cold
        state = self.__dict__.copy()
        state["_previous"] = None
        return state

    # --------------------------------------------------------------- stats

    def stats(self) -> dict:
        """Counters in a JSON-friendly shape (collectors, BENCH exports)."""
        return {
            "builds": self.builds,
            "warm_builds": self.warm_builds,
            "build_seconds": self.build_seconds,
            "solves": self.solves,
            "warm_solves": self.warm_solves,
            "warm_rejects": self.warm_rejects,
            "solve_seconds": self.solve_seconds,
            "candidates": self.last_candidate_stats,
        }
