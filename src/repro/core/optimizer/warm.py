"""Warm-started epoch solving: previous-solution reuse across re-plans.

scipy's HiGHS bindings expose no basis I/O, so classic simplex warm starts
are unavailable. What *is* available — and exact — is column restriction
with a pricing certificate:

1. keep the columns the previous epoch's solution actually used (its
   support) plus every pool column (epigraph ``t`` and load ``L``);
2. solve the LP restricted to those columns (tiny compared to the full
   model);
3. price every excluded column with the restricted solve's duals:
   ``r = c − A_ubᵀ·y_ub − A_eqᵀ·y_eq``. If every excluded reduced cost is
   nonnegative, the restricted optimum is optimal for the **full** LP —
   this is exactly delayed column generation's termination test, so the
   warm result is not an approximation;
4. columns that price negative are admitted and the restriction re-solved;
   if optimality still cannot be certified, fall back to a cold solve.

:class:`EpochSolver` packages this with the other two reuse layers so the
controller gets a strict cost ladder per epoch:

* demand unchanged (after ``demand_quantum`` rounding) → identical
  fingerprint → :class:`~repro.core.optimizer.cache.SolverCache` replay,
  no solver at all;
* demand values or replica counts moved, structure didn't →
  structure-cache rescatter build (the moved counts' load caps and delay
  chords rewritten) + warm restricted solve, priced with the duals of the
  full model at the new counts;
* structure moved (topology, classes, which pools are deployed) → cold
  build + cold solve.

A count change is warm; a deployment change is a miss.

A warm solve is exact, not an approximation: the pricing certificate
proves the restricted optimum optimal for the full LP. It need not be the
same vertex bit for bit — the restricted problem takes a different
arithmetic route through HiGHS presolve, and a tied optimum has a whole
face of optimal vertices. ``tests/conftest.py`` shadows every warm solve
the test suite drives with a cold one and holds the two to the same
vertex, or to a feasible point of a tied optimum at the cold objective.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

import numpy as np
from scipy import optimize

from .cache import SolverCache, model_fingerprint
from .model import LinearModel, build_model
from .paths import build_path_model
from .problem import TEProblem
from .result import OptimizationResult, extract_result
from .solve import _lp_bounds, highs_solve
from .tables import StructureTables
from .vectorized import StructureCache

__all__ = ["EpochSolver", "warm_solve"]

#: solution entries below this are not part of the support
SUPPORT_EPSILON = 1e-9

#: pricing slack: an excluded column is admissible at zero when its reduced
#: cost is above -tol (scaled by objective magnitude)
PRICING_TOLERANCE = 1e-9

#: rounds of admit-and-re-solve before giving up and solving cold
MAX_WARM_ROUNDS = 2

#: "caller did not choose" marker for EpochSolver's structure_cache param
#: (None is a real value there: it disables structure reuse)
_DEFAULT = object()


def warm_solve(model: LinearModel, previous_solution: np.ndarray,
               profiler=None) -> np.ndarray | None:
    """Re-solve an LP restricted to the previous solution's support.

    Returns the full-length solution vector when optimality of the
    restriction is certified by pricing, else ``None`` (caller solves
    cold). ``profiler`` duck-types the control-plane profiler: the
    restricted solves are timed under ``warm_solve`` and the reduced-cost
    pricing under ``pricing_certificate``.
    """
    def _section(name):
        return nullcontext() if profiler is None else profiler.section(name)
    n = model.n_variables
    n_routes = len(model.route_columns)
    if len(previous_solution) != n:
        return None
    kept = previous_solution > SUPPORT_EPSILON
    # the pool columns (t | L) are always kept: they are few, and keeping
    # them preserves feasibility of every load and chord row
    kept[n_routes:] = True
    keep = np.flatnonzero(kept)
    if len(keep) >= n:
        return None   # nothing restricted, a "warm" solve would be cold

    c = model.objective
    a_ub, a_eq = model.tables.csc()
    upper = model.upper_bounds
    tolerance = PRICING_TOLERANCE * (1.0 + float(np.abs(c).max(initial=0.0)))

    for _ in range(MAX_WARM_ROUNDS):
        with _section("warm_solve"):
            outcome = optimize.linprog(
                c=c[keep],
                A_ub=a_ub[:, keep], b_ub=model.b_ub,
                A_eq=a_eq[:, keep], b_eq=model.b_eq,
                bounds=_lp_bounds(upper[keep]),
                method="highs",
            )
        if not outcome.success:
            return None
        y_ub = outcome.ineqlin.marginals
        y_eq = outcome.eqlin.marginals
        if y_ub is None or y_eq is None:
            return None
        # price the full column set with the restricted duals
        with _section("pricing_certificate"):
            reduced = c - model.a_ub.T @ y_ub - model.a_eq.T @ y_eq
            violated = np.flatnonzero(~kept & (reduced < -tolerance))
        if not violated.size:
            x = np.zeros(n)
            x[keep] = outcome.x
            return x
        kept[violated] = True
        keep = np.flatnonzero(kept)
        if len(keep) >= n:
            return None
    return None


class EpochSolver:
    """Build + solve pipeline with structure reuse and warm starts.

    One instance lives inside each :class:`GlobalController` and solves
    everything it plans — ``plan_known`` (the oracle and a policy's
    initial plan) and every epoch's ``plan``; only the cacheless arc
    one-shot :func:`~repro.core.optimizer.solve.solve` bypasses it.
    ``profiler`` duck-types the control-plane profiler's
    ``section(name)`` context manager (duck-typed so ``repro.core`` never
    imports ``repro.obs``; None by default, so the uninstrumented path
    costs one attribute check per section). Each result carries its rung
    (``solver_path``, ``warm_build``, ``pricing``) for whoever reads it.
    """

    def __init__(self, cache: SolverCache | None = None,
                 structure_cache: StructureCache | None = _DEFAULT,
                 warm_start: bool = True,
                 formulation: str = "arc",
                 path_k: int = 4,
                 path_prune_limit: int | None = None) -> None:
        if formulation not in ("arc", "path"):
            raise ValueError(f"unknown formulation {formulation!r}")
        self.cache = cache
        #: None disables structure reuse (every build is cold)
        self.structure_cache = (StructureCache()
                                if structure_cache is _DEFAULT
                                else structure_cache)
        self.warm_start = warm_start
        self.formulation = formulation
        self.path_k = path_k
        self.path_prune_limit = path_prune_limit
        #: duck-typed control-plane profiler, set by
        #: ``GlobalController.attach_profiler``
        self.profiler = None
        #: path-formulation candidate stats of the most recent build
        #: (None for the arc formulation) — surfaced via stats()/collect
        self.last_candidate_stats: dict | None = None
        #: the last LP solved, as (its structure's shared tables,
        #: solution): a model sharing them has its rows and columns and
        #: differs from it in demand and replica counts only
        self._previous: tuple[StructureTables, np.ndarray] | None = None
        # counters surfaced through stats() → repro.obs collectors
        self.builds = 0
        self.warm_builds = 0
        self.build_seconds = 0.0
        self.solves = 0
        self.warm_solves = 0
        self.warm_rejects = 0
        self.replays = 0
        self.solve_seconds = 0.0

    # ------------------------------------------------------------- helpers

    def _section(self, name: str):
        profiler = self.profiler
        if profiler is None:
            return nullcontext()
        return profiler.section(name)

    def _build(self, problem: TEProblem) -> LinearModel:
        # "vectorized_build" nests inside the legacy "optimizer-build"
        # section so existing dashboards keep their totals while the PR 7
        # phase gets its own row
        with self._section("vectorized_build"):
            if self.formulation == "path":
                return build_path_model(
                    problem, k=self.path_k,
                    prune_limit=self.path_prune_limit,
                    structure_cache=self.structure_cache)
            return build_model(problem, structure_cache=self.structure_cache)

    def _candidate_stats(self, model: LinearModel) -> dict | None:
        """Candidate-set sizes for a path-formulation model.

        Groups are (traffic_class, ingress) pairs — the unit the k-best
        enumeration ran per. None for the arc formulation.
        """
        if self.formulation != "path":
            return None
        groups: dict[tuple[str, str], int] = {}
        for var in model.route_vars:
            key = (var.traffic_class, var.ingress)
            groups[key] = groups.get(key, 0) + 1
        return {
            "paths": len(model.route_vars),
            "groups": len(groups),
            "k": self.path_k,
            "max_group": max(groups.values(), default=0),
        }

    # --------------------------------------------------------------- solve

    def solve(self, problem: TEProblem) -> OptimizationResult:
        """Solve one epoch's instance through the reuse ladder."""
        # solver wall time is diagnostic output, never simulation input
        started = time.perf_counter()   # lint: ignore[D02]
        structure_hits = (self.structure_cache.hits
                          if self.structure_cache is not None else 0)
        with self._section("optimizer-build"):
            model = self._build(problem)
        build_elapsed = time.perf_counter() - started   # lint: ignore[D02]
        self.builds += 1
        self.build_seconds += build_elapsed
        warm_build = (self.structure_cache is not None
                      and self.structure_cache.hits > structure_hits)
        if warm_build:
            self.warm_builds += 1
        self.last_candidate_stats = self._candidate_stats(model)

        fingerprint = None
        if self.cache is not None:
            fingerprint = model_fingerprint(model)
            entry = self.cache.lookup(fingerprint)
            if entry is not None:
                solution, status = entry
                self.replays += 1
                result = extract_result(
                    model, solution, status,
                    time.perf_counter() - started)   # lint: ignore[D02]
                result.cache_hit = True
                return self._decorate(result, fingerprint, build_elapsed,
                                      warm_build, warm_start=False,
                                      pricing=None)

        solve_started = time.perf_counter()   # lint: ignore[D02]
        solution = None
        pricing = None
        # taken, not read: a solve that raises leaves nothing to warm-start
        # the next epoch from
        previous, self._previous = self._previous, None
        try:
            # sharing the previous model's structure tables ⇔ same
            # structure snapshot ⇔ only demand and count entries differ
            # from last epoch, so its solution is a column restriction
            if (self.warm_start and previous is not None
                    and previous[0] is model.tables.structure):
                with self._section("optimizer-warm-solve"):
                    solution = warm_solve(model, previous[1],
                                          profiler=self.profiler)
                if solution is not None:
                    pricing = "certified"
                    self.warm_solves += 1
                else:
                    pricing = "rejected"
                    self.warm_rejects += 1
            warm = solution is not None
            if not warm:
                with self._section("optimizer-solve"):
                    solution = highs_solve(model)
        finally:
            elapsed = time.perf_counter() - solve_started  # lint: ignore[D02]
            self.solves += 1
            self.solve_seconds += elapsed
        self._previous = (model.tables.structure, solution)
        if self.cache is not None:
            self.cache.store(fingerprint, solution, "optimal")
        result = extract_result(model, solution, "optimal", elapsed)
        return self._decorate(result, fingerprint, build_elapsed,
                              warm_build, warm, pricing)

    def _decorate(self, result: OptimizationResult, fingerprint,
                  build_elapsed: float, warm_build: bool,
                  warm_start: bool, pricing: str | None
                  ) -> OptimizationResult:
        result.build_time = build_elapsed
        result.warm_build = warm_build
        result.warm_start = warm_start
        result.pricing = pricing
        if self.cache is not None:
            result.cache_hits = self.cache.hits
            result.cache_misses = self.cache.misses
            result.fingerprint = fingerprint
        return result

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
            "replays": self.replays,
            "solve_seconds": self.solve_seconds,
            "candidates": self.last_candidate_stats,
            "structure_cache": (self.structure_cache.stats()
                                if self.structure_cache is not None else None),
            "solver_cache": (self.cache.stats()
                             if self.cache is not None else None),
        }
