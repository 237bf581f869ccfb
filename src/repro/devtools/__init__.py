"""Developer tooling: determinism lint, flow analyzer, invariant checks.

Three layers guard the reproducibility discipline the simulator's results
rest on (a run must be exactly reproducible from its seed, and every
routing decision must obey the optimizer's conservation constraints):

* :mod:`repro.devtools.lint` — an AST-based, file-local static analysis
  pass (``python -m repro.devtools.lint src tests``) with
  codebase-specific rules: all randomness through
  :class:`~repro.sim.rng.RngRegistry`, no wall-clock reads in simulated
  code, no iteration over unordered sets in decision paths, and so on.
  See :mod:`repro.devtools.rules` and ``docs/devtools.md``.
* :mod:`repro.devtools.flow` — the whole-program analyzer
  (``python -m repro.devtools.analyze src``): purity proofs for the
  observability layer, determinism taint tracking across call edges, and
  architecture contracts (layering, import cycles, dead public API).
* :mod:`repro.devtools.invariants` — runtime checks the engine, pools,
  fluid flow model, and runner perform in every run: event-time
  monotonicity, request conservation, routing rows summing to one,
  non-negative queue depths, finite non-negative fluid rates.
"""

from __future__ import annotations

from .config import LintConfig
from .findings import Finding, Severity
from .invariants import InvariantViolation
from .rules import ALL_RULES, Rule

__all__ = ["ALL_RULES", "Finding", "FlowAnalyzer", "InvariantViolation",
           "LintConfig", "Linter", "Rule", "Severity", "lint_paths",
           "run_analysis"]

#: lazy exports: runner modules must not be pre-imported in sys.modules
#: (`python -m` runpy warning), and the flow package stays import-free
#: until something actually analyzes
_LAZY = {"Linter": "lint", "lint_paths": "lint",
         "FlowAnalyzer": "flow.analyzer", "run_analysis": "analyze"}


def __getattr__(name: str):
    target = _LAZY.get(name)
    if target is not None:
        import importlib
        module = importlib.import_module(f".{target}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
