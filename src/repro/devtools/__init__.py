"""Developer tooling: the static check and the runtime invariant checks.

Two layers guard the reproducibility discipline the simulator's results
rest on (a run must be exactly reproducible from its seed, and every
routing decision must obey the optimizer's conservation constraints):

* :mod:`repro.devtools.check` — the static check
  (``python -m repro.devtools.check src``). One parse of the tree feeds
  both rule families: the file-local determinism lint
  (:mod:`repro.devtools.rules`, D01–D08: all randomness through
  :class:`~repro.sim.rng.RngRegistry`, no wall-clock reads in simulated
  code, no iteration over unordered sets in decision paths, and so on)
  and the whole-program flow analyzer (:mod:`repro.devtools.flow`,
  A01–A06: purity proofs for the observability layer, determinism taint
  across call edges, and architecture contracts). See
  ``docs/devtools.md``.
* :mod:`repro.devtools.invariants` — runtime checks the engine, pools,
  fluid flow model, and runner perform in every run: event-time
  monotonicity, request conservation, routing rows summing to one,
  non-negative queue depths, finite non-negative fluid rates.

Only the invariants load with the package; a run never pays for the
static tooling.
"""

from __future__ import annotations

from .invariants import InvariantViolation

__all__ = ["InvariantViolation", "Severity", "load_project", "run_check"]

#: lazy exports: ``import repro`` loads only the invariants, and the
#: check's runner module must not be pre-imported in sys.modules
#: (`python -m` runpy warning)
_LAZY = {"Severity": "findings", "load_project": "check",
         "run_check": "check"}


def __getattr__(name: str):
    target = _LAZY.get(name)
    if target is not None:
        import importlib
        module = importlib.import_module(f".{target}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
