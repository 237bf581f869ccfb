"""Whole-program flow analysis: purity proofs, determinism taint,
architecture contracts.

This package parses the full source tree once
(:class:`~repro.devtools.flow.project.Project`), builds a module import
graph and a name-resolved intra-project call graph
(:class:`~repro.devtools.flow.symbols.SymbolTable`), and runs three
passes over them:

1. **Purity / write-sets** (:mod:`~repro.devtools.flow.purity`, A01/A02)
   — per-function mutation sets propagated transitively, proving the
   observability layer read-only and the chaos twin-run scenario
   unshared.
2. **Determinism taint** (:mod:`~repro.devtools.flow.taint`, A03) —
   wall clocks, unseeded randomness, env reads, and completion-order
   iteration tracked to event scheduling, RNG seeding, routing weights,
   and exports, across module boundaries.
3. **Architecture contracts** (:mod:`~repro.devtools.flow.contracts`,
   A04–A06) — declarative layering, import cycles, dead public API.

Drive it with ``python -m repro.devtools.check src``, which runs these
passes and the file-local lint over the same parse (see
:mod:`repro.devtools.check` and docs/devtools.md).
"""

from __future__ import annotations

from .analyzer import ANALYZER_RULES, FlowAnalyzer
from .contracts import LayerRule, LayerSpec
from .project import ImportEdge, Project, ProjectModule
from .purity import (DEFAULT_PURITY_CONTRACTS, PurityContract, WriteEffect,
                     WriteSets)
from .symbols import ClassInfo, FunctionInfo, SymbolTable
from .taint import DEFAULT_SINKS, TaintAnalysis, TaintSink

__all__ = ["ANALYZER_RULES", "ClassInfo", "DEFAULT_PURITY_CONTRACTS",
           "DEFAULT_SINKS", "FlowAnalyzer", "FunctionInfo", "ImportEdge",
           "LayerRule", "LayerSpec", "Project", "ProjectModule",
           "PurityContract", "SymbolTable", "TaintAnalysis", "TaintSink",
           "WriteEffect", "WriteSets"]
