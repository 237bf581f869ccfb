"""Orchestration: run the three whole-program passes over one parse.

:class:`FlowAnalyzer` owns the pass configuration — purity contracts,
taint sinks, the layer spec — so fixture projects can swap any of them
out. It returns raw findings; :mod:`repro.devtools.check` applies the
per-line ``# lint: ignore[Axx]`` suppressions together with the
file-local lint's.
"""

from __future__ import annotations

from typing import Iterable

from ..findings import Finding
from .contracts import (LayerSpec, check_cycles, check_dead_api,
                        check_layering)
from .project import Project
from .purity import (DEFAULT_PURITY_CONTRACTS, PurityContract, WriteSets,
                     check_purity_contracts)
from .symbols import SymbolTable
from .taint import DEFAULT_SINKS, TaintSink, check_taint

__all__ = ["ANALYZER_RULES", "FlowAnalyzer"]

#: pass catalogue for --list-rules / --select validation
ANALYZER_RULES: dict[str, str] = {
    "A01": "obs entrypoint may write simulator/mesh/controller state",
    "A02": "chaos harness may mutate the shared scenario object",
    "A03": "nondeterminism flows into a sim-visible sink",
    "A04": "module imports a package its layer forbids",
    "A05": "import cycle among eager imports",
    "A06": "dead public API: __all__ name never referenced",
}


class FlowAnalyzer:
    """Run the purity, taint, and contract passes over one project."""

    def __init__(self, project: Project, *,
                 purity_contracts: tuple[PurityContract, ...]
                 = DEFAULT_PURITY_CONTRACTS,
                 taint_sinks: Iterable[TaintSink] = DEFAULT_SINKS,
                 layer_spec: LayerSpec | None = None) -> None:
        self.project = project
        self.purity_contracts = purity_contracts
        self.taint_sinks = tuple(taint_sinks)
        self.layer_spec = layer_spec or LayerSpec.default()
        self.symbols = SymbolTable(project)

    def run(self, select: frozenset[str] | None = None) -> list[Finding]:
        """Findings of every selected pass, before suppression."""

        def runs(rule: str) -> bool:
            return select is None or rule in select

        raw: list[Finding] = []
        if runs("A01") or runs("A02"):
            write_sets = WriteSets(self.symbols)
            contracts = tuple(c for c in self.purity_contracts
                              if runs(c.rule))
            raw.extend(check_purity_contracts(
                self.symbols, contracts, write_sets))
        if runs("A03"):
            raw.extend(check_taint(self.symbols, self.taint_sinks))
        if runs("A04"):
            raw.extend(check_layering(self.project, self.layer_spec))
        if runs("A05"):
            raw.extend(check_cycles(self.project))
        if runs("A06"):
            raw.extend(check_dead_api(self.symbols))
        return raw
