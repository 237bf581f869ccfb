"""Architecture contracts (A04–A06): layering, cycles, dead public API.

The repo's package layout encodes an architecture: the simulation
substrate must not know about observability or fault injection, the
observability layer must not know about fault injection, and the dev
tooling must not import the runtime at module scope (the runtime imports
*it* for the invariant hooks). :class:`LayerSpec` states those rules as
data — checkable, diffable, overridable from a JSON file — and the pass
enforces them over the parsed import graph:

* **A04** — a module imports a package its layer forbids (findings land
  on the import line, so an intentional deferred import can carry a
  per-line suppression with its rationale);
* **A05** — an import cycle among eager imports;
* **A06** — a name exported via ``__all__`` that no code in ``src``,
  ``tests``, ``examples``, or ``benchmarks`` ever references (re-export
  chains through package ``__init__`` are followed, so a symbol used
  only via ``from repro.obs import X`` still counts as used).
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass
from pathlib import Path

from ..findings import Finding, Severity
from .project import Project, ProjectModule, SourceFile, import_cycles
from .symbols import SymbolTable

__all__ = ["LayerRule", "LayerSpec", "check_cycles", "check_dead_api",
           "check_layering"]


@dataclass(frozen=True)
class LayerRule:
    """One layering constraint: ``package`` must not import ``forbid``."""

    package: str                 # module prefix the rule governs
    forbid: tuple[str, ...]      # prefixes it must not import
    allow_deferred: bool = False  # exempt function-body (lazy) imports


@dataclass(frozen=True)
class LayerSpec:
    """The declarative layering contract for one project."""

    rules: tuple[LayerRule, ...]

    @classmethod
    def default(cls) -> "LayerSpec":
        """The repo's architecture, as stated in docs/devtools.md."""
        runtime = ("repro.sim", "repro.mesh", "repro.core",
                   "repro.baselines", "repro.analysis",
                   "repro.experiments", "repro.obs", "repro.chaos")
        # the optimizer's two emitters, plus what the repro.core rule
        # forbids (the most specific prefix wins, so it is repeated)
        formulations = ("repro.core.optimizer.paths",
                        "repro.core.optimizer.vectorized",
                        "repro.obs", "repro.chaos")
        return cls(rules=(
            LayerRule("repro.sim", ("repro.obs", "repro.chaos")),
            # the fluid substrate gets its own (longest-prefix) entry so
            # the constraint survives any future relaxation of repro.sim:
            # bulk flows feed scrape/chaos through the same pool/gateway
            # interfaces the event path uses, never by importing upward
            LayerRule("repro.sim.fluid", ("repro.obs", "repro.chaos")),
            LayerRule("repro.mesh", ("repro.obs", "repro.chaos")),
            LayerRule("repro.core", ("repro.obs", "repro.chaos")),
            # what surrounds the LP — the model and its structure snapshot,
            # the extractor, the caches, the HiGHS seam — is written once
            # and never learns which formulation emitted the model;
            # model.py's build_model defers its import of the arc emitter
            *(LayerRule(f"repro.core.optimizer.{module}", formulations)
              for module in ("result", "cache", "tables", "solve")),
            LayerRule("repro.core.optimizer.model", formulations,
                      allow_deferred=True),
            LayerRule("repro.baselines", ("repro.obs", "repro.chaos")),
            LayerRule("repro.obs", ("repro.chaos",)),
            # the one control loop never learns what a fault is: chaos
            # plugs into it from above (module-scoped — scenarios.py
            # defers an import of chaos.plan for chaos_outage_setup)
            LayerRule("repro.experiments.harness", ("repro.chaos",)),
            LayerRule("repro.devtools", runtime),
        ))

    @classmethod
    def from_file(cls, path: str | Path) -> "LayerSpec":
        """Load a spec from JSON::

            {"rules": [{"package": "repro.sim",
                        "forbid": ["repro.obs", "repro.chaos"],
                        "allow_deferred": false}]}
        """
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(raw, dict) or not isinstance(
                raw.get("rules"), list):
            raise ValueError(f"{path}: spec root must be an object with "
                             f"a 'rules' list")
        rules = []
        for entry in raw["rules"]:
            if not isinstance(entry, dict) or "package" not in entry:
                raise ValueError(f"{path}: each rule needs a 'package'")
            rules.append(LayerRule(
                package=str(entry["package"]),
                forbid=tuple(str(f) for f in entry.get("forbid", [])),
                allow_deferred=bool(entry.get("allow_deferred", False))))
        return cls(rules=tuple(rules))

    def rule_for(self, module: str) -> LayerRule | None:
        """The most specific rule whose package prefix covers ``module``."""
        best: LayerRule | None = None
        for rule in self.rules:
            if module == rule.package or module.startswith(
                    rule.package + "."):
                if best is None or len(rule.package) > len(best.package):
                    best = rule
        return best


def _prefix_match(module: str, prefixes: tuple[str, ...]) -> str | None:
    for prefix in prefixes:
        if module == prefix or module.startswith(prefix + "."):
            return prefix
    return None


def check_layering(project: Project, spec: LayerSpec) -> list[Finding]:
    """A04: every project-internal import edge against the layer spec."""
    findings: list[Finding] = []
    for edge in project.import_edges:
        rule = spec.rule_for(edge.src)
        if rule is None:
            continue
        if edge.deferred and rule.allow_deferred:
            continue
        hit = _prefix_match(edge.dst, rule.forbid)
        if hit is None:
            continue
        module = project.modules[edge.src]
        flavor = "deferred import of" if edge.deferred else "imports"
        findings.append(Finding(
            path=module.path, line=edge.line, col=0, rule="A04",
            severity=Severity.ERROR,
            message=(f"layering: `{edge.src}` {flavor} `{edge.dst}`, but "
                     f"layer `{rule.package}` must not depend on "
                     f"`{hit}`")))
    return sorted(findings)


def check_cycles(project: Project) -> list[Finding]:
    """A05: strongly connected components in the eager import graph."""
    findings: list[Finding] = []
    for cycle in import_cycles(project):
        anchor = project.modules[cycle[0]]
        findings.append(Finding(
            path=anchor.path, line=1, col=0, rule="A05",
            severity=Severity.ERROR,
            message=(f"import cycle among {len(cycle)} modules: "
                     f"{' <-> '.join(cycle)}")))
    return findings


# --------------------------------------------------------- dead public API

def _all_names(module: ProjectModule) -> list[tuple[str, int]]:
    """Literal ``__all__`` entries with the assignment's line number."""
    names: list[tuple[str, int]] = []
    for stmt in module.tree.body:
        if not isinstance(stmt, ast.Assign):
            continue
        for target in stmt.targets:
            if isinstance(target, ast.Name) and target.id == "__all__":
                value = stmt.value
                if isinstance(value, (ast.List, ast.Tuple)):
                    for element in value.elts:
                        if (isinstance(element, ast.Constant)
                                and isinstance(element.value, str)):
                            names.append((element.value, stmt.lineno))
    return names


def _def_line(module: ProjectModule, name: str, fallback: int) -> int:
    for stmt in module.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) and stmt.name == name:
            return stmt.lineno
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return stmt.lineno
        if (isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.target.id == name):
            return stmt.lineno
    return fallback


class _UsageIndex:
    """Canonical symbols referenced by loads anywhere in the repo.

    Import statements alone do not count as uses (a package ``__init__``
    re-exporting a symbol must not keep it alive); a ``Name`` or
    ``Attribute`` *load* anywhere — src, tests, examples, benchmarks —
    does. ``from m import *`` conservatively uses everything ``m``
    exports.
    """

    def __init__(self, symbols: SymbolTable) -> None:
        self.symbols = symbols
        self.project = symbols.project
        self.used: set[tuple[str, str]] = set()

    def scan_project_module(self, module: ProjectModule) -> None:
        bindings = self._import_bindings(module.tree, module)
        # loads of a module's own top-level defs count as uses too: an
        # export referenced only by a sibling in its module is not dead
        for stmt in module.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                bindings.setdefault(
                    stmt.name, ("symbol", f"{module.name}:{stmt.name}"))
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if (isinstance(target, ast.Name)
                            and not target.id.startswith("__")):
                        bindings.setdefault(
                            target.id,
                            ("symbol", f"{module.name}:{target.id}"))
            elif (isinstance(stmt, ast.AnnAssign)
                  and isinstance(stmt.target, ast.Name)
                  and not stmt.target.id.startswith("__")):
                bindings.setdefault(
                    stmt.target.id,
                    ("symbol", f"{module.name}:{stmt.target.id}"))
        self._scan_tree(module.tree, bindings)

    def scan_consumer(self, consumer: SourceFile) -> None:
        bindings = self._import_bindings(consumer.tree, None)
        self._scan_tree(consumer.tree, bindings)

    # ------------------------------------------------------------- helpers

    def _import_bindings(self, tree: ast.Module,
                         module: ProjectModule | None
                         ) -> dict[str, tuple[str, str]]:
        """local alias → ("module", m) | ("symbol", "mod:name")."""
        bindings: dict[str, tuple[str, str]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = (alias.name if alias.asname
                              else alias.name.split(".")[0])
                    if target in self.project.modules:
                        bindings[local] = ("module", target)
            elif isinstance(node, ast.ImportFrom):
                base = self._from_base(node, module)
                if base is None or base not in self.project.modules:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        self._use_star(base)
                        continue
                    local = alias.asname or alias.name
                    submodule = f"{base}.{alias.name}"
                    if submodule in self.project.modules:
                        bindings[local] = ("module", submodule)
                    else:
                        bindings[local] = ("symbol",
                                           f"{base}:{alias.name}")
        return bindings

    def _from_base(self, node: ast.ImportFrom,
                   module: ProjectModule | None) -> str | None:
        if node.level == 0:
            return node.module
        if module is None:
            return None
        return self.project.resolve_from_base(module, node)

    def _use_star(self, module_name: str) -> None:
        module = self.project.modules[module_name]
        for name, _ in _all_names(module):
            self._record(module_name, name)

    def _record(self, module_name: str, name: str) -> None:
        self.used.add(self.symbols.canonical(module_name, name))

    def _scan_tree(self, tree: ast.Module,
                   bindings: dict[str, tuple[str, str]]) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx,
                                                         ast.Load):
                binding = bindings.get(node.id)
                if binding is None:
                    continue
                kind, target = binding
                if kind == "symbol":
                    base, name = target.split(":", 1)
                    self._record(base, name)
                else:
                    # loading a module alias uses the module itself
                    self.used.add((target, ""))
            elif isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, (ast.Load, ast.Store, ast.Del)):
                self._scan_attribute(node, bindings)

    def _scan_attribute(self, node: ast.Attribute,
                        bindings: dict[str, tuple[str, str]]) -> None:
        # resolve `alias.attr.attr...` to the longest module prefix, then
        # record the next attribute as a use of that module's symbol
        chain: list[str] = []
        cursor: ast.expr = node
        while isinstance(cursor, ast.Attribute):
            chain.append(cursor.attr)
            cursor = cursor.value
        if not isinstance(cursor, ast.Name):
            return
        binding = bindings.get(cursor.id)
        if binding is None or binding[0] != "module":
            return
        chain.reverse()
        current = binding[1]
        for index, attr in enumerate(chain):
            child = f"{current}.{attr}"
            if child in self.project.modules:
                self.used.add((child, ""))
                current = child
                continue
            self._record(current, attr)
            return


def check_dead_api(symbols: SymbolTable) -> list[Finding]:
    """A06: ``__all__`` names nothing in the repo ever references."""
    project = symbols.project
    index = _UsageIndex(symbols)
    for module in project.sorted_modules():
        index.scan_project_module(module)
    for consumer in project.consumers:
        index.scan_consumer(consumer)

    findings: list[Finding] = []
    reported: set[tuple[str, str]] = set()
    for module in project.sorted_modules():
        for name, all_line in _all_names(module):
            if name.startswith("_"):
                continue
            canon = symbols.canonical(module.name, name)
            submodule = f"{module.name}.{name}"
            if submodule in project.modules:
                canon_key = (submodule, "")
            else:
                canon_key = canon
            if canon_key in index.used or canon_key in reported:
                continue
            reported.add(canon_key)
            defining = project.modules.get(canon[0], module)
            line = _def_line(defining, canon[1] or name, 0)
            if line == 0:
                # no definition in the canonical module (the chain ends at
                # an import binding): point at the __all__ export instead
                defining, line = module, all_line
            findings.append(Finding(
                path=defining.path, line=line, col=0, rule="A06",
                severity=Severity.ERROR,
                message=(f"dead public API: `{module.name}.{name}` is "
                         f"exported via __all__ but never referenced "
                         f"from src, tests, examples, or benchmarks")))
    return sorted(findings)
