"""The determinism & invariant lint rules (D01–D08).

Each rule is an AST visitor over one module. Rules are path-aware: the
codebase's layout encodes which guarantees apply where (``sim/``, ``core/``,
``mesh/``, ``baselines/`` are simulated/deterministic code; ``analysis/``
and ``benchmarks/`` may read wall clocks; only ``sim/rng.py`` may construct
raw generators). See ``docs/devtools.md`` for the full catalogue with
examples.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import PurePosixPath
from typing import Iterator

from .findings import Finding, Severity

__all__ = ["ALL_RULES", "DunderAllConsistency", "FloatTimestampEquality",
           "ModuleSource", "ModuleStateMutation", "MutableDefaultArgument",
           "PrintInLibraryCode", "RandomnessOutsideRegistry", "Rule",
           "UnsortedSetIteration", "WallClockInSimulatedCode"]


@dataclass(frozen=True)
class ModuleSource:
    """One parsed source file: what every rule checks, and what
    :class:`~repro.devtools.flow.project.Project` keeps per file."""

    path: str            # path as given on the command line
    tree: ast.Module
    source: str

    @property
    def parts(self) -> tuple[str, ...]:
        return PurePosixPath(self.path.replace("\\", "/")).parts


# --------------------------------------------------------------- path scopes

#: directories whose code runs inside the simulation / control plane and
#: therefore must be bit-reproducible from the seed
_DETERMINISTIC_DIRS = frozenset({"sim", "core", "mesh", "baselines"})


def _in_repro_package(module: ModuleSource) -> bool:
    """True for library code under ``repro`` (not tests or benchmarks)."""
    parts = module.parts
    return ("repro" in parts and "tests" not in parts
            and "benchmarks" not in parts)


def _in_deterministic_code(module: ModuleSource) -> bool:
    parts = module.parts
    return (_in_repro_package(module)
            and any(p in _DETERMINISTIC_DIRS for p in parts))


def _is_rng_module(module: ModuleSource) -> bool:
    parts = module.parts
    return len(parts) >= 2 and parts[-2:] == ("sim", "rng.py")


def _dotted_name(node: ast.expr) -> str | None:
    """``np.random.default_rng`` → that string; None for non-name chains."""
    names: list[str] = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    names.append(node.id)
    return ".".join(reversed(names))


def _walk_functions(tree: ast.Module) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            yield node


class Rule:
    """Base class: one lint rule with an id and an AST check."""

    rule_id: str = "D00"
    summary: str = ""

    def applies_to(self, module: ModuleSource) -> bool:
        return True

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: ModuleSource, node: ast.AST,
                message: str) -> Finding:
        return Finding(path=module.path,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0),
                       rule=self.rule_id,
                       severity=Severity.ERROR,
                       message=message)


# ------------------------------------------------------------------ D01

class RandomnessOutsideRegistry(Rule):
    """All randomness must flow through ``RngRegistry.stream(name)``.

    A raw ``random.random()`` or ``np.random.default_rng()`` anywhere else
    either ignores the run's seed entirely or creates an unregistered
    stream whose draws perturb every other component's.
    """

    rule_id = "D01"
    summary = ("randomness outside sim/rng.py — use "
               "RngRegistry.stream(name)")

    def applies_to(self, module: ModuleSource) -> bool:
        return not _is_rng_module(module)

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        # tests and benchmarks may construct explicitly seeded generators
        # to inject into components; unseeded construction is never OK
        in_tests = not _in_repro_package(module)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        yield self.finding(
                            module, node,
                            "import of the stdlib `random` module; draw "
                            "from RngRegistry.stream(name) instead")
            elif isinstance(node, ast.ImportFrom):
                if node.module in ("random", "numpy.random"):
                    yield self.finding(
                        module, node,
                        f"import from `{node.module}`; draw from "
                        "RngRegistry.stream(name) instead")
            elif isinstance(node, ast.Call):
                dotted = _dotted_name(node.func)
                if dotted is None:
                    continue
                segments = dotted.split(".")
                if segments[0] == "random" and len(segments) > 1:
                    yield self.finding(
                        module, node,
                        f"call to `{dotted}` bypasses the seeded "
                        "RngRegistry")
                elif (len(segments) >= 3
                      and segments[0] in ("np", "numpy")
                      and segments[1] == "random"):
                    if (in_tests and segments[2] == "default_rng"
                            and (node.args or node.keywords)):
                        continue   # seeded injection fixture
                    yield self.finding(
                        module, node,
                        f"call to `{dotted}` constructs an unregistered "
                        "generator; use RngRegistry.stream(name)")


# ------------------------------------------------------------------ D02

class WallClockInSimulatedCode(Rule):
    """Simulated code must only see virtual time (``Simulator.now``).

    A wall-clock read in ``sim/``, ``core/``, ``mesh/``, or ``baselines/``
    couples results to host speed and makes reruns diverge. Benchmarks and
    offline analysis may time themselves. The fluid substrate
    (``sim/fluid``) is covered by the same directory match: its tick loop
    advances virtual time only, and its ticks are engine events, whose
    time the engine checks for monotonicity in every run.
    """

    rule_id = "D02"
    summary = "wall-clock read in sim/core/mesh/baselines code"

    _TIME_CALLS = frozenset({
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns", "time.process_time",
        "time.process_time_ns",
    })
    _DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})
    _FROM_TIME_NAMES = frozenset({
        "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
        "perf_counter_ns", "process_time", "process_time_ns",
    })

    def applies_to(self, module: ModuleSource) -> bool:
        return _in_deterministic_code(module)

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                bad = [a.name for a in node.names
                       if a.name in self._FROM_TIME_NAMES]
                if bad:
                    yield self.finding(
                        module, node,
                        f"wall-clock import from `time` ({', '.join(bad)}); "
                        "simulated code must use Simulator.now")
            elif isinstance(node, ast.Call):
                dotted = _dotted_name(node.func)
                if dotted is None:
                    continue
                segments = dotted.split(".")
                if dotted in self._TIME_CALLS:
                    yield self.finding(
                        module, node,
                        f"wall-clock call `{dotted}()`; simulated code "
                        "must use Simulator.now")
                elif (segments[-1] in self._DATETIME_ATTRS
                      and any(s in ("datetime", "date") for s in segments[:-1])):
                    yield self.finding(
                        module, node,
                        f"wall-clock call `{dotted}()`; simulated code "
                        "must use Simulator.now")


# ------------------------------------------------------------------ D03

class UnsortedSetIteration(Rule):
    """Iterating a set has arbitrary order; wrap it in ``sorted(...)``.

    Set iteration order depends on insertion history and hash seeding of
    the values. Feeding it into event scheduling or routing-weight
    construction silently reorders draws between runs.
    """

    rule_id = "D03"
    summary = "iteration over an unordered set without sorted(...)"

    _SET_METHODS = frozenset({"union", "intersection", "difference",
                              "symmetric_difference"})

    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            if (isinstance(node.func, ast.Name)
                    and node.func.id in ("set", "frozenset")):
                return True
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr in self._SET_METHODS):
                return True
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)):
            return (self._is_set_expr(node.left)
                    or self._is_set_expr(node.right))
        return False

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            iters: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if self._is_set_expr(it):
                    yield self.finding(
                        module, it,
                        "iteration over a set has arbitrary order; wrap "
                        "the expression in sorted(...)")


# ------------------------------------------------------------------ D04

class FloatTimestampEquality(Rule):
    """No ``==``/``!=`` between simulated timestamps.

    Virtual times are floats accumulated through arithmetic; exact
    equality is representation-dependent. Compare with inequalities or an
    explicit tolerance.
    """

    rule_id = "D04"
    summary = "float ==/!= comparison on simulated timestamps"

    def applies_to(self, module: ModuleSource) -> bool:
        return _in_repro_package(module)

    @staticmethod
    def _terminal_id(node: ast.expr) -> str | None:
        if isinstance(node, ast.Attribute):
            return node.attr
        if isinstance(node, ast.Name):
            return node.id
        return None

    def _is_time_like(self, node: ast.expr) -> bool:
        name = self._terminal_id(node)
        if name is None:
            return False
        return (name == "now" or name == "deadline" or name == "timestamp"
                or name.endswith("time") or name.endswith("_at"))

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if self._is_time_like(left) or self._is_time_like(right):
                    yield self.finding(
                        module, node,
                        "exact ==/!= on a simulated timestamp; use an "
                        "inequality or an explicit tolerance")


# ------------------------------------------------------------------ D05

class MutableDefaultArgument(Rule):
    """Mutable default arguments alias state across calls."""

    rule_id = "D05"
    summary = "mutable default argument"

    _FACTORY_NAMES = frozenset({"list", "dict", "set", "defaultdict",
                                "OrderedDict", "Counter", "deque",
                                "bytearray"})

    def _is_mutable_default(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            dotted = _dotted_name(node.func)
            return (dotted is not None
                    and dotted.split(".")[-1] in self._FACTORY_NAMES)
        return False

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for func in _walk_functions(module.tree):
            defaults = list(func.args.defaults)
            defaults.extend(d for d in func.args.kw_defaults
                            if d is not None)
            for default in defaults:
                if self._is_mutable_default(default):
                    name = getattr(func, "name", "<lambda>")
                    yield self.finding(
                        module, default,
                        f"mutable default argument in `{name}`; default "
                        "to None and create the object inside the body")


# ------------------------------------------------------------------ D06

class ModuleStateMutation(Rule):
    """Handlers and callbacks must not mutate module-level state.

    Module globals outlive a simulation; mutating them from event code
    leaks state between runs and between test cases, so run N's result
    depends on runs 1..N-1. Keep mutable state on the objects owned by
    one :class:`MeshSimulation`.
    """

    rule_id = "D06"
    summary = "function mutates module-level state"

    _MUTATORS = frozenset({"append", "extend", "insert", "add", "update",
                           "setdefault", "pop", "popleft", "remove",
                           "discard", "clear", "appendleft"})

    def applies_to(self, module: ModuleSource) -> bool:
        return _in_repro_package(module)

    def _module_level_mutables(self, tree: ast.Module) -> set[str]:
        names: set[str] = set()
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign):
                value = stmt.value
                mutable = isinstance(value, (ast.List, ast.Dict, ast.Set,
                                             ast.ListComp, ast.DictComp,
                                             ast.SetComp))
                if isinstance(value, ast.Call):
                    dotted = _dotted_name(value.func)
                    if dotted is not None and dotted.split(".")[-1] in (
                            "list", "dict", "set", "defaultdict", "deque",
                            "count"):
                        mutable = True
                if mutable:
                    names.update(t.id for t in stmt.targets
                                 if isinstance(t, ast.Name))
        return names

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        mutables = self._module_level_mutables(module.tree)
        for func in _walk_functions(module.tree):
            # nested defs are revisited by the outer walk; the linter
            # deduplicates identical findings
            for node in ast.walk(func):
                if isinstance(node, ast.Global):
                    names = ", ".join(node.names)
                    yield self.finding(
                        module, node,
                        f"`global {names}` rebinds module state from a "
                        "function; keep state on the simulation objects")
                elif mutables and isinstance(node, ast.Call):
                    func_expr = node.func
                    if (isinstance(func_expr, ast.Attribute)
                            and func_expr.attr in self._MUTATORS
                            and isinstance(func_expr.value, ast.Name)
                            and func_expr.value.id in mutables):
                        yield self.finding(
                            module, node,
                            f"mutates module-level "
                            f"`{func_expr.value.id}` from a function")
                    elif (isinstance(func_expr, ast.Name)
                          and func_expr.id == "next"
                          and len(node.args) == 1
                          and isinstance(node.args[0], ast.Name)
                          and node.args[0].id in mutables):
                        yield self.finding(
                            module, node,
                            f"advances module-level iterator "
                            f"`{node.args[0].id}` from a function; ids "
                            "drawn from it leak across simulations")
                elif mutables and isinstance(node, (ast.Assign,
                                                    ast.AugAssign)):
                    targets = (node.targets
                               if isinstance(node, ast.Assign)
                               else [node.target])
                    for target in targets:
                        if (isinstance(target, ast.Subscript)
                                and isinstance(target.value, ast.Name)
                                and target.value.id in mutables):
                            yield self.finding(
                                module, node,
                                f"assigns into module-level "
                                f"`{target.value.id}` from a function")


# ------------------------------------------------------------------ D07

class DunderAllConsistency(Rule):
    """``__all__`` must exist and match the module's public defs.

    The public-API tests and docs index are generated from ``__all__``;
    a public def missing from it is invisible to both, and a stale entry
    breaks ``from module import *``.
    """

    rule_id = "D07"
    summary = "__all__ missing or inconsistent with public defs"

    def applies_to(self, module: ModuleSource) -> bool:
        return _in_repro_package(module)

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        tree = module.tree
        declared: list[str] | None = None
        all_node: ast.AST = tree
        top_level: set[str] = set()
        public_defs: dict[str, ast.AST] = {}
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                top_level.add(stmt.name)
                if not stmt.name.startswith("_"):
                    public_defs[stmt.name] = stmt
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        top_level.add(target.id)
                        if target.id == "__all__":
                            declared = self._literal_names(stmt.value)
                            all_node = stmt
            elif isinstance(stmt, ast.AnnAssign):
                if isinstance(stmt.target, ast.Name):
                    top_level.add(stmt.target.id)
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    name = alias.asname or alias.name.split(".")[0]
                    top_level.add(name)

        if declared is None:
            if public_defs:
                names = ", ".join(sorted(public_defs))
                yield self.finding(
                    module, tree,
                    f"module defines public names ({names}) but has no "
                    "__all__")
            return
        # a module-level __getattr__ (PEP 562) can provide names lazily,
        # so "listed but not defined" cannot be decided statically
        has_module_getattr = "__getattr__" in top_level
        for name in declared:
            if has_module_getattr:
                break
            if name not in top_level:
                yield self.finding(
                    module, all_node,
                    f"__all__ lists `{name}` which is not defined at "
                    "module top level")
        for name, node in sorted(public_defs.items()):
            if name not in declared:
                yield self.finding(
                    module, node,
                    f"public `{name}` is missing from __all__")

    @staticmethod
    def _literal_names(value: ast.expr) -> list[str]:
        names: list[str] = []
        if isinstance(value, (ast.List, ast.Tuple)):
            for element in value.elts:
                if (isinstance(element, ast.Constant)
                        and isinstance(element.value, str)):
                    names.append(element.value)
        return names


# ------------------------------------------------------------------ D08

class PrintInLibraryCode(Rule):
    """Library code reports through telemetry/logging, never ``print``
    (nor unsanctioned file writes).

    ``print`` in the simulator or control plane interleaves with test
    output and cannot be captured by the analysis pipeline; silent file
    writes scatter run artifacts wherever the process happens to run. The
    CLI and the lint tool itself are the only sanctioned terminal writers;
    designated exporter modules (``repro.obs.export``,
    ``repro.analysis.export``, csv save helpers) suppress per line with a
    rationale — file output is their declared purpose and every path is
    caller-chosen.
    """

    rule_id = "D08"
    summary = "print()/file write in library code"

    #: ``open()`` mode characters that make the call a write
    _WRITE_MODE_CHARS = frozenset("wax+")
    _WRITE_METHODS = ("write_text", "write_bytes")

    def applies_to(self, module: ModuleSource) -> bool:
        if not _in_repro_package(module):
            return False
        parts = module.parts
        if parts[-1] == "cli.py" or "devtools" in parts:
            return False
        return True

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if (isinstance(node.func, ast.Name)
                    and node.func.id == "print"):
                yield self.finding(
                    module, node,
                    "print() in library code; return a string or use the "
                    "telemetry path")
            elif (isinstance(node.func, ast.Name)
                    and node.func.id == "open"
                    and self._opens_for_write(node)):
                yield self.finding(
                    module, node,
                    "file write in library code; route artifact output "
                    "through an exporter module (repro.obs.export / "
                    "repro.analysis.export) or suppress with a rationale")
            elif (isinstance(node.func, ast.Attribute)
                    and node.func.attr in self._WRITE_METHODS):
                yield self.finding(
                    module, node,
                    f".{node.func.attr}() in library code; route artifact "
                    f"output through an exporter module or suppress with "
                    f"a rationale")

    def _opens_for_write(self, node: ast.Call) -> bool:
        mode = None
        if len(node.args) >= 2:
            mode = node.args[1]
        else:
            for keyword in node.keywords:
                if keyword.arg == "mode":
                    mode = keyword.value
        if not (isinstance(mode, ast.Constant)
                and isinstance(mode.value, str)):
            return False   # no/odd mode: default "r", a read
        return bool(self._WRITE_MODE_CHARS.intersection(mode.value))


#: registry in rule-id order; the check instantiates from this list
ALL_RULES: tuple[type[Rule], ...] = (
    RandomnessOutsideRegistry,
    WallClockInSimulatedCode,
    UnsortedSetIteration,
    FloatTimestampEquality,
    MutableDefaultArgument,
    ModuleStateMutation,
    DunderAllConsistency,
    PrintInLibraryCode,
)
