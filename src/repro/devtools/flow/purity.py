"""Purity pass: per-function write-sets and read-only contracts (A01/A02).

For every project function the pass computes the set of object attributes
and module globals it may mutate — directly, or transitively through any
project function it can reach in the call graph. Write targets are
attributed to the owning *class* (``repro.sim.service.ReplicaPool.queue``)
or *module* (``repro.sim.request._IDS``), so a contract can be stated as
"code entered here must never write state owned by those packages" and
checked whole-program, which the per-line lints structurally cannot do.

Two contracts ship by default (see :data:`DEFAULT_PURITY_CONTRACTS`):

* **A01 obs-read-only** — nothing reachable from the observability
  layer's collection / scrape / SLO / diff entrypoints may write
  simulator, pool, gateway, WAN, mesh, or controller state. PR 3–4 only
  tested this empirically (byte-identical runs); here it is proved over
  the call graph.
* **A02 chaos-twin-isolation** — the chaos harness (which runs a faulted
  run and an unfaulted twin from the *same* scenario object) must never
  mutate the shared scenario, or twin comparisons would be confounded.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from ..findings import Finding, Severity
from .symbols import BUILTIN, FunctionInfo, SymbolTable, dotted_name

__all__ = ["DEFAULT_PURITY_CONTRACTS", "PurityContract", "WriteEffect",
           "WriteSets", "check_purity_contracts"]

#: attribute methods that mutate their receiver in place
_MUTATORS = frozenset({"append", "extend", "insert", "add", "update",
                       "setdefault", "pop", "popleft", "remove", "discard",
                       "clear", "appendleft", "sort", "reverse",
                       "__setitem__", "__delitem__"})

#: like the symbol table's CHA cap, but for attributing untyped writes
_FIELD_CAP = 8


@dataclass(frozen=True, order=True)
class WriteEffect:
    """One potential mutation, attributed to the state's owner."""

    kind: str     # "attr" (class field) | "global" (module global)
    owner: str    # class qualname or module dotted name
    attr: str     # field / global name
    module: str   # module containing the write (for reporting)
    line: int

    def target(self) -> str:
        return f"{self.owner}.{self.attr}"


@dataclass(frozen=True)
class PurityContract:
    """A read-only contract: entrypoints vs. forbidden state owners."""

    name: str
    rule: str                       # finding rule id (A01, A02)
    entry_modules: tuple[str, ...]  # modules whose defs are entrypoints
    forbidden: tuple[str, ...]      # module prefixes whose state is off-limits
    description: str


DEFAULT_PURITY_CONTRACTS: tuple[PurityContract, ...] = (
    PurityContract(
        name="obs-read-only",
        rule="A01",
        entry_modules=("repro.obs.collect", "repro.obs.timeseries",
                       "repro.obs.slo", "repro.obs.alerts",
                       "repro.obs.diff", "repro.obs.analyzer",
                       "repro.obs.decisions", "repro.obs.provenance",
                       "repro.obs.reading", "repro.obs.forecast",
                       "repro.obs.anomaly", "repro.obs.config",
                       "repro.obs.metrics", "repro.obs.profiler"),
        forbidden=("repro.sim", "repro.mesh", "repro.core",
                   "repro.baselines", "repro.experiments", "repro.chaos"),
        description=("observability collection/scrape/SLO/diff code must "
                     "never write simulator, mesh, or controller state")),
    PurityContract(
        name="chaos-twin-isolation",
        rule="A02",
        entry_modules=("repro.chaos.harness", "repro.chaos.report"),
        forbidden=("repro.experiments.scenarios",
                   "repro.experiments.harness"),
        description=("the chaos harness shares one scenario object between "
                     "the faulted run and its unfaulted twin; neither may "
                     "mutate it")),
)


def _owner_matches(owner: str, prefixes: tuple[str, ...]) -> bool:
    return any(owner == prefix or owner.startswith(prefix + ".")
               for prefix in prefixes)


#: summary fixpoint rounds — call-graph depth is far below this
_MAX_ROUNDS = 50

#: witness paths are truncated past this many hops
_PATH_CAP = 12


class WriteSets:
    """Direct and transitive write-sets over the resolved call graph.

    Effects are tracked with a *self-rooted* flag: a write whose receiver
    is the method's own ``self`` only escapes to a caller when the caller
    invoked the method on an object that outlives the call. Calls on
    freshly constructed objects (``RuleSet()`` then ``.add(...)``, or a
    classmethod's ``cls(...)``) keep their self-rooted effects internal —
    mutating an object you just built is not an observable side effect.
    """

    def __init__(self, symbols: SymbolTable) -> None:
        self.symbols = symbols
        #: per function: effect → is the write rooted at the method's self
        self._direct_rooted: dict[str, dict[WriteEffect, bool]] = {}
        #: per function: (callee qualname, edge category) pairs
        self._edges: dict[str, list[tuple[str, str]]] = {}
        self._module_globals: dict[str, frozenset[str]] = {}
        self._summaries: dict[
            str, dict[tuple[WriteEffect, bool], tuple[str, ...]]] | None \
            = None

    # -------------------------------------------------------- direct layer

    def direct_effects(self, func: FunctionInfo) -> frozenset[WriteEffect]:
        return frozenset(self._direct_with_roots(func))

    def _direct_with_roots(self, func: FunctionInfo
                           ) -> dict[WriteEffect, bool]:
        cached = self._direct_rooted.get(func.qualname)
        if cached is None:
            cached = {}
            for effect, rooted in self._scan(func):
                # an effect seen both rooted and unrooted escapes
                cached[effect] = cached.get(effect, True) and rooted
            self._direct_rooted[func.qualname] = cached
        return cached

    def _globals_of(self, module: str) -> frozenset[str]:
        cached = self._module_globals.get(module)
        if cached is None:
            names: set[str] = set()
            project_module = self.symbols.project.modules.get(module)
            if project_module is not None:
                for stmt in project_module.tree.body:
                    if isinstance(stmt, ast.Assign):
                        names.update(t.id for t in stmt.targets
                                     if isinstance(t, ast.Name))
                    elif (isinstance(stmt, ast.AnnAssign)
                          and isinstance(stmt.target, ast.Name)):
                        names.add(stmt.target.id)
            cached = frozenset(names)
            self._module_globals[module] = cached
        return cached

    @staticmethod
    def _receiver_root(expr: ast.expr) -> str | None:
        """The root name of an attribute/subscript chain, if any."""
        while isinstance(expr, (ast.Attribute, ast.Subscript)):
            expr = expr.value
        return expr.id if isinstance(expr, ast.Name) else None

    def _is_self_rooted(self, func: FunctionInfo, expr: ast.expr) -> bool:
        return (func.cls is not None
                and self._receiver_root(expr) == "self")

    def _scan(self, func: FunctionInfo
              ) -> Iterator[tuple[WriteEffect, bool]]:
        env = self.symbols.local_types(func)
        module_globals = self._globals_of(func.module)
        fresh = self._fresh_locals(func)
        for node in ast.walk(func.node):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    yield from self._effects_of_store(func, env, target,
                                                      node.lineno, fresh)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    yield from self._effects_of_store(func, env, target,
                                                      node.lineno, fresh)
            elif isinstance(node, ast.Global):
                for name in node.names:
                    yield WriteEffect(kind="global", owner=func.module,
                                      attr=name, module=func.module,
                                      line=node.lineno), False
            elif isinstance(node, ast.Call):
                yield from self._effects_of_mutator(func, env, node,
                                                   module_globals, fresh)

    def _effects_of_store(self, func: FunctionInfo,
                          env: dict[str, frozenset[str]],
                          target: ast.expr,
                          line: int,
                          fresh: frozenset[str] = frozenset()
                          ) -> Iterator[tuple[WriteEffect, bool]]:
        # unwrap subscript stores: `recv.attr[k] = v` mutates recv.attr
        was_subscript = False
        while isinstance(target, ast.Subscript):
            was_subscript = True
            target = target.value
        if isinstance(target, ast.Name):
            # a bare-name store rebinds a local (the module-global case
            # needs `global`, reported separately); a subscript store on
            # a module-level name mutates the global in place
            if was_subscript and target.id in self._globals_of(func.module):
                yield WriteEffect(kind="global", owner=func.module,
                                  attr=target.id, module=func.module,
                                  line=line), False
            return
        if not isinstance(target, ast.Attribute):
            return
        yield from self._attribute_effects(func, env, target, line, fresh)

    def _attribute_effects(self, func: FunctionInfo,
                           env: dict[str, frozenset[str]],
                           target: ast.Attribute,
                           line: int,
                           fresh: frozenset[str] = frozenset()
                           ) -> Iterator[tuple[WriteEffect, bool]]:
        if self._receiver_root(target) in fresh:
            return   # writing an object that dies with this function
        owners = self.symbols.expr_types(func, target.value, env)
        owners = owners - {BUILTIN}
        rooted = self._is_self_rooted(func, target)
        if not owners:
            # untyped receiver: attribute the write to every project
            # class declaring a field with this name, capped
            owners = self.symbols.classes_with_field(target.attr)
            if not owners or len(owners) > _FIELD_CAP:
                return
        for owner in sorted(owners):
            yield WriteEffect(kind="attr", owner=owner, attr=target.attr,
                              module=func.module, line=line), rooted

    def _effects_of_mutator(self, func: FunctionInfo,
                            env: dict[str, frozenset[str]],
                            node: ast.Call,
                            module_globals: frozenset[str],
                            fresh: frozenset[str] = frozenset()
                            ) -> Iterator[tuple[WriteEffect, bool]]:
        callee = node.func
        if not isinstance(callee, ast.Attribute):
            # `next(_COUNTER)` on a module-level iterator
            if (isinstance(callee, ast.Name) and callee.id == "next"
                    and len(node.args) == 1
                    and isinstance(node.args[0], ast.Name)
                    and node.args[0].id in module_globals):
                yield WriteEffect(kind="global", owner=func.module,
                                  attr=node.args[0].id, module=func.module,
                                  line=node.lineno), False
            return
        if callee.attr not in _MUTATORS:
            return
        receiver = callee.value
        if isinstance(receiver, ast.Name):
            if receiver.id in fresh:
                return
            if receiver.id in module_globals:
                yield WriteEffect(kind="global", owner=func.module,
                                  attr=receiver.id, module=func.module,
                                  line=node.lineno), False
                return
            types = env.get(receiver.id, frozenset())
            if types == frozenset({BUILTIN}) or not types:
                # locally constructed container, or an untyped local /
                # parameter: mutating it is the caller's business only
                # when it was constructed here; for untyped names we
                # cannot attribute an owner, so stay silent
                return
            for owner in sorted(types - {BUILTIN}):
                yield WriteEffect(kind="attr", owner=owner,
                                  attr="<container>", module=func.module,
                                  line=node.lineno), False
            return
        if isinstance(receiver, ast.Attribute):
            # `recv.attr.append(...)` mutates the `attr` field of recv
            yield from self._attribute_effects(func, env, receiver,
                                               node.lineno, fresh)

    # ---------------------------------------------------- transitive layer

    def _fresh_locals(self, func: FunctionInfo) -> frozenset[str]:
        """Locals that provably hold objects no one else can see.

        A name qualifies when every assignment to it is a fresh
        construction *and* the object never escapes — it is not
        returned, yielded, passed as an argument, stored into another
        object, or aliased. Mutating such an object is invisible to
        callers.
        """
        params = set(func.param_names())
        fresh: set[str] = set()
        tainted: set[str] = set()
        for node in ast.walk(func.node):
            if isinstance(node, ast.Assign) and node.targets:
                names = [t.id for t in node.targets
                         if isinstance(t, ast.Name)]
                if len(names) != len(node.targets):
                    # `x = self.field[k] = C()` — x aliases an escapee
                    tainted.update(names)
                    continue
                value = node.value
            elif (isinstance(node, ast.AnnAssign)
                    and isinstance(node.target, ast.Name)
                    and node.value is not None):
                names, value = [node.target.id], node.value
            elif isinstance(node, (ast.For, ast.AsyncFor, ast.withitem,
                                   ast.NamedExpr)):
                # loop / with / walrus targets bind pre-existing objects
                target = getattr(node, "target",
                                 getattr(node, "optional_vars", None))
                for sub in ast.walk(target) if target is not None else ():
                    if isinstance(sub, ast.Name):
                        tainted.add(sub.id)
                continue
            else:
                continue
            if self._is_fresh_value(func, value):
                fresh.update(names)
            else:
                tainted.update(names)
        candidates = fresh - tainted - params
        if candidates:
            candidates -= self._escaped_names(func, candidates)
        return frozenset(candidates)

    @staticmethod
    def _escaped_names(func: FunctionInfo,
                       candidates: set[str]) -> set[str]:
        """Candidates whose value is used beyond receiver position."""
        parents: dict[ast.AST, ast.AST] = {}
        for node in ast.walk(func.node):
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        escaped: set[str] = set()
        for node in ast.walk(func.node):
            if (not isinstance(node, ast.Name)
                    or node.id not in candidates
                    or not isinstance(node.ctx, ast.Load)):
                continue
            parent = parents.get(node)
            # benign: receiver of `x.method(...)`, attribute or subscript
            # access on x (read or write), identity comparisons — none of
            # these leak the object itself
            if isinstance(parent, ast.Attribute):
                continue
            if isinstance(parent, ast.Subscript) and parent.value is node:
                continue
            if isinstance(parent, ast.Compare):
                continue
            escaped.add(node.id)
        return escaped

    def _is_fresh_value(self, func: FunctionInfo, value: ast.expr) -> bool:
        if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.Tuple,
                              ast.ListComp, ast.DictComp, ast.SetComp,
                              ast.Constant, ast.JoinedStr)):
            return True
        if not isinstance(value, ast.Call):
            return False
        dotted = dotted_name(value.func)
        if dotted is None:
            return False
        if dotted == "cls" and func.cls is not None:
            return True
        resolved = self.symbols._resolve_dotted_symbol(func.module, dotted)
        return resolved is not None and resolved in self.symbols.classes

    def _edge_categories(self, func: FunctionInfo
                         ) -> list[tuple[str, str]]:
        """(callee, category) call edges: how self-rooted effects cross.

        * ``new``    — constructor call: the receiver is brand new
        * ``fresh``  — method call on a local built here from a constructor
        * ``self``   — ``self.method()``: stays rooted at our own self
        * ``escape`` — anything else: the write hits a shared object
        """
        cached = self._edges.get(func.qualname)
        if cached is not None:
            return cached
        fresh = self._fresh_locals(func)
        pairs: set[tuple[str, str]] = set()
        for node, callees in self.symbols.call_edges(func):
            category = self._categorize(func, node, fresh)
            pairs.update((c.qualname, category) for c in callees)
        cached = sorted(pairs)
        self._edges[func.qualname] = cached
        return cached

    def _categorize(self, func: FunctionInfo, node: ast.Call,
                    fresh: frozenset[str]) -> str:
        callee = node.func
        if isinstance(callee, ast.Name):
            if callee.id == "cls" and func.cls is not None:
                return "new"
            binding = self.symbols.bindings.get(func.module,
                                                {}).get(callee.id)
            if (binding is not None and binding[0] == "symbol"
                    and binding[1] in self.symbols.classes):
                return "new"
            return "escape"
        if not isinstance(callee, ast.Attribute):
            return "escape"
        dotted = dotted_name(callee)
        if dotted is not None:
            resolved = self.symbols._resolve_dotted_symbol(func.module,
                                                           dotted)
            if resolved is not None and resolved in self.symbols.classes:
                return "new"
        receiver = callee.value
        if isinstance(receiver, ast.Name):
            if receiver.id == "self" and func.cls is not None:
                return "self"
            if receiver.id in fresh:
                return "fresh"
        return "escape"

    def _all_summaries(self) -> dict[
            str, dict[tuple[WriteEffect, bool], tuple[str, ...]]]:
        """Fixpoint: transitive (effect, rooted) → witness path, per func."""
        if self._summaries is not None:
            return self._summaries
        functions = self.symbols.functions
        order = sorted(functions)
        summaries: dict[
            str, dict[tuple[WriteEffect, bool], tuple[str, ...]]] = {}
        for qualname in order:
            func = functions[qualname]
            summaries[qualname] = {
                (effect, rooted): (qualname,)
                for effect, rooted
                in self._direct_with_roots(func).items()}
        for _ in range(_MAX_ROUNDS):
            changed = False
            for qualname in order:
                mine = summaries[qualname]
                for callee, category in self._edge_categories(
                        functions[qualname]):
                    theirs = summaries.get(callee)
                    if not theirs:
                        continue
                    # list(): `theirs` is `mine` on self-recursive calls
                    for (effect, rooted), path in list(theirs.items()):
                        if rooted and category in ("new", "fresh"):
                            continue   # the written object dies with us
                        key = (effect, rooted and category == "self")
                        if key not in mine:
                            mine[key] = ((qualname,) + path)[:_PATH_CAP]
                            changed = True
            if not changed:
                break
        self._summaries = summaries
        return summaries

    def reachable_effects(self, entry: FunctionInfo
                          ) -> dict[WriteEffect, tuple[str, ...]]:
        """Transitive write-set of ``entry`` with one witness path each.

        Returns ``{effect: (entry qualname, ..., writer qualname)}``.
        A contract entrypoint is invoked on long-lived objects, so its
        own self-rooted effects count as real writes here.
        """
        summary = self._all_summaries().get(entry.qualname, {})
        effects: dict[WriteEffect, tuple[str, ...]] = {}
        for (effect, _rooted), path in sorted(
                summary.items(), key=lambda item: (item[0][0], item[1])):
            if effect not in effects or len(path) < len(effects[effect]):
                effects[effect] = path
        return effects


def _contract_entries(symbols: SymbolTable,
                      contract: PurityContract) -> list[FunctionInfo]:
    """Public defs (functions + methods of public classes) of the entry
    modules, in deterministic order."""
    entries: list[FunctionInfo] = []
    for qualname in sorted(symbols.functions):
        func = symbols.functions[qualname]
        if func.module not in contract.entry_modules:
            continue
        if func.name.startswith("_") and func.name != "__init__":
            continue
        if func.cls is not None:
            cls_name = func.cls.rsplit(".", 1)[-1]
            if cls_name.startswith("_"):
                continue
        entries.append(func)
    return entries


def check_purity_contracts(
        symbols: SymbolTable,
        contracts: tuple[PurityContract, ...] = DEFAULT_PURITY_CONTRACTS,
        write_sets: WriteSets | None = None) -> list[Finding]:
    """Check every contract; one finding per (entrypoint, written target)."""
    write_sets = write_sets or WriteSets(symbols)
    findings: list[Finding] = []
    for contract in contracts:
        for entry in _contract_entries(symbols, contract):
            module = symbols.project.modules.get(entry.module)
            if module is None:
                continue
            effects = write_sets.reachable_effects(entry)
            seen_targets: set[str] = set()
            for effect in sorted(effects):
                if not _owner_matches(effect.owner, contract.forbidden):
                    continue
                if effect.target() in seen_targets:
                    continue
                seen_targets.add(effect.target())
                path = effects[effect]
                witness = (" -> ".join(path) if len(path) > 1
                           else path[0])
                findings.append(Finding(
                    path=module.path, line=entry.lineno, col=0,
                    rule=contract.rule, severity=Severity.ERROR,
                    message=(f"[{contract.name}] `{entry.qualname}` may "
                             f"write `{effect.target()}` via {witness}; "
                             f"{contract.description}")))
    return findings
