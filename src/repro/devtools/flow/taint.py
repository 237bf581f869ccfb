"""Determinism taint pass (A03): nondeterminism sources → sim-visible sinks.

The per-line lints (D01–D03) catch a wall-clock read *in* simulated code.
What they structurally cannot catch is a helper in an unrestricted module
returning ``time.time()`` and a restricted module scheduling an event at
that value three calls later. This pass tracks nondeterminism as *taint*:

* **sources** — wall clocks, unseeded/os randomness, environment reads,
  process identity (``id()`` / ``hash()`` / ``os.getpid()``), and
  completion-order iteration (``as_completed`` / ``imap_unordered`` —
  the pickling boundary in :mod:`repro.experiments.parallel`);
* **summaries** — per function, whether its return value carries taint
  and which parameters flow through to the return, iterated to fixpoint
  over the call graph; values stored into object fields carry their
  taint to every later read of that field (that is the cross-module
  channel);
* **sinks** — event scheduling, the RNG registry seed, routing-weight
  installation, and result export (see :data:`DEFAULT_SINKS`).

A finding fires at the call site where a tainted value enters a sink,
naming the source kinds so the reader can trace the flow.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable

from ..findings import Finding, Severity
from .symbols import FunctionInfo, SymbolTable, dotted_name

__all__ = ["DEFAULT_SINKS", "TaintAnalysis", "TaintSink", "check_taint"]

#: fixpoint guard: summaries stabilize in 2–4 rounds on this tree
_MAX_ROUNDS = 12

#: dotted-call suffixes that *produce* nondeterminism, by kind
_SOURCE_SUFFIXES: dict[str, str] = {
    "time.time": "wall-clock", "time.time_ns": "wall-clock",
    "time.monotonic": "wall-clock", "time.monotonic_ns": "wall-clock",
    "time.perf_counter": "wall-clock",
    "time.perf_counter_ns": "wall-clock",
    "time.process_time": "wall-clock",
    "time.process_time_ns": "wall-clock",
    "datetime.now": "wall-clock", "datetime.utcnow": "wall-clock",
    "datetime.today": "wall-clock", "date.today": "wall-clock",
    "os.urandom": "os-randomness", "uuid.uuid1": "os-randomness",
    "uuid.uuid4": "os-randomness",
    "os.getenv": "env-read", "environ.get": "env-read",
    "os.getpid": "process-identity",
}

_SOURCE_PREFIXES: dict[str, str] = {
    "random.": "unseeded-randomness",
    "secrets.": "os-randomness",
}

#: called bare: builtins whose value depends on the process, not the seed
_SOURCE_BARE = {"id": "process-identity", "hash": "hash-seed"}

#: completion-order iteration — nondeterministic across the pickling
#: boundary even when every task is deterministic
_SOURCE_NAMES = {"as_completed": "completion-order",
                 "imap_unordered": "completion-order"}


@dataclass(frozen=True, order=True)
class TaintSink:
    """One sim-visible sink: a resolved project function."""

    qualname: str
    description: str


DEFAULT_SINKS: tuple[TaintSink, ...] = (
    TaintSink("repro.sim.engine.Simulator.schedule",
              "event scheduling"),
    TaintSink("repro.sim.engine.Simulator.schedule_at",
              "event scheduling"),
    TaintSink("repro.sim.engine.Simulator.schedule_periodic",
              "event scheduling"),
    TaintSink("repro.sim.engine.Simulator.schedule_cancellable",
              "event scheduling"),
    TaintSink("repro.sim.engine.Simulator.schedule_at_cancellable",
              "event scheduling"),
    TaintSink("repro.sim.rng.RngRegistry.__init__",
              "RNG registry seed"),
    TaintSink("repro.sim.rng.RngRegistry.stream",
              "RNG stream selection"),
    TaintSink("repro.mesh.routing_table.RoutingTable.set_weights",
              "routing-weight installation"),
    TaintSink("repro.mesh.routing_table.RoutingTable.install",
              "routing-weight installation"),
    TaintSink("repro.core.rules.RoutingRule.make",
              "routing-rule construction"),
)


@dataclass
class _Value:
    """Abstract value: taint kinds plus parameter provenance."""

    kinds: frozenset[str] = frozenset()
    params: frozenset[int] = frozenset()

    def __or__(self, other: "_Value") -> "_Value":
        return _Value(self.kinds | other.kinds, self.params | other.params)


_CLEAN = _Value()


@dataclass
class _Summary:
    """Interprocedural summary of one function."""

    returns: frozenset[str] = frozenset()      # kinds in the return value
    param_flow: frozenset[int] = frozenset()   # params flowing to return

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, _Summary)
                and self.returns == other.returns
                and self.param_flow == other.param_flow)


def _source_kind_of_call(dotted: str | None, node: ast.Call) -> str | None:
    """Taint kind a call expression produces, if any."""
    if dotted is None:
        return None
    segments = dotted.split(".")
    if len(segments) == 1 and dotted in _SOURCE_BARE:
        return _SOURCE_BARE[dotted]
    if segments[-1] in _SOURCE_NAMES:
        return _SOURCE_NAMES[segments[-1]]
    for suffix, kind in _SOURCE_SUFFIXES.items():
        parts = suffix.split(".")
        if segments[-len(parts):] == parts:
            return kind
    if segments[0] in ("np", "numpy") and len(segments) >= 2 \
            and segments[1] == "random":
        if segments[-1] == "default_rng" and (node.args or node.keywords):
            return None   # explicitly seeded: deterministic
        return "unseeded-randomness"
    for prefix, kind in _SOURCE_PREFIXES.items():
        if dotted.startswith(prefix):
            return kind
    return None


class TaintAnalysis:
    """Fixpoint taint summaries plus the sink check."""

    def __init__(self, symbols: SymbolTable,
                 sinks: Iterable[TaintSink] = DEFAULT_SINKS) -> None:
        self.symbols = symbols
        self.sinks = {s.qualname: s for s in sinks}
        self.summaries: dict[str, _Summary] = {}
        #: (class qualname, field) → kinds; "*" class for untyped stores
        self.field_taint: dict[tuple[str, str], frozenset[str]] = {}
        self._solve()

    # ------------------------------------------------------------ fixpoint

    def _solve(self) -> None:
        order = sorted(self.symbols.functions)
        for qualname in order:
            self.summaries[qualname] = _Summary()
        for _ in range(_MAX_ROUNDS):
            changed = False
            for qualname in order:
                func = self.symbols.functions[qualname]
                summary = self._analyze(func, check_sinks=False)
                if summary != self.summaries[qualname]:
                    self.summaries[qualname] = summary
                    changed = True
            if not changed:
                break

    def sink_findings(self) -> list[Finding]:
        findings: list[Finding] = []
        for qualname in sorted(self.symbols.functions):
            func = self.symbols.functions[qualname]
            module = self.symbols.project.modules.get(func.module)
            if module is None:
                continue
            self._analyze(func, check_sinks=True,
                          findings=findings, path=module.path)
        return sorted(set(findings), key=lambda f: (f.path, f.line, f.col,
                                                    f.rule, f.message))

    # --------------------------------------------------- one-function walk

    def _analyze(self, func: FunctionInfo, *, check_sinks: bool,
                 findings: list[Finding] | None = None,
                 path: str | None = None) -> _Summary:
        env: dict[str, _Value] = {}
        params = func.param_names()
        for index, name in enumerate(params):
            env[name] = _Value(params=frozenset({index}))
        state = {"returns": frozenset(), "param_flow": frozenset()}
        type_env = self.symbols.local_types(func)

        def eval_expr(node: ast.expr) -> _Value:
            if isinstance(node, ast.Name):
                return env.get(node.id, _CLEAN)
            if isinstance(node, ast.Call):
                return eval_call(node)
            if isinstance(node, ast.Attribute):
                base = eval_expr(node.value)
                kinds = set(base.kinds)
                # field reads pick up whatever any store put there
                owners = self.symbols.expr_types(func, node.value, type_env)
                hit_typed = False
                for owner in owners:
                    stored = self.field_taint.get((owner, node.attr))
                    if stored:
                        kinds.update(stored)
                        hit_typed = True
                if not hit_typed and not owners:
                    stored = self.field_taint.get(("*", node.attr))
                    if stored:
                        kinds.update(stored)
                return _Value(frozenset(kinds), base.params)
            if isinstance(node, ast.Subscript):
                value = eval_expr(node.value)
                if isinstance(node.slice, ast.expr):
                    value = value | eval_expr(node.slice)
                # os.environ[...] is an env read
                dotted = dotted_name(node.value)
                if dotted is not None and dotted.endswith("environ"):
                    value = value | _Value(frozenset({"env-read"}))
                return value
            if isinstance(node, (ast.BinOp, ast.BoolOp, ast.Compare,
                                 ast.UnaryOp, ast.IfExp, ast.Tuple,
                                 ast.List, ast.Set, ast.Dict, ast.Starred,
                                 ast.JoinedStr, ast.FormattedValue,
                                 ast.ListComp, ast.SetComp, ast.DictComp,
                                 ast.GeneratorExp, ast.Await, ast.Lambda,
                                 ast.NamedExpr, ast.Slice)):
                out = _CLEAN
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, ast.expr):
                        out = out | eval_expr(child)
                    elif isinstance(child, ast.comprehension):
                        out = out | eval_expr(child.iter)
                return out
            return _CLEAN

        def eval_call(node: ast.Call) -> _Value:
            arg_values = [eval_expr(a) for a in node.args]
            arg_values.extend(eval_expr(k.value) for k in node.keywords)
            dotted = dotted_name(node.func)
            kind = _source_kind_of_call(dotted, node)
            out = _Value()
            if kind is not None:
                out = out | _Value(frozenset({kind}))
            callees = self.symbols.resolve_call(func, node, type_env)
            if callees:
                for callee in callees:
                    summary = self.summaries.get(callee.qualname,
                                                 _Summary())
                    out = out | _Value(kinds=summary.returns)
                    # positional mapping is approximate: methods (and
                    # constructors) shift by the implicit self, so map by
                    # position over the explicit args (good enough for
                    # flow detection)
                    offset = 1 if callee.cls is not None else 0
                    for param_index in summary.param_flow:
                        arg_index = param_index - offset
                        if 0 <= arg_index < len(arg_values):
                            out = out | arg_values[arg_index]
                if check_sinks and findings is not None:
                    for callee in callees:
                        sink = self.sinks.get(callee.qualname)
                        if sink is None:
                            continue
                        tainted = [v for v in arg_values if v.kinds]
                        if tainted:
                            kinds = sorted(set().union(
                                *(v.kinds for v in tainted)))
                            findings.append(Finding(
                                path=path or "", line=node.lineno,
                                col=node.col_offset, rule="A03",
                                severity=Severity.ERROR,
                                message=(f"nondeterminism "
                                         f"({', '.join(kinds)}) flows into "
                                         f"{sink.description} sink "
                                         f"`{sink.qualname}` from "
                                         f"`{func.qualname}`")))
            else:
                # unresolved (builtin/stdlib) call: conservatively pass
                # argument taint through the result
                for value in arg_values:
                    out = out | value
            # a tainted receiver taints method-call results
            if isinstance(node.func, ast.Attribute):
                out = out | eval_expr(node.func.value)
            return out

        def assign(target: ast.expr, value: _Value) -> None:
            if isinstance(target, ast.Name):
                env[target.id] = env.get(target.id, _CLEAN) | value
            elif isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    assign(element, value)
            elif isinstance(target, ast.Starred):
                assign(target.value, value)
            elif isinstance(target, ast.Attribute):
                if not value.kinds:
                    return
                owners = self.symbols.expr_types(func, target.value,
                                                 type_env)
                keys = ([(owner, target.attr) for owner in sorted(owners)]
                        or [("*", target.attr)])
                for key in keys:
                    merged = self.field_taint.get(key,
                                                  frozenset()) | value.kinds
                    if merged != self.field_taint.get(key):
                        self.field_taint[key] = merged
            elif isinstance(target, ast.Subscript):
                assign(target.value, value)

        def walk(stmts: list[ast.stmt]) -> None:
            for stmt in stmts:
                if isinstance(stmt, ast.Assign):
                    value = eval_expr(stmt.value)
                    for target in stmt.targets:
                        assign(target, value)
                elif isinstance(stmt, ast.AnnAssign):
                    if stmt.value is not None:
                        assign(stmt.target, eval_expr(stmt.value))
                elif isinstance(stmt, ast.AugAssign):
                    assign(stmt.target,
                           eval_expr(stmt.value) | eval_expr(stmt.target))
                elif isinstance(stmt, ast.Return):
                    if stmt.value is not None:
                        value = eval_expr(stmt.value)
                        state["returns"] = state["returns"] | value.kinds
                        state["param_flow"] = (state["param_flow"]
                                               | value.params)
                elif isinstance(stmt, ast.Expr):
                    eval_expr(stmt.value)
                elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                    assign(stmt.target, eval_expr(stmt.iter))
                    # two passes pick up loop-carried taint
                    walk(stmt.body)
                    walk(stmt.body)
                    walk(stmt.orelse)
                elif isinstance(stmt, ast.While):
                    eval_expr(stmt.test)
                    walk(stmt.body)
                    walk(stmt.body)
                    walk(stmt.orelse)
                elif isinstance(stmt, ast.If):
                    eval_expr(stmt.test)
                    walk(stmt.body)
                    walk(stmt.orelse)
                elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                    for item in stmt.items:
                        value = eval_expr(item.context_expr)
                        if item.optional_vars is not None:
                            assign(item.optional_vars, value)
                    walk(stmt.body)
                elif isinstance(stmt, ast.Try):
                    walk(stmt.body)
                    for handler in stmt.handlers:
                        walk(handler.body)
                    walk(stmt.orelse)
                    walk(stmt.finalbody)
                elif isinstance(stmt, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                    # nested defs (epoch hooks): their body runs with the
                    # enclosing locals; fold it in for flow purposes
                    walk(stmt.body)
                elif isinstance(stmt, (ast.Raise, ast.Assert)):
                    for child in ast.iter_child_nodes(stmt):
                        if isinstance(child, ast.expr):
                            eval_expr(child)

        walk(func.node.body)
        return _Summary(returns=frozenset(state["returns"]),
                        param_flow=frozenset(state["param_flow"]))


def check_taint(symbols: SymbolTable,
                sinks: Iterable[TaintSink] = DEFAULT_SINKS
                ) -> list[Finding]:
    """Run the taint pass and return its A03 findings."""
    return TaintAnalysis(symbols, sinks).sink_findings()
