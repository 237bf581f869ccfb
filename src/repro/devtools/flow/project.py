"""Whole-program parse: the project's module set and import graph.

A :class:`Project` parses every ``*.py`` under one or more roots exactly
once and derives, for each module, its dotted name (``repro.sim.engine``),
its AST, and its imports of *other project modules*. Import edges
distinguish eager (module/class body) from deferred (function body)
imports, because the layering contracts treat them differently and only
eager edges can participate in import cycles.

Everything downstream — the file-local lint rules, the call graph, the
purity and taint passes, the architecture contracts — works off this one
parse.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path, PurePosixPath
from typing import Callable, Iterable, Iterator

from ..rules import ModuleSource

__all__ = ["ImportEdge", "Project", "ProjectModule", "import_cycles"]

_SKIP_DIRS = frozenset({"__pycache__", ".git", ".pytest_cache",
                        ".hypothesis", "build", "dist"})


@dataclass(frozen=True, order=True)
class ImportEdge:
    """One project-internal import: ``src`` imports ``dst``."""

    src: str        # importing module (dotted name)
    dst: str        # imported project module (dotted name)
    line: int
    deferred: bool  # inside a function body (lazy import)


@dataclass(frozen=True)
class ProjectModule(ModuleSource):
    """One parsed module of the analyzed package.

    Files that are *not* part of the package — tests, examples,
    benchmarks — stay plain :class:`~repro.devtools.rules.ModuleSource`
    consumers: their references keep public API alive, but the flow
    passes raise no findings on them.
    """

    name: str         # dotted module name, e.g. "repro.sim.engine"
    is_package: bool  # True for __init__.py


def _norm(path: str | Path) -> str:
    return str(path).replace("\\", "/")


def _module_name(path: str, is_package_dir: Callable[[str], bool]) -> str:
    """Dotted module name for ``path``, ascending while parents are packages."""
    pure = PurePosixPath(_norm(path))
    if pure.name == "__init__.py":
        parts = [pure.parent.name]
        cursor = pure.parent.parent
    else:
        parts = [pure.stem]
        cursor = pure.parent
    while cursor.name and is_package_dir(str(cursor)):
        parts.append(cursor.name)
        cursor = cursor.parent
    return ".".join(reversed(parts))


def _parse(source: str, path: str,
           parse_errors: list[tuple[str, str]]) -> ast.Module | None:
    try:
        return ast.parse(source, filename=path)
    except SyntaxError as exc:
        parse_errors.append((path, str(exc)))
        return None


def _python_files(root: Path) -> list[Path]:
    files = [root] if root.is_file() else sorted(root.rglob("*.py"))
    return [f for f in files if not _SKIP_DIRS.intersection(f.parts)]


class Project:
    """The parsed module set of one package tree plus its consumer files."""

    def __init__(self, modules: dict[str, ProjectModule],
                 consumers: list[ModuleSource] | None = None,
                 parse_errors: list[tuple[str, str]] | None = None) -> None:
        self.modules = modules
        self.consumers = consumers or []
        #: files that failed to parse: (path, message)
        self.parse_errors = parse_errors or []
        self._edges: list[ImportEdge] | None = None

    # ------------------------------------------------------------ loading

    @classmethod
    def load(cls, roots: Iterable[str | Path],
             consumer_roots: Iterable[str | Path] = ()) -> "Project":
        """Read and parse every ``*.py`` under ``roots`` into project modules.

        ``consumer_roots`` (tests, examples, benchmarks) are parsed too;
        the flow passes only record their references (dead-public-API
        detection), the file-local lint rules check them like any file.
        """
        sources: dict[str, str] = {}
        for root in roots:
            root_path = Path(root)
            if not root_path.exists():
                raise FileNotFoundError(
                    f"no such file or directory: {root}")
            for candidate in _python_files(root_path):
                sources[str(candidate)] = candidate.read_text(
                    encoding="utf-8")
        consumer_sources: dict[str, str] = {}
        for root in consumer_roots:
            for candidate in _python_files(Path(root)):
                consumer_sources[str(candidate)] = candidate.read_text(
                    encoding="utf-8")
        return cls._parse_all(sources, consumer_sources, lambda directory: (
            Path(directory) / "__init__.py").exists())

    @classmethod
    def from_sources(cls, sources: dict[str, str],
                     consumer_sources: dict[str, str] | None = None
                     ) -> "Project":
        """Build a project from in-memory ``{path: source}`` (fixtures)."""
        paths = {_norm(p) for p in sources}
        return cls._parse_all(
            sources, consumer_sources or {},
            lambda directory: f"{_norm(directory)}/__init__.py" in paths)

    @classmethod
    def _parse_all(cls, sources: dict[str, str],
                   consumer_sources: dict[str, str],
                   is_package_dir: Callable[[str], bool]) -> "Project":
        modules: dict[str, ProjectModule] = {}
        consumers: list[ModuleSource] = []
        parse_errors: list[tuple[str, str]] = []
        for path in sorted(sources):
            tree = _parse(sources[path], path, parse_errors)
            if tree is not None:
                name = _module_name(path, is_package_dir)
                modules[name] = ProjectModule(
                    path=path, tree=tree, source=sources[path], name=name,
                    is_package=PurePosixPath(_norm(path)).name
                    == "__init__.py")
        for path in sorted(consumer_sources):
            tree = _parse(consumer_sources[path], path, parse_errors)
            if tree is not None:
                consumers.append(ModuleSource(
                    path=path, tree=tree, source=consumer_sources[path]))
        return cls(modules, consumers, parse_errors)

    def files(self) -> list[ModuleSource]:
        """Every parsed file: the package modules, then the consumers."""
        return [*self.modules.values(), *self.consumers]

    # ----------------------------------------------------------- accessors

    def sorted_modules(self) -> list[ProjectModule]:
        return [self.modules[name] for name in sorted(self.modules)]

    # -------------------------------------------------------- import graph

    @property
    def import_edges(self) -> list[ImportEdge]:
        """All project-internal import edges, sorted and deduplicated."""
        if self._edges is None:
            edges: set[ImportEdge] = set()
            for module in self.modules.values():
                edges.update(self._edges_of(module))
            self._edges = sorted(edges)
        return self._edges

    def _edges_of(self, module: ProjectModule) -> Iterator[ImportEdge]:
        for node, deferred in _walk_imports(module.tree):
            for target in self.resolve_import_targets(module, node):
                yield ImportEdge(src=module.name, dst=target,
                                 line=node.lineno, deferred=deferred)

    def resolve_import_targets(self, module: ProjectModule,
                               node: ast.Import | ast.ImportFrom
                               ) -> list[str]:
        """Project modules the import statement binds (sorted, deduped)."""
        targets: set[str] = set()
        if isinstance(node, ast.Import):
            for alias in node.names:
                hit = self._longest_module_prefix(alias.name)
                if hit is not None:
                    targets.add(hit)
        else:
            base = self.resolve_from_base(module, node)
            if base is not None:
                for alias in node.names:
                    if alias.name == "*":
                        if base in self.modules:
                            targets.add(base)
                        continue
                    child = f"{base}.{alias.name}"
                    if child in self.modules:
                        targets.add(child)
                    elif base in self.modules:
                        targets.add(base)
        return sorted(targets)

    def resolve_from_base(self, module: ProjectModule,
                          node: ast.ImportFrom) -> str | None:
        """Absolute dotted base of a ``from ... import`` statement."""
        if node.level == 0:
            return node.module
        parts = module.name.split(".")
        # for a plain module, level 1 is its parent package; for a
        # package __init__, level 1 is the package itself
        drop = node.level if not module.is_package else node.level - 1
        if drop >= len(parts) and not (module.is_package and drop == 0):
            return None
        base_parts = parts[:len(parts) - drop] if drop else parts
        if node.module:
            base_parts = base_parts + node.module.split(".")
        return ".".join(base_parts) if base_parts else None

    def _longest_module_prefix(self, dotted: str) -> str | None:
        parts = dotted.split(".")
        for end in range(len(parts), 0, -1):
            name = ".".join(parts[:end])
            if name in self.modules:
                return name
        return None


def _walk_imports(tree: ast.Module
                  ) -> Iterator[tuple[ast.Import | ast.ImportFrom, bool]]:
    """Yield every import with a flag for deferred ones.

    Imports inside function bodies and under ``if TYPE_CHECKING:`` guards
    never execute at module import time, so they cannot participate in an
    import cycle and are excluded from the eager import graph.
    """

    def visit(node: ast.AST, deferred: bool) -> Iterator:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                yield child, deferred
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.Lambda)):
                yield from visit(child, True)
            elif isinstance(child, ast.If) and _is_type_checking(child.test):
                yield from visit(child, True)
            else:
                yield from visit(child, deferred)

    yield from visit(tree, False)


def _is_type_checking(test: ast.expr) -> bool:
    """True for ``TYPE_CHECKING`` / ``typing.TYPE_CHECKING`` guards."""
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def import_cycles(project: Project) -> list[list[str]]:
    """Import cycles among eager edges, as sorted SCC member lists.

    Deferred (function-body) imports cannot deadlock module loading, so
    they are excluded; each returned cycle is the sorted module list of
    one strongly connected component with more than one member (or a
    self-loop).
    """
    graph: dict[str, set[str]] = {name: set() for name in project.modules}
    for edge in project.import_edges:
        if not edge.deferred and edge.src != edge.dst:
            graph[edge.src].add(edge.dst)

    # Tarjan's SCC, iterative to survive deep trees
    index_of: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = [0]

    def strongconnect(root: str) -> None:
        work = [(root, iter(sorted(graph[root])))]
        index_of[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, children = work[-1]
            advanced = False
            for child in children:
                if child not in index_of:
                    index_of[child] = low[child] = counter[0]
                    counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(sorted(graph[child]))))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index_of[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index_of[node]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    sccs.append(sorted(component))

    for name in sorted(graph):
        if name not in index_of:
            strongconnect(name)
    return sorted(sccs)
