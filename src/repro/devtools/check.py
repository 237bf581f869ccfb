"""The static check: determinism lint and flow analyzer over one parse.

Run over the tree with::

    PYTHONPATH=src python -m repro.devtools.check src

One :class:`~repro.devtools.flow.project.Project` load reads and parses
the package under the given roots plus their sibling ``tests``,
``examples`` and ``benchmarks`` directories. The file-local lint rules
(D01–D08, :mod:`repro.devtools.rules`) check every parsed file within
each rule's path scope; the whole-program passes (A01–A06,
:mod:`repro.devtools.flow`) check the package, with the other
directories parsed as its consumers. One suppression pass applies the
``# lint: ignore[...]`` markers of both families and flags every marker
that silences nothing as a ``SUP`` warning.

Human-readable output by default, ``--format json`` for machines,
``--report FILE`` for a CI artifact. Exits 1 when an error-severity
finding survives suppression or a file fails to parse, 2 on a usage
error. See ``docs/devtools.md`` for the rule catalogue.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from .findings import Finding, Severity, Suppressions
from .flow.analyzer import ANALYZER_RULES, FlowAnalyzer
from .flow.project import Project
from .rules import ALL_RULES

__all__ = ["CheckResult", "RULES", "build_parser", "load_project", "main",
           "run_check"]

#: every rule id the check knows, D-rules then A-passes, with its summary
RULES: dict[str, str] = {
    **{cls.rule_id: cls.summary for cls in ALL_RULES}, **ANALYZER_RULES}

#: consumer roots auto-discovered next to each package root
_CONSUMER_DIRS = ("tests", "examples", "benchmarks")


@dataclass
class CheckResult:
    """Everything one check produced."""

    findings: list[Finding] = field(default_factory=list)
    #: findings silenced by a suppression marker on their line
    suppressed: list[Finding] = field(default_factory=list)
    #: files that failed to parse: (path, message)
    parse_errors: list[tuple[str, str]] = field(default_factory=list)
    stats: dict[str, int] = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return bool(self.parse_errors) or any(
            f.severity is Severity.ERROR for f in self.findings)

    def as_dict(self) -> dict[str, Any]:
        return {
            "findings": [f.as_dict() for f in self.findings],
            "suppressed": [f.as_dict() for f in self.suppressed],
            "parse_errors": [{"path": p, "message": m}
                             for p, m in self.parse_errors],
            "error_count": sum(1 for f in self.findings
                               if f.severity is Severity.ERROR),
            "warning_count": sum(1 for f in self.findings
                                 if f.severity is Severity.WARNING),
            "stats": self.stats,
        }

    def render(self) -> str:
        lines = [f.render() for f in self.findings]
        lines.extend(f"{path}: parse error: {message}"
                     for path, message in self.parse_errors)
        summary = (f"checked {self.stats['modules']} modules and "
                   f"{self.stats['consumer_files']} consumer files")
        if self.findings or self.parse_errors:
            errors = sum(f.severity is Severity.ERROR for f in self.findings)
            lines.append(f"{summary}: {errors} error(s), "
                         f"{len(self.findings) - errors} warning(s), "
                         f"{len(self.parse_errors)} unparseable file(s), "
                         f"{len(self.suppressed)} suppressed")
        else:
            lines.append(f"{summary}: clean: no findings "
                         f"({len(self.suppressed)} suppressed)")
        return "\n".join(lines)


def load_project(paths: Sequence[str | Path]) -> Project:
    """Parse the package under ``paths`` and its sibling consumer roots.

    Consumer paths are spelled relative to the given roots, not resolved,
    so the rules' path scoping sees ``tests/...`` rather than wherever
    the checkout happens to live.
    """
    given = {os.path.normpath(p) for p in paths}
    siblings = {os.path.normpath(os.path.join(root, os.pardir, name))
                for root in paths for name in _CONSUMER_DIRS}
    return Project.load(paths, sorted(
        d for d in siblings - given if os.path.isdir(d)))


def run_check(project: Project, select: frozenset[str] | None = None,
              **passes: Any) -> CheckResult:
    """Run the selected D-rules and A-passes, then suppress and audit.

    ``passes`` are handed to :class:`FlowAnalyzer` (``purity_contracts``,
    ``taint_sinks``, ``layer_spec``), so fixture projects can substitute
    any of them.
    """
    running = frozenset(RULES) if select is None else select
    raw: list[Finding] = []
    rules = [cls() for cls in ALL_RULES if cls.rule_id in running]
    for source in project.files():
        for rule in rules:
            if rule.applies_to(source):
                raw.extend(rule.check(source))
    result = CheckResult(parse_errors=list(project.parse_errors))
    result.stats = {"modules": len(project.modules),
                    "consumer_files": len(project.consumers)}
    if running & ANALYZER_RULES.keys():
        analyzer = FlowAnalyzer(project, **passes)
        raw.extend(analyzer.run(running))
        result.stats["functions"] = len(analyzer.symbols.functions)
        result.stats["import_edges"] = len(project.import_edges)

    markers = {source.path: Suppressions(source.source)
               for source in project.files()}
    for finding in sorted(set(raw), key=_order):
        marks = markers.get(finding.path)
        if marks is not None and marks.silences(finding.line, finding.rule):
            result.suppressed.append(finding)
        else:
            result.findings.append(finding)
    for path, suppressions in markers.items():
        for line, ids in suppressions.unused(running):
            label = ",".join(sorted(ids)) if ids else "all rules"
            result.findings.append(Finding(
                path, line, 0, "SUP", Severity.WARNING,
                f"unused suppression: `# lint: ignore` marker for "
                f"{label} silences nothing on this line"))
    result.findings.sort(key=_order)
    return result


def _order(finding: Finding) -> tuple:
    return (finding.path, finding.line, finding.col, finding.rule,
            finding.message)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.check",
        description=("Static check for the SLATE repo: determinism lint "
                     "and whole-program flow analysis over one parse."))
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="package roots to check; sibling tests, "
                             "examples and benchmarks are checked too "
                             "(default: src)")
    parser.add_argument("--select", metavar="IDS",
                        help="comma-separated rule ids to run "
                             "(e.g. D01,A04)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="output format")
    parser.add_argument("--report", metavar="FILE",
                        help="also write the JSON report to FILE "
                             "(CI artifact)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule_id, summary in RULES.items():
            print(f"{rule_id}  {summary}")
        return 0
    select = None
    if args.select:
        select = frozenset(s.strip() for s in args.select.split(",")
                           if s.strip())
        unknown = sorted(select - RULES.keys())
        if unknown:
            print(f"error: unknown rule id(s) in --select: "
                  f"{', '.join(unknown)} (see --list-rules)",
                  file=sys.stderr)
            return 2
    try:
        result = run_check(load_project(args.paths), select)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = json.dumps(result.as_dict(), indent=2)
    if args.report:
        Path(args.report).write_text(payload + "\n", encoding="utf-8")
    print(payload if args.format == "json" else result.render())
    return 1 if result.failed else 0


if __name__ == "__main__":
    sys.exit(main())
