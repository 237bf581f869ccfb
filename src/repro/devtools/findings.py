"""Findings and per-line suppressions, shared by both rule families.

A :class:`Finding` is one rule violation at one source location — a
file-local lint rule (Dxx) or a whole-program flow pass (Axx). Findings
can be silenced in the source with a trailing comment::

    t = time.perf_counter()   # lint: ignore[D02]

Multiple rules separate with commas (``# lint: ignore[D01,D02]``); a bare
``# lint: ignore`` silences every rule on that line. Suppressions are
parsed per physical line, so a violation is silenced only by a marker on
its own line.
"""

from __future__ import annotations

import enum
import io
import re
import tokenize
from dataclasses import dataclass

__all__ = ["Finding", "Severity", "Suppressions"]

_IGNORE_RE = re.compile(r"#\s*lint:\s*ignore(?:\[([A-Za-z0-9,\s]*)\])?")

#: Sentinel stored for a blanket ``lint: ignore`` marker (no rule list).
_ALL_RULES = "*"


def _comments(source: str) -> list[tuple[int, str]]:
    """Real comment tokens as (line, text).

    Tokenizing (rather than regex-scanning every line) keeps marker text
    inside docstrings and string literals — documentation examples, lint
    test fixtures — from registering as live suppressions.
    """
    out: list[tuple[int, str]] = []
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                out.append((tok.start[0], tok.string))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # unparseable tail: keep whatever comments tokenized so far
        pass
    return out


class Severity(enum.Enum):
    """How a finding is treated by the CLI exit code."""

    ERROR = "error"       # fails the check
    WARNING = "warning"   # reported, does not fail the check

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    severity: Severity
    message: str

    def as_dict(self) -> dict[str, object]:
        return {"path": self.path, "line": self.line, "col": self.col,
                "rule": self.rule, "severity": str(self.severity),
                "message": self.message}

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule} [{self.severity}] {self.message}")


class Suppressions:
    """Per-line ``# lint: ignore[...]`` markers for one file."""

    def __init__(self, source: str) -> None:
        self._by_line: dict[int, set[str]] = {}
        self._fired: set[int] = set()
        if "lint:" not in source:   # no marker possible: skip tokenizing
            return
        for lineno, text in _comments(source):
            match = _IGNORE_RE.search(text)
            if match is None:
                continue
            rules = match.group(1)
            if rules is None:
                self._by_line[lineno] = {_ALL_RULES}
            else:
                ids = {r.strip() for r in rules.split(",") if r.strip()}
                self._by_line[lineno] = ids or {_ALL_RULES}

    def silences(self, line: int, rule: str) -> bool:
        """True when ``rule`` is suppressed on ``line``."""
        ids = self._by_line.get(line)
        if ids is None:
            return False
        if _ALL_RULES in ids or rule in ids:
            self._fired.add(line)
            return True
        return False

    def unused(self, running: frozenset[str]
               ) -> list[tuple[int, frozenset[str]]]:
        """Marker lines that silenced nothing this run.

        Markers naming only rule ids that are not running are skipped — a
        ``--select D01`` run must not flag every unrelated marker.
        Blanket markers (no id list) are always audited.
        """
        out: list[tuple[int, frozenset[str]]] = []
        for line, ids in sorted(self._by_line.items()):
            if line in self._fired:
                continue
            if _ALL_RULES in ids:
                out.append((line, frozenset()))
                continue
            relevant = ids & running
            if relevant:
                out.append((line, frozenset(relevant)))
        return out

    def __len__(self) -> int:
        return len(self._by_line)
