"""Start-up import guard: ``import repro`` loads only what a run uses.

Most of a short run's start-up is importing the package, and a single
convenience import can double it: ``scipy.stats`` costs well over a
second and ``networkx`` a quarter of one (docs/performance.md, "Start-up
cost"). These tests check which modules get loaded, not how long that
takes, so they fail only when someone brings a heavy import back.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: modules that must stay off the start-up path
HEAVY = ("scipy.stats", "networkx", "matplotlib")


def test_import_leaves_heavy_modules_unloaded() -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys, repro, repro.cli; "
         "print(json.dumps(sorted(sys.modules)))"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    loaded = set(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert not [name for name in HEAVY if name in loaded]


def _declared_dependencies() -> set[str]:
    text = (REPO / "pyproject.toml").read_text()
    block = re.search(r"^dependencies = \[(.*?)\]", text,
                      re.MULTILINE | re.DOTALL).group(1)
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower()
            for spec in re.findall(r'"([^"]+)"', block)}


def _imported_top_level(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_every_third_party_import_is_declared() -> None:
    """Every non-stdlib module ``src/repro`` imports, at module level or
    inside a function, is in ``pyproject.toml``'s dependencies."""
    imported = set()
    for path in sorted((SRC / "repro").rglob("*.py")):
        imported |= _imported_top_level(path)
    third_party = imported - set(sys.stdlib_module_names) - {"repro"}
    assert third_party <= _declared_dependencies(), third_party
    assert "networkx" not in _declared_dependencies()
