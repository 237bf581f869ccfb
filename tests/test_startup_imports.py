"""Start-up import guard: ``import repro`` loads only what a run uses.

Most of a short run's start-up is importing the package, and a single
convenience import can double it: ``scipy.stats`` costs well over a
second, ``scipy.optimize`` (which loads ``scipy.special``) about 0.3 s,
``scipy.sparse`` about 300 modules and 13 MB of resident memory, and
``networkx`` a quarter of a second (docs/performance.md, "Start-up
cost"; ``make startup`` measures it). These tests check which modules
get loaded, not how long that takes, so they fail only when someone
brings a heavy import back.
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
HEAVY = ("scipy.stats", "scipy.optimize", "scipy.special", "scipy.sparse",
         "networkx", "matplotlib")

#: Fig. 6b's oracle plan, as the ledger's ``mesh_event`` makes it
ORACLE_PLAN = """
from repro.core.controller.global_controller import GlobalController
from repro.experiments.scenarios import fig6b_which_cluster

figure = fig6b_which_cluster(duration=1.0, seed=1)
scenario = figure.scenario
plan = GlobalController.oracle(scenario.app, scenario.deployment,
                               scenario.demand,
                               rho_max=figure.slate.config.rho_max)
assert plan.ok, plan.status
"""

#: the ledger's paths at smoke size: the oracle plan and a 1 sim-s event
#: run under its rules, one path-formulation and one arc epoch solve
RUN_PATHS = ORACLE_PLAN + """
from repro.core.classes.classifier import AppSpecClassifier
from repro.core.controller.cluster_controller import ClusterController
from repro.core.optimizer.warm import EpochSolver
from repro.experiments.scenarios import synthetic_te_problem
from repro.sim.runner import MeshSimulation

simulation = MeshSimulation(scenario.app, scenario.deployment, seed=1,
                            classifier=AppSpecClassifier(scenario.app))
for name in scenario.deployment.cluster_names:
    ClusterController(name).distribute(plan.rules(), simulation.table)
simulation.run(scenario.demand, 1.0)
assert simulation.telemetry.latencies()
for formulation in ("path", "arc"):
    result = EpochSolver(formulation=formulation).solve(
        synthetic_te_problem(4, 3, 2, seed=1))
    assert result.ok, (formulation, result.status)
"""


def _loaded_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport json, sys\n"
         "print(json.dumps(sorted(sys.modules)))"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.strip().splitlines()[-1]))


def test_import_leaves_heavy_modules_unloaded() -> None:
    loaded = _loaded_after("import repro, repro.cli")
    assert not [name for name in HEAVY if name in loaded]
    # a run needs only the runtime invariants, not the static check
    devtools = {name for name in loaded
                if name.startswith("repro.devtools.")}
    assert devtools == {"repro.devtools.invariants"}


def test_a_run_leaves_heavy_modules_unloaded() -> None:
    """Planning, solving and simulating load only the HiGHS extension,
    not ``scipy.optimize`` around it; nor ``scipy.special``, whose one
    caller is an analysis helper no run reaches; nor ``scipy.sparse``:
    the LP's matrices are plain CSR arrays."""
    loaded = _loaded_after(RUN_PATHS)
    assert "scipy.optimize._highspy._core" in loaded
    assert not [name for name in HEAVY if name in loaded]


#: the seam's HiGHS module is the one ``scipy.optimize`` holds: the seam
#: registers the extension under its own name before running it, so
#: whichever side loads second reuses that module object
SAME_EXTENSION = """
import sys
from importlib import import_module
seam = import_module("repro.core.optimizer.solve")
assert sys.modules["scipy.optimize._highspy._core"] is seam.highspy
"""


def test_the_seam_loaded_first_leaves_scipy_optimize_working() -> None:
    _loaded_after("""
from importlib import import_module
import_module("repro.core.optimizer.solve")
import scipy.optimize
lp = scipy.optimize.linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0],
                            method="highs")
assert lp.status == 0 and lp.fun == 1.0, lp
mip = scipy.optimize.milp([1.0, 2.0], integrality=[1, 1],
                          constraints=([[1.0, 1.0]], [1.5], [3.0]))
assert mip.status == 0 and mip.fun == 2.0, mip
""" + SAME_EXTENSION)


def test_scipy_optimize_loaded_first_leaves_the_seam_working() -> None:
    _loaded_after("import scipy.optimize\n" + ORACLE_PLAN + SAME_EXTENSION)


def test_a_scipy_without_the_extension_file_gets_the_ordinary_import() -> None:
    """No ``_core`` file where the seam looks (here: no extension suffix
    to look for) falls back to importing it by name."""
    loaded = _loaded_after(
        "import importlib.machinery\n"
        "importlib.machinery.EXTENSION_SUFFIXES.clear()\n"
        + ORACLE_PLAN + SAME_EXTENSION)
    assert "scipy.optimize" in loaded


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
