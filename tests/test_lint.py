"""Tests for the determinism lint rules, driven through the one static
check (``repro.devtools.check``).

Each rule gets a seeded violation fixture (must fire) and a clean
counterpart (must stay silent); on top of that the whole tree must check
clean — the suite is the enforcement mechanism for the determinism
discipline described in docs/devtools.md.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.devtools import Severity, load_project, run_check
from repro.devtools.check import main
from repro.devtools.flow import Project
from repro.devtools.rules import ALL_RULES

REPO_ROOT = Path(__file__).resolve().parent.parent
LINT_RULES = frozenset(cls.rule_id for cls in ALL_RULES)

#: virtual paths that put a fixture inside each enforcement scope
SIM_PATH = "src/repro/sim/fixture.py"
MESH_PATH = "src/repro/mesh/fixture.py"
ANALYSIS_PATH = "src/repro/analysis/fixture.py"
TEST_PATH = "tests/fixture.py"


def check_source(source: str, path: str = SIM_PATH,
                 select: frozenset[str] | None = None):
    return run_check(Project.from_sources({path: source}), select).findings


def rule_ids(source: str, path: str = SIM_PATH) -> set[str]:
    return {f.rule for f in check_source(source, path)}


def findings_under(result, *roots: Path) -> list[str]:
    return [f.render() for f in result.findings
            if any(Path(f.path).is_relative_to(root) for root in roots)]


# ------------------------------------------------------- per-rule fixtures

# (rule, virtual path, violating snippet, clean snippet)
CASES = [
    ("D01", SIM_PATH,
     "import numpy as np\n"
     "__all__ = []\n"
     "def _draw(rngs):\n"
     "    return np.random.default_rng(0).random()\n",
     "__all__ = []\n"
     "def _draw(rngs):\n"
     "    return rngs.stream('arrivals').random()\n"),
    ("D02", SIM_PATH,
     "import time\n"
     "__all__ = []\n"
     "def _stamp():\n"
     "    return time.time()\n",
     "__all__ = []\n"
     "def _stamp(sim):\n"
     "    return sim.now\n"),
    ("D03", SIM_PATH,
     "__all__ = []\n"
     "def _order(clusters):\n"
     "    return [c for c in set(clusters)]\n",
     "__all__ = []\n"
     "def _order(clusters):\n"
     "    return [c for c in sorted(set(clusters))]\n"),
    ("D04", SIM_PATH,
     "__all__ = []\n"
     "def _same(span, sim):\n"
     "    return span.end_time == sim.now\n",
     "__all__ = []\n"
     "def _same(span, sim):\n"
     "    return abs(span.end_time - sim.now) < 1e-12\n"),
    ("D05", SIM_PATH,
     "__all__ = []\n"
     "def _collect(out=[]):\n"
     "    return out\n",
     "__all__ = []\n"
     "def _collect(out=None):\n"
     "    return out if out is not None else []\n"),
    ("D06", SIM_PATH,
     "__all__ = []\n"
     "_SEEN = []\n"
     "def _handler(event):\n"
     "    _SEEN.append(event)\n",
     "__all__ = []\n"
     "def _handler(state, event):\n"
     "    state.seen.append(event)\n"),
    ("D07", SIM_PATH,
     "__all__ = []\n"
     "def handler(event):\n"
     "    return event\n",
     "__all__ = ['handler']\n"
     "def handler(event):\n"
     "    return event\n"),
    ("D08", SIM_PATH,
     "__all__ = []\n"
     "def _report(stats):\n"
     "    print(stats)\n",
     "__all__ = []\n"
     "def _report(stats):\n"
     "    return str(stats)\n"),
]


@pytest.mark.parametrize("rule,path,bad,good",
                         CASES, ids=[c[0] for c in CASES])
def test_rule_catches_violation_and_passes_clean(rule, path, bad, good):
    assert rule in rule_ids(bad, path)
    assert rule not in rule_ids(good, path)


# ------------------------------------------------------- rule scope details

def test_d01_flags_stdlib_random_import():
    assert "D01" in rule_ids("__all__ = []\nimport random\n")


def test_d01_allows_rng_module_itself():
    source = "import numpy as np\n__all__ = []\ng = np.random.default_rng(0)\n"
    assert "D01" not in rule_ids(source, "src/repro/sim/rng.py")


def test_d01_allows_seeded_default_rng_in_tests():
    source = "import numpy as np\nrng = np.random.default_rng(42)\n"
    assert "D01" not in rule_ids(source, TEST_PATH)


def test_d01_flags_unseeded_default_rng_in_tests():
    source = "import numpy as np\nrng = np.random.default_rng()\n"
    assert "D01" in rule_ids(source, TEST_PATH)


def test_d02_allows_wall_clock_in_analysis():
    source = "import time\n__all__ = []\ndef _t():\n    return time.time()\n"
    assert "D02" not in rule_ids(source, ANALYSIS_PATH)
    assert "D02" in rule_ids(source, MESH_PATH)


def test_d03_flags_set_union_iteration():
    source = ("__all__ = []\n"
              "def _merge(a, b):\n"
              "    return {k: 1.0 for k in set(a) | set(b)}\n")
    assert "D03" in rule_ids(source)


def test_d04_ignores_inequalities():
    source = ("__all__ = []\n"
              "def _later(span, sim):\n"
              "    return span.end_time >= sim.now\n")
    assert "D04" not in rule_ids(source)


def test_d06_flags_module_level_counter_consumption():
    # the request-id leak this repo actually shipped: a process-global
    # itertools.count drawn from event code
    source = ("import itertools\n"
              "__all__ = []\n"
              "_IDS = itertools.count(1)\n"
              "def _emit():\n"
              "    return next(_IDS)\n")
    assert "D06" in rule_ids(source)


def test_d06_flags_global_statement():
    source = ("__all__ = []\n"
              "_COUNT = 0\n"
              "def _bump():\n"
              "    global _COUNT\n"
              "    _COUNT = 1\n")
    assert "D06" in rule_ids(source)


def test_d07_accepts_lazy_module_getattr():
    source = ("__all__ = ['Lazy']\n"
              "def __getattr__(name):\n"
              "    raise AttributeError(name)\n")
    assert "D07" not in rule_ids(source)


def test_d08_allows_cli_module():
    source = "__all__ = []\ndef _say():\n    print('hi')\n"
    assert "D08" not in rule_ids(source, "src/repro/cli.py")


def test_d08_flags_file_writes_in_library_code():
    source = ("__all__ = []\n"
              "def _dump(path, rows):\n"
              "    with open(path, 'w') as handle:\n"
              "        handle.writelines(rows)\n")
    assert "D08" in rule_ids(source)
    # append and exclusive-create modes are writes too
    assert "D08" in rule_ids("__all__ = []\n"
                             "def _log(path):\n"
                             "    open(path, 'a')\n")
    # keyword form
    assert "D08" in rule_ids("__all__ = []\n"
                             "def _dump(path):\n"
                             "    open(path, mode='x')\n")


def test_d08_allows_file_reads():
    source = ("__all__ = []\n"
              "def _load(path):\n"
              "    with open(path) as handle:\n"
              "        return handle.read()\n")
    assert "D08" not in rule_ids(source)
    assert "D08" not in rule_ids("__all__ = []\n"
                                 "def _load(path):\n"
                                 "    return open(path, 'r').read()\n")
    # a non-literal mode cannot be judged statically: stay silent
    assert "D08" not in rule_ids("__all__ = []\n"
                                 "def _open(path, mode):\n"
                                 "    return open(path, mode)\n")


def test_d08_flags_pathlib_write_helpers():
    source = ("__all__ = []\n"
              "def _dump(path, text):\n"
              "    path.write_text(text)\n")
    assert "D08" in rule_ids(source)
    assert "D08" in rule_ids("__all__ = []\n"
                             "def _dump(path, blob):\n"
                             "    path.write_bytes(blob)\n")


def test_obs_package_lints_clean():
    """The observability layer itself obeys the lint discipline.

    Its exporters carry per-line D08 rationale suppressions; everything
    else (tracer, analyzer, metrics, decisions, profiler) must be clean
    with no suppressions needed.
    """
    findings = run_check(load_project([REPO_ROOT / "src" / "repro" / "obs"]),
                         LINT_RULES).findings
    assert findings == [], "\n".join(f.render() for f in findings)


# ------------------------------------------------------------ suppressions

def test_inline_suppression_silences_one_rule():
    source = ("import time\n"
              "__all__ = []\n"
              "def _stamp():\n"
              "    return time.time()   # lint: ignore[D02]\n")
    assert "D02" not in rule_ids(source)


def test_blanket_suppression_silences_everything():
    source = ("__all__ = []\n"
              "def _collect(out=[]):   # lint: ignore\n"
              "    return out\n")
    assert rule_ids(source) == set()


def test_suppression_is_per_line():
    source = ("import time\n"
              "__all__ = []\n"
              "# lint: ignore[D02]\n"
              "def _stamp():\n"
              "    return time.time()\n")
    assert "D02" in rule_ids(source)


def test_select_restricts_rules():
    source = ("import time\n"
              "__all__ = []\n"
              "def _both(out=[]):\n"
              "    return time.time()\n")
    findings = check_source(source, select=frozenset({"D05"}))
    assert {f.rule for f in findings} == {"D05"}


# ------------------------------------------------------------- CLI surface

def test_cli_exit_codes_and_json(tmp_path, capsys):
    victim = tmp_path / "src" / "repro" / "sim" / "bad.py"
    victim.parent.mkdir(parents=True)
    victim.write_text("__all__ = []\n"
                      "def _collect(out=[]):\n"
                      "    return out\n")
    assert main([str(victim), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["error_count"] >= 1
    assert payload["findings"][0]["rule"] == "D05"

    victim.write_text("__all__ = []\n")
    assert main([str(victim)]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("D01", "D04", "D08"):
        assert rule_id in out


def test_cli_reports_parse_errors(tmp_path, capsys):
    victim = tmp_path / "broken.py"
    victim.write_text("def oops(:\n")
    assert main([str(victim)]) == 1
    assert "parse error" in capsys.readouterr().out


def test_cli_rejects_nonexistent_path(tmp_path, capsys):
    assert main([str(tmp_path / "no-such-dir")]) == 2
    assert "no such file or directory" in capsys.readouterr().err


def test_cli_rejects_unknown_select_id(capsys):
    assert main(["--select", "D99", str(REPO_ROOT / "src" / "repro")]) == 2
    assert "unknown rule id(s)" in capsys.readouterr().err


def test_module_entry_point_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.devtools.check", "--list-rules"],
        capture_output=True, text=True, cwd=REPO_ROOT, env=env)
    assert proc.returncode == 0
    assert "D01" in proc.stdout


# ---------------------------------------------------- the tree stays clean

def test_src_repro_lints_clean(real_tree_check):
    findings = findings_under(real_tree_check, REPO_ROOT / "src" / "repro")
    assert findings == [], "\n".join(findings)


def test_tests_and_benchmarks_lint_clean(real_tree_check):
    findings = findings_under(real_tree_check, REPO_ROOT / "tests",
                              REPO_ROOT / "benchmarks")
    assert findings == [], "\n".join(findings)


# ------------------------------------------------- suppression audit (SUP)

def test_audit_flags_unused_suppression():
    findings = check_source(
        "__all__ = []\n"
        "def _f(x):\n"
        "    return x + 1   # lint: ignore[D05]\n")
    assert [f.rule for f in findings] == ["SUP"]
    assert findings[0].severity is Severity.WARNING
    assert "D05" in findings[0].message


def test_audit_keeps_quiet_about_used_suppression():
    findings = check_source(
        "__all__ = []\n"
        "def _collect(out=[]):   # lint: ignore[D05]\n"
        "    return out\n")
    assert findings == []


def test_audit_ignores_markers_for_rules_not_running():
    # neither an analyzer (Axx) nor a lint (Dxx) marker is flagged when
    # --select excludes the rule it names
    findings = check_source(
        "__all__ = []\n"
        "from x import y   # lint: ignore[A04]\n"
        "def _f(out=[]):   # lint: ignore[D05]\n"
        "    return out\n", select=frozenset({"D01"}))
    assert findings == []


def test_audit_flags_unused_blanket_marker():
    findings = check_source(
        "__all__ = []\n"
        "X = 1   # lint: ignore\n")
    assert [f.rule for f in findings] == ["SUP"]
    assert "all rules" in findings[0].message


def test_cli_warns_about_unused_suppression(tmp_path, capsys):
    victim = tmp_path / "src" / "repro" / "sim" / "mod.py"
    victim.parent.mkdir(parents=True)
    victim.write_text("__all__ = []\n"
                      "X = 1   # lint: ignore[D05]\n")
    assert main([str(victim)]) == 0                      # warning only
    out = capsys.readouterr().out
    assert "SUP" in out and "unused suppression" in out


def test_repo_tree_has_no_unused_suppressions(real_tree_check):
    findings = [f.render() for f in real_tree_check.findings
                if f.rule == "SUP"]
    assert findings == [], "\n".join(findings)


# ------------------------------------------------------------ one parse

def test_check_parses_each_file_once(tmp_path, monkeypatch, capsys):
    """Lint rules and flow passes share one parse of every file, package
    and consumers alike."""
    pkg = tmp_path / "src" / "app"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("__all__ = []\n")
    (pkg / "core.py").write_text("__all__ = ['run']\n"
                                 "def run(x: 'int') -> int:\n"
                                 "    return x\n")
    for sibling in ("tests", "examples", "benchmarks"):
        (tmp_path / sibling).mkdir()
        (tmp_path / sibling / f"use_{sibling}.py").write_text(
            "from app.core import run\n"
            "run(1)   # lint: ignore[D05]\n")
    parses: Counter[str] = Counter()
    real_parse = ast.parse

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        parses[str(filename)] += 1
        return real_parse(source, filename, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    monkeypatch.chdir(tmp_path)
    assert main(["src"]) == 0       # the stale markers are warnings
    assert capsys.readouterr().out.count("SUP") == 3
    # string annotations parse as "<unknown>" expressions, not files
    parses.pop("<unknown>", None)
    files = sorted(str(p.relative_to(tmp_path))
                   for p in tmp_path.rglob("*.py"))
    assert len(files) == 5
    assert parses == Counter(dict.fromkeys(files, 1))
