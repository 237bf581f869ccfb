"""Tests for the whole-program flow analyzer (``repro.devtools.flow``),
driven through the one static check (``repro.devtools.check``).

Each pass gets a seeded fixture project (must fire) and a clean
counterpart (must stay silent), mirroring ``test_lint.py``; on top of
that the real ``src/repro`` tree must analyze clean — the suite is the
enforcement mechanism for the purity/layering contracts described in
docs/devtools.md.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.devtools import Severity, run_check
from repro.devtools.check import main
from repro.devtools.flow import Project
from repro.devtools.flow.contracts import LayerRule, LayerSpec
from repro.devtools.flow.purity import PurityContract
from repro.devtools.flow.taint import TaintSink

OBS_CONTRACT = PurityContract(
    name="obsish-read-only", rule="A01",
    entry_modules=("app.obsish",), forbidden=("app.engine",),
    description="obsish must not write engine state")


def analyze_sources(sources, *, contracts=(), sinks=(), layers=None,
                    consumers=None, select=None):
    return run_check(Project.from_sources(sources, consumers), select,
                     purity_contracts=tuple(contracts),
                     taint_sinks=tuple(sinks), layer_spec=layers)


def rule_ids(result):
    return {f.rule for f in result.findings}


ENGINE = (
    "__all__ = ['Engine']\n"
    "class Engine:\n"
    "    def __init__(self):\n"
    "        self.count = 0\n"
    "    def bump(self):\n"
    "        self.count += 1\n"
    "    def read(self):\n"
    "        return self.count\n")


class TestPurityPass:
    def test_entrypoint_writing_foreign_state_fires(self):
        result = analyze_sources({
            "app/__init__.py": "",
            "app/engine.py": ENGINE,
            "app/obsish.py": (
                "from .engine import Engine\n"
                "__all__ = ['collect']\n"
                "def collect(engine: Engine):\n"
                "    engine.bump()\n"       # transitive write to Engine.count
                "    return engine.read()\n"),
        }, contracts=(OBS_CONTRACT,), select=frozenset({"A01"}))
        assert rule_ids(result) == {"A01"}
        (finding,) = result.findings
        assert "Engine.count" in finding.message
        assert finding.path == "app/obsish.py"

    def test_read_only_entrypoint_is_clean(self):
        result = analyze_sources({
            "app/__init__.py": "",
            "app/engine.py": ENGINE,
            "app/obsish.py": (
                "from .engine import Engine\n"
                "__all__ = ['collect']\n"
                "def collect(engine: Engine):\n"
                "    return engine.read()\n"),
        }, contracts=(OBS_CONTRACT,), select=frozenset({"A01"}))
        assert result.findings == []

    def test_mutating_a_fresh_object_is_not_a_write(self):
        # building an Engine locally and bumping it is internal state,
        # not an observable side effect on the caller's world
        result = analyze_sources({
            "app/__init__.py": "",
            "app/engine.py": ENGINE,
            "app/obsish.py": (
                "from .engine import Engine\n"
                "__all__ = ['probe']\n"
                "def probe():\n"
                "    scratch = Engine()\n"
                "    scratch.bump()\n"
                "    return scratch.read()\n"),
        }, contracts=(OBS_CONTRACT,), select=frozenset({"A01"}))
        assert result.findings == []

    def test_twin_isolation_contract_uses_its_own_rule_id(self):
        contract = PurityContract(
            name="twin", rule="A02", entry_modules=("app.chaosish",),
            forbidden=("app.scenario",), description="no scenario writes")
        result = analyze_sources({
            "app/__init__.py": "",
            "app/scenario.py": (
                "__all__ = ['Scenario']\n"
                "class Scenario:\n"
                "    def __init__(self):\n"
                "        self.demand = {}\n"),
            "app/chaosish.py": (
                "from .scenario import Scenario\n"
                "__all__ = ['twin_run']\n"
                "def twin_run(scenario: Scenario):\n"
                "    scenario.demand['west'] = 0.0\n"),
        }, contracts=(contract,), select=frozenset({"A02"}))
        assert rule_ids(result) == {"A02"}


class TestTaintPass:
    SINK = TaintSink("app.sched.Scheduler.schedule", "event scheduling")

    def test_cross_module_clock_taint_reaches_scheduler(self):
        result = analyze_sources({
            "app/__init__.py": "",
            "app/clock.py": (
                "import time\n"
                "__all__ = ['stamp']\n"
                "def stamp():\n"
                "    return time.time()\n"),
            "app/sched.py": (
                "__all__ = ['Scheduler']\n"
                "class Scheduler:\n"
                "    def schedule(self, when):\n"
                "        return when\n"),
            "app/driver.py": (
                "from .clock import stamp\n"
                "from .sched import Scheduler\n"
                "__all__ = ['drive']\n"
                "def drive(sched: Scheduler):\n"
                "    sched.schedule(stamp())\n"),
        }, sinks=(self.SINK,), select=frozenset({"A03"}))
        assert rule_ids(result) == {"A03"}
        (finding,) = result.findings
        assert "wall-clock" in finding.message
        assert finding.path == "app/driver.py"

    def test_sim_time_argument_is_clean(self):
        result = analyze_sources({
            "app/__init__.py": "",
            "app/sched.py": (
                "__all__ = ['Scheduler']\n"
                "class Scheduler:\n"
                "    def schedule(self, when):\n"
                "        return when\n"),
            "app/driver.py": (
                "from .sched import Scheduler\n"
                "__all__ = ['drive']\n"
                "def drive(sched: Scheduler, now: float):\n"
                "    sched.schedule(now + 1.0)\n"),
        }, sinks=(self.SINK,), select=frozenset({"A03"}))
        assert result.findings == []


class TestContractPasses:
    LAYERS = LayerSpec(rules=(LayerRule("app.low", ("app.high",)),))

    def test_layering_violation_fires(self):
        result = analyze_sources({
            "app/__init__.py": "",
            "app/high.py": "__all__ = []\n",
            "app/low.py": "import app.high\n__all__ = []\n",
        }, layers=self.LAYERS, select=frozenset({"A04"}))
        assert rule_ids(result) == {"A04"}

    def test_layering_deferred_import_exempt_when_allowed(self):
        layers = LayerSpec(rules=(
            LayerRule("app.low", ("app.high",), allow_deferred=True),))
        result = analyze_sources({
            "app/__init__.py": "",
            "app/high.py": "__all__ = []\n",
            "app/low.py": ("__all__ = ['go']\n"
                           "def go():\n"
                           "    import app.high\n"
                           "    return app.high\n"),
        }, layers=layers, select=frozenset({"A04"}))
        assert result.findings == []

    def test_default_spec_keeps_chaos_out_of_the_control_loop(self):
        """The rule is module-scoped: the shared loop may not import chaos
        (not even lazily), the scenario catalog next to it may."""
        result = analyze_sources({
            "repro/__init__.py": "",
            "repro/chaos/__init__.py": "",
            "repro/chaos/plan.py": "__all__ = []\n",
            "repro/experiments/__init__.py": "",
            "repro/experiments/harness.py": (
                "__all__ = ['run']\n"
                "def run():\n"
                "    from ..chaos import plan\n"
                "    return plan\n"),
            "repro/experiments/scenarios.py": (
                "__all__ = ['setup']\n"
                "def setup():\n"
                "    from ..chaos import plan\n"
                "    return plan\n"),
        }, layers=LayerSpec.default(), select=frozenset({"A04"}))
        assert [(f.rule, Path(f.path).name) for f in result.findings] == [
            ("A04", "harness.py")]

    def test_default_spec_keeps_formulations_out_of_the_shared_optimizer(
            self):
        """What surrounds the LP may not import an emitter; ``model.py``
        may, deferred (``build_model``); the emitters import freely."""
        optimizer = "repro/core/optimizer/"
        result = analyze_sources({
            "repro/__init__.py": "",
            "repro/core/__init__.py": "",
            optimizer + "__init__.py": "",
            optimizer + "paths.py": "from . import vectorized\n__all__ = []\n",
            optimizer + "vectorized.py": "__all__ = []\n",
            optimizer + "solve.py": "from . import paths\n__all__ = []\n",
            optimizer + "result.py": (
                "__all__ = ['extract']\n"
                "def extract():\n"
                "    from . import paths\n"
                "    return paths\n"),
            optimizer + "cache.py": (
                "from .vectorized import __all__ as names\n"
                "__all__ = ['names']\n"),
            optimizer + "model.py": (
                "__all__ = ['build']\n"
                "def build():\n"
                "    from . import vectorized\n"
                "    return vectorized\n"),
            optimizer + "warm.py": (
                "from . import paths, vectorized\n__all__ = []\n"),
        }, layers=LayerSpec.default(), select=frozenset({"A04"}))
        assert sorted((f.rule, Path(f.path).name)
                      for f in result.findings) == [
            ("A04", "cache.py"), ("A04", "result.py"), ("A04", "solve.py")]

    def test_import_cycle_fires(self):
        result = analyze_sources({
            "app/__init__.py": "",
            "app/alpha.py": "from . import beta\n__all__ = []\n",
            "app/beta.py": "from . import alpha\n__all__ = []\n",
        }, select=frozenset({"A05"}))
        assert rule_ids(result) == {"A05"}
        (finding,) = result.findings
        assert "app.alpha" in finding.message
        assert "app.beta" in finding.message

    def test_type_checking_import_breaks_no_cycle(self):
        # `if TYPE_CHECKING:` imports never execute at import time
        result = analyze_sources({
            "app/__init__.py": "",
            "app/alpha.py": ("from typing import TYPE_CHECKING\n"
                             "if TYPE_CHECKING:\n"
                             "    from . import beta\n"
                             "__all__ = []\n"),
            "app/beta.py": "from . import alpha\n__all__ = []\n",
        }, select=frozenset({"A05"}))
        assert result.findings == []

    def test_dead_export_fires_and_used_export_does_not(self):
        result = analyze_sources({
            "app/__init__.py": "",
            "app/api.py": ("__all__ = ['used', 'dead']\n"
                           "def used():\n"
                           "    return 1\n"
                           "def dead():\n"
                           "    return 2\n"),
        }, consumers={
            "tests/test_api.py": ("from app.api import used\n"
                                  "assert used() == 1\n"),
        }, select=frozenset({"A06"}))
        assert rule_ids(result) == {"A06"}
        (finding,) = result.findings
        assert "`app.api.dead`" in finding.message
        assert "dead" in finding.message


class TestSuppressionAndBaseline:
    def test_inline_suppression_silences_a_finding(self):
        result = analyze_sources({
            "app/__init__.py": "",
            "app/engine.py": ENGINE,
            "app/obsish.py": (
                "from .engine import Engine\n"
                "__all__ = ['collect']\n"
                # purity findings anchor at the entrypoint's def line
                "def collect(engine: Engine):   # lint: ignore[A01]\n"
                "    engine.bump()\n"),
        }, contracts=(OBS_CONTRACT,), select=frozenset({"A01"}))
        assert result.findings == []
        assert len(result.suppressed) == 1

    def test_stale_analyzer_marker_is_flagged(self):
        """A ``# lint: ignore[A04]`` that silences nothing is a SUP warning,
        audited like any lint marker."""
        sources = {
            "app/__init__.py": "",
            "app/high.py": "__all__ = []\n",
            "app/low.py": ("import app.high   # lint: ignore[A04]\n"
                           "__all__ = []\n"),
        }
        used = analyze_sources(sources, layers=TestContractPasses.LAYERS,
                               select=frozenset({"A04"}))
        assert used.findings == []
        assert [f.rule for f in used.suppressed] == ["A04"]

        stale = analyze_sources(sources, layers=LayerSpec(rules=()),
                                select=frozenset({"A04"}))
        assert [(f.rule, f.path, f.line, f.severity)
                for f in stale.findings] == [
            ("SUP", "app/low.py", 1, Severity.WARNING)]
        assert "A04" in stale.findings[0].message
        assert not stale.failed


def _write_fixture_tree(root: Path) -> Path:
    pkg = root / "src" / "app"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "alpha.py").write_text("from . import beta\n__all__ = []\n")
    (pkg / "beta.py").write_text("from . import alpha\n__all__ = []\n")
    return root / "src"


class TestCli:
    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("A01", "A03", "A06"):
            assert rule_id in out

    def test_unknown_select_is_usage_error(self, capsys):
        assert main(["--select", "A99"]) == 2
        assert "A99" in capsys.readouterr().err

    def test_findings_exit_nonzero(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        src = _write_fixture_tree(tmp_path)
        assert main([str(src), "--select", "A05"]) == 1
        assert "import cycle" in capsys.readouterr().out

    def test_json_report_artifact(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        src = _write_fixture_tree(tmp_path)
        report = tmp_path / "report.json"
        assert main([str(src), "--select", "A05", "--format", "json",
                     "--report", str(report)]) == 1
        payload = json.loads(report.read_text())
        assert payload["error_count"] == 1
        assert payload["findings"][0]["rule"] == "A05"
        assert payload["stats"]["modules"] == 3
        # stdout carries the same payload
        assert json.loads(capsys.readouterr().out)["error_count"] == 1


class TestRealTree:
    def test_src_analyzes_clean(self, real_tree_check):
        """The committed tree holds every contract the analyzer checks."""
        result = real_tree_check
        assert result.parse_errors == []
        messages = [f.render() for f in result.findings]
        assert messages == []
        assert result.stats["modules"] > 50


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
