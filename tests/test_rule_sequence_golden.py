"""Digest golden for every rule set the controller plans.

``tests/golden/rule_sequences.json`` freezes a sha256 over every
:meth:`OptimizationResult.rules` call of two runs, in call order: each
rule set's length, then each rule's key and weights with ``float.hex``.

* ``ctl_steady_path``: the control ledger's path workload at smoke scale
  (seed 1), its setup epoch and one full round;
* ``diurnal``: :func:`diurnal_control_setup` as ``repro obs decisions
  --scenario diurnal`` runs it.

The digest covers the plan's *full* rule set — local-first rules
included — so it holds whatever a push then chooses to carry. Regenerate
only when the plan is meant to change:
``PYTHONPATH=src:. python tests/test_rule_sequence_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from benchmarks.e2e.workloads import WORKLOAD_TYPES
from repro.core.optimizer.result import OptimizationResult
from repro.experiments.scenarios import diurnal_control_setup

GOLDEN = Path(__file__).parent / "golden" / "rule_sequences.json"


def _steady_path() -> None:
    workload = WORKLOAD_TYPES["ctl_steady_path"](1, "smoke")
    workload.setup()
    workload.round(verify=False)


def _diurnal() -> None:
    diurnal_control_setup().run()


RUNS = {"ctl_steady_path": _steady_path, "diurnal": _diurnal}


def rule_digest(name: str, monkeypatch) -> dict:
    """Run ``name`` with every ``rules()`` call hashed in call order."""
    hasher = hashlib.sha256()
    calls = [0, 0]
    emit = OptimizationResult.rules

    def spy(self):
        rules = emit(self)
        calls[0] += 1
        calls[1] += len(rules)
        hasher.update(f"{len(rules)}\n".encode())
        for rule in rules:
            hasher.update(repr((
                rule.service, rule.traffic_class, rule.src_cluster,
                [(dst, weight.hex()) for dst, weight in rule.weights]
            )).encode())
        return rules

    monkeypatch.setattr(OptimizationResult, "rules", spy)
    RUNS[name]()
    return {"calls": calls[0], "rules": calls[1],
            "sha256": hasher.hexdigest()}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_rule_sequence_matches_golden(name, monkeypatch):
    golden = json.loads(GOLDEN.read_text())
    assert rule_digest(name, monkeypatch) == golden[name]


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as patcher:
        frozen = {name: rule_digest(name, patcher) for name in sorted(RUNS)}
    GOLDEN.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
