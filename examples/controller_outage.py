#!/usr/bin/env python3
"""Riding out a Global Controller outage with the stale-rule guard (§5).

The paper's §5 asks what happens when the hierarchical control plane
degrades. Here SLATE offloads part of West's hot traffic to East; then the
Global Controller goes dark for 14 simulated seconds *while* the west<->east
link degrades 20-fold:

* the frozen offload rules keep paying the inflated WAN RTT (~1 s/crossing);
* each Cluster Controller's stale-rule guard notices the rule age exceeding
  ``max_rule_age`` and fails over to locality routing — p95 falls back to
  local queueing levels;
* when the controller returns, its next plan reconciles the fallback and the
  resilience report shows finite detection and recovery times.

Run:  python examples/controller_outage.py
"""

import os
from dataclasses import replace

from repro.chaos import ControlPlaneOutage, FaultPlan, WanFault
from repro.experiments.scenarios import chaos_outage_setup

#: CI smoke knob: scale every sim duration down (tests/test_examples.py)
SCALE = float(os.environ.get("REPRO_EXAMPLE_TIME_SCALE", "1.0"))


def p95(values):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))] if ordered else 0.0


def main() -> None:
    setup = chaos_outage_setup(duration=40.0 * SCALE,
                               fault_start=10.0 * SCALE,
                               fault_duration=14.0 * SCALE,
                               epoch=2.0 * SCALE,
                               max_rule_age=5.0 * SCALE)
    print("fault campaign:")
    for line in setup.plan.describe():
        print(f"  {line}")

    def window_p95(result, lo, hi):
        return p95([lat for t, lat in result.samples
                    if lat is not None and lo <= t < hi]) * 1000

    fault = setup.plan.faults[0]
    lo, hi = fault.start, fault.start + fault.duration
    frozen = replace(setup, fallback=None, max_rule_age=None)
    runs = {"frozen stale rules": frozen.run(),
            "stale-rule guard": setup.run()}

    guarded = runs["stale-rule guard"]
    trip = guarded.fallback_trips[0] if guarded.fallback_trips else hi
    for label, result in runs.items():
        print(f"\n{label}:")
        print(f"  p95 before guard trips [{lo:g}s,{trip:g}s): "
              f"{window_p95(result, lo, trip):7.1f} ms")
        print(f"  p95 after guard trips  [{trip:g}s,{hi:g}s): "
              f"{window_p95(result, trip, hi):7.1f} ms")
        print(f"  p95 after recovery:    "
              f"{window_p95(result, hi, setup.scenario.duration):7.1f} ms")
        if result.fallback_trips:
            print(f"  guard tripped at t={result.fallback_trips[0]:.1f}s; "
                  f"reconciliations: "
                  f"{sum(c.reconciliations for c in result.controllers.values())}")

    baseline = replace(frozen, plan=FaultPlan.empty()).run()
    report = runs["stale-rule guard"].resilience(
        baseline, window=2.0 * SCALE)
    print("\nresilience report (guarded run vs unfaulted twin):")
    print(report.render())
    # the declarative types are the full campaign vocabulary:
    assert isinstance(setup.plan.faults[0], ControlPlaneOutage)
    assert isinstance(setup.plan.faults[1], WanFault)


if __name__ == "__main__":
    main()
