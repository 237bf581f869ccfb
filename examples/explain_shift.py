#!/usr/bin/env python3
"""Decision provenance: explain one routing shift end-to-end.

Every epoch the Global Controller sees telemetry, maybe re-solves, and
ships a rule diff; next epoch the scrape loop measures what that diff did
to the data plane. `repro.obs.provenance` chains those four steps into
one record per epoch — this example runs the diurnal scenario with tight
capacity (so the day/night swings force real cross-cluster shifts) and
prints the full causal story for the biggest one: the demand delta that
triggered it, the solver path (replay / warm / cold) that produced it,
the rule churn that shipped, and the egress/latency movement observed
afterwards.

Run:  python examples/explain_shift.py
CLI:  python -m repro obs explain default --scenario diurnal --table
"""

import os

from repro.experiments.scenarios import diurnal_control_setup
from repro.obs import Observability

#: CI smoke knob: scale sim durations down (tests/test_examples.py)
SCALE = float(os.environ.get("REPRO_EXAMPLE_TIME_SCALE", "1.0"))

DURATION = 240.0 * SCALE
EPOCH = 10.0 * SCALE


def main() -> None:
    # replicas=2 caps each cluster at 200 RPS against a 225 RPS demand
    # peak, so the optimizer must offload the overflow cross-cluster —
    # the weight shifts this example exists to explain
    setup = diurnal_control_setup(duration=DURATION, epoch=EPOCH,
                                  replicas=2)
    obs = Observability(setup.observability(provenance=True,
                                            timeseries=True))
    setup.run(obs)

    log = obs.provenance
    print("=== flight-recorder ring ===")
    print(log.render())

    print("\n=== biggest shift for class 'default', explained ===")
    print(log.explain("default"))

    # the same chain is machine-readable: each record's as_dict() carries
    # the digest, solver path, rule deltas, and the attributed effect
    records = [r for r in log.records if r.solver is not None]
    if records:
        paths = {}
        for record in records:
            key = record.solver.get("solver_path") or "-"
            paths[key] = paths.get(key, 0) + 1
        summary = ", ".join(f"{count}x {name}"
                            for name, count in sorted(paths.items()))
        print(f"\nsolver paths over {len(log.records)} epochs: {summary}")


if __name__ == "__main__":
    main()
