#!/usr/bin/env python3
"""Observability on the paper's headline result (Fig. 6a), end to end.

Runs SLATE on the Fig. 6a overload scenario with every observability
pillar enabled, then answers the three questions the layer exists for
(docs/observability.md):

1. *Where did the latency go?* — stitch the slowest request's spans into
   a trace tree and print its critical path: queue wait vs execution vs
   WAN round-trips, hop by hop.
2. *What state was the mesh in?* — dump the prometheus text snapshot of
   pool utilization, gateway counters, WAN egress, and solver state.
3. *What did the controller decide?* — render the per-epoch decision log
   (solved vs replayed vs no-demand, demand deltas, routing churn).

It also writes a Chrome trace_event file — drop it on
https://ui.perfetto.dev to see every span on a per-cluster/per-service
timeline in simulated time.

Run:  python examples/observe_headline.py
"""

import os
from pathlib import Path

from repro.experiments.scenarios import fig6a_adaptive_setup
from repro.obs import (Observability, ObservabilityConfig, hop_breakdown,
                       critical_path, write_chrome_trace)

TRACE_PATH = Path("fig6a_trace.json")

#: CI smoke knob: scale sim durations down (tests/test_examples.py)
SCALE = float(os.environ.get("REPRO_EXAMPLE_TIME_SCALE", "1.0"))


def main() -> None:
    # re-plan every 5 s so the decision log has epochs to show
    setup = fig6a_adaptive_setup(duration=30.0 * SCALE, epoch=5.0 * SCALE,
                                 seed=42)
    obs = Observability(ObservabilityConfig.full())

    print("=" * 72)
    print("Fig. 6a (west overloaded at 700 RPS) under SLATE, fully observed")
    print("=" * 72)
    outcome = setup.run(obs)
    print(f"requests traced: {len(obs.tracer)}   "
          f"spans: {obs.tracer.span_count}   "
          f"post-warmup completions: {len(outcome.latencies)}")

    # -- 1. the slowest request's critical path ---------------------------
    slowest = obs.tracer.slowest_requests(1)[0]
    print(f"\nslowest request #{slowest.request_id} "
          f"(ingress {slowest.ingress_cluster}, "
          f"latency {slowest.latency * 1000:.1f} ms) — critical path:")
    roots = obs.tracer.tree(slowest.request_id)
    for hop in hop_breakdown(critical_path(roots[0])):
        where = "remote" if hop.remote else "local"
        print(f"  {hop.service}@{hop.cluster:<6} ({where})  "
              f"queue {hop.queue_wait * 1000:6.2f} ms  "
              f"exec {hop.exec_time * 1000:6.2f} ms  "
              f"downstream {hop.downstream * 1000:6.2f} ms  "
              f"wan {hop.wan_rtt * 1000:6.2f} ms")

    # -- 2. mesh state as metrics ----------------------------------------
    print("\nmetrics snapshot (prometheus text format, excerpt):")
    for line in obs.metrics.to_prometheus().splitlines():
        if line.startswith(("pool_utilization", "wan_egress_bytes_total",
                            "solver_objective", "solver_cache")):
            print(f"  {line}")

    # -- 3. the controller's decisions -----------------------------------
    print("\ndecision log (one row per Global Controller epoch):")
    print(obs.decisions.render())

    # the profiler times the harness's sections; the optimizer inside them
    # keeps its own build/solve totals on the epoch solver
    print("\ncontrol-plane wall time:")
    for name, stats in obs.profiler.summary().items():
        print(f"  {name:<14} runs={stats['count']:<3} "
              f"total={stats['total_s'] * 1000:.1f} ms")
    solver = setup.policy.controller.epoch_solver.stats()
    print(f"  {'optimizer':<14} builds={solver['builds']:<3} "
          f"build={solver['build_seconds'] * 1000:.1f} ms  "
          f"solves={solver['solves']:<3} "
          f"solve={solver['solve_seconds'] * 1000:.1f} ms  "
          f"replays={solver['replays']}")

    # -- Perfetto export --------------------------------------------------
    events = write_chrome_trace(obs.tracer, TRACE_PATH, max_requests=200)
    print(f"\nwrote {events} trace events to {TRACE_PATH} "
          f"— open at https://ui.perfetto.dev")


if __name__ == "__main__":
    main()
