#!/usr/bin/env python3
"""A million simulated users: hybrid-fidelity simulation at planet scale.

Event-level simulation costs CPU per request, so a 1M-RPS day is out of
reach on a laptop. The fluid substrate (`repro.sim.fluid`) instead evolves
bulk traffic as flow rates — M/M/c queueing over pool capacity, WAN
propagation, routing splits as matrix products — on a fixed tick, so the
cost of a simulated second no longer depends on how many requests it
carries. Hybrid fidelity adds back a deterministic sampled slice of real
event-level requests for p50/p95/p99 without paying for the other 99.9%.

Part 1 runs a diurnal day at >= 1M simulated RPS in pure fluid fidelity
and reports the wall-clock cost. Part 2 reruns it in hybrid fidelity: the
bulk flows stay fluid while a 0.1% sample runs through the real proxies,
pools, and gateways to produce tail latencies.

Run:  python examples/fluid_scale.py
"""

import os
import time

from repro.experiments.scenarios import diurnal_control_setup
from repro.obs.timeseries import percentile

#: CI smoke knob: scale sim durations down (tests/test_examples.py)
SCALE = float(os.environ.get("REPRO_EXAMPLE_TIME_SCALE", "1.0"))

BASE_RPS = 525_000.0          # per cluster; two clusters => 1.05M total
DURATION = 60.0 * SCALE       # one compressed "day"
REPLICAS = 12_000             # sized for the diurnal peak at ~66% util
SAMPLE_RATE = 0.001           # hybrid: 1 in 1000 requests is event-level


def build():
    return diurnal_control_setup(base_rps=BASE_RPS, duration=DURATION,
                                 replicas=REPLICAS)


def simulated_requests(duration: float) -> float:
    # diurnal demand averages its base rate over whole periods
    return 2 * BASE_RPS * duration


def main() -> None:
    total_rps = 2 * BASE_RPS
    print(f"=== Part 1: pure fluid fidelity at {total_rps:,.0f} RPS ===")
    setup = build()
    started = time.perf_counter()
    outcome = setup.run(fidelity="fluid")
    wall = time.perf_counter() - started
    offered = simulated_requests(DURATION)
    print(f"simulated {DURATION:g}s of a {total_rps:,.0f}-RPS diurnal day "
          f"(~{offered:,.0f} requests) in {wall:.2f}s wall")
    print(f"-> {offered / wall:,.0f} simulated requests per wall second")
    print(f"egress: {outcome.egress_bytes:,} bytes "
          f"(${outcome.egress_cost:.2f})")

    print()
    print(f"=== Part 2: hybrid fidelity (sample_rate={SAMPLE_RATE}) ===")
    setup = build()
    started = time.perf_counter()
    outcome = setup.run(fidelity="hybrid", sample_rate=SAMPLE_RATE)
    wall = time.perf_counter() - started
    lat = outcome.latencies
    print(f"same day in {wall:.2f}s wall; {len(lat):,} requests ran "
          f"event-level alongside the bulk flows")
    if lat:
        print(f"sampled-slice latency: p50={percentile(lat, 0.5) * 1000:.1f}ms "
              f"p95={percentile(lat, 0.95) * 1000:.1f}ms "
              f"p99={percentile(lat, 0.99) * 1000:.1f}ms")
    print()
    print("The bulk of the traffic never instantiated a request object; "
          "the sampled slice used the same proxies, pools, and gateways "
          "an event-level run does.")


if __name__ == "__main__":
    main()
