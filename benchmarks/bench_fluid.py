"""Hybrid-fidelity substrate benchmarks (ISSUE 10 tentpole acceptance).

Two headline measurements, both exported to ``BENCH_fluid.json``:

* a diurnal day at **>= 1M simulated RPS** in hybrid fidelity — bulk
  traffic as fluid flows, a deterministic sampled slice through the real
  event-level proxies/pools/gateways for tail latencies — with the
  simulated-requests-per-wall-second rate the fluid substrate exists to
  deliver;
* sampled-slice p95 parity against event-level truth. Full event-level
  simulation at 1M RPS is out of reach by construction (that is the
  point of the substrate), so truth comes from a utilization-matched
  twin: the same diurnal shape, exec times, WAN matrix, and peak pool
  utilization (~0.66) at 1/100 the demand and replicas, run event-level.
  The stated band: hybrid sampled p95 within **20%** of event truth,
  asserted here and regression-gated by ``make bench-diff`` via the
  ``*_rel_error`` tolerance. ``fluid_event_speedup`` is the median, over
  ``SPEEDUP_PAIRS`` alternating event/hybrid twin runs, of each pair's
  wall-time ratio: one ratio of two single runs swings with host noise.
  For the same reason the million-scale day's ``fluid_wall_seconds`` and
  ``hybrid_wall_seconds`` (and the rates derived from them) are medians
  over ``DAY_REPEATS`` alternating fluid/hybrid runs.
"""

import statistics

from repro.analysis.report import format_table
from repro.experiments.scenarios import diurnal_control_setup
from repro.obs.timeseries import percentile

#: per-cluster base RPS for the million-scale day (two clusters)
MILLION_BASE_RPS = 525_000.0
MILLION_REPLICAS = 12_000          # peak utilization ~0.66
#: utilization-matched event-level twin: same shape at 1/100 scale
TWIN_SCALE = 100.0
#: acceptance band on |hybrid p95 - event p95| / event p95
P95_BAND = 0.20

DURATION = 6.0                     # one compressed diurnal period
SAMPLE_RATE = 2e-4                 # million-scale sampled slice
TWIN_SAMPLE_RATE = 0.05            # twin-scale sampled slice
#: alternating event/hybrid twin pairs behind ``fluid_event_speedup``
SPEEDUP_PAIRS = 5
#: alternating fluid/hybrid million-scale days behind the day's walls
DAY_REPEATS = 5


def _run(setup, fidelity, **kwargs):
    import time
    started = time.perf_counter()
    outcome = setup.run(fidelity=fidelity, **kwargs)
    return outcome, time.perf_counter() - started


def test_fluid_million_rps_day(benchmark, report_sink, bench_json):
    """A >= 1M simulated RPS diurnal day, hybrid and pure fluid."""
    total_rps = 2 * MILLION_BASE_RPS
    assert total_rps >= 1e6
    offered = total_rps * DURATION

    def run_day():
        # every repeat runs the same seeded days, so the outcomes of any
        # repeat are the outcomes of all of them; only the walls differ
        fluid_walls, hybrid_walls = [], []
        for _ in range(DAY_REPEATS):
            setup = diurnal_control_setup(base_rps=MILLION_BASE_RPS,
                                          duration=DURATION,
                                          replicas=MILLION_REPLICAS)
            fluid_outcome, fluid_wall = _run(setup, "fluid")
            fluid_walls.append(fluid_wall)
            setup = diurnal_control_setup(base_rps=MILLION_BASE_RPS,
                                          duration=DURATION,
                                          replicas=MILLION_REPLICAS)
            hybrid_outcome, hybrid_wall = _run(setup, "hybrid",
                                               sample_rate=SAMPLE_RATE)
            hybrid_walls.append(hybrid_wall)
        return (fluid_outcome, statistics.median(fluid_walls),
                hybrid_outcome, statistics.median(hybrid_walls))

    (fluid_outcome, fluid_wall, hybrid_outcome,
     hybrid_wall) = benchmark.pedantic(run_day, rounds=1, iterations=1)

    sampled = hybrid_outcome.latencies
    assert sampled, "hybrid run produced no sampled-slice latencies"
    hybrid_p95 = percentile(sampled, 0.95)

    rows = [["fluid", fluid_wall, offered / fluid_wall, 0],
            ["hybrid", hybrid_wall, offered / hybrid_wall, len(sampled)]]
    report_sink("fluid_million_rps", format_table(
        ["fidelity", "wall (s)", "simulated req/s", "sampled n"], rows,
        title=f"Diurnal day at {total_rps:,.0f} simulated RPS (median "
              f"wall of {DAY_REPEATS} alternating runs)"))
    bench_json("fluid", {
        "simulated_rps": total_rps,
        "day_duration_sim_seconds": DURATION,
        "fluid_wall_seconds": fluid_wall,
        "hybrid_wall_seconds": hybrid_wall,
        "fluid_requests_per_sec": offered / fluid_wall,
        "hybrid_requests_per_sec": offered / hybrid_wall,
        "hybrid_sampled_requests": len(sampled),
        "hybrid_sampled_p95_seconds": hybrid_p95,
    })


def test_hybrid_p95_matches_event_truth(benchmark, report_sink,
                                        bench_json):
    """Sampled-slice p95 within P95_BAND of event-level truth."""
    base = MILLION_BASE_RPS / TWIN_SCALE
    replicas = round(MILLION_REPLICAS / TWIN_SCALE)

    def run_all():
        # every pair runs the same seeded twins, so the outcomes of any
        # pair are the outcomes of all of them; only the walls differ
        ratios = []
        for _ in range(SPEEDUP_PAIRS):
            setup = diurnal_control_setup(base_rps=base, duration=DURATION,
                                          replicas=replicas)
            event_outcome, event_wall = _run(setup, "event")
            setup = diurnal_control_setup(base_rps=base, duration=DURATION,
                                          replicas=replicas)
            hybrid_outcome, hybrid_wall = _run(setup, "hybrid",
                                               sample_rate=TWIN_SAMPLE_RATE)
            ratios.append(event_wall / hybrid_wall)
        setup = diurnal_control_setup(base_rps=MILLION_BASE_RPS,
                                      duration=DURATION,
                                      replicas=MILLION_REPLICAS)
        million_outcome, _ = _run(setup, "hybrid",
                                  sample_rate=SAMPLE_RATE)
        return (event_outcome, hybrid_outcome, million_outcome,
                statistics.median(ratios))

    (event_outcome, hybrid_outcome, million_outcome,
     speedup) = benchmark.pedantic(run_all, rounds=1, iterations=1)

    event_p95 = percentile(event_outcome.latencies, 0.95)
    hybrid_p95 = percentile(hybrid_outcome.latencies, 0.95)
    million_p95 = percentile(million_outcome.latencies, 0.95)
    assert event_p95 > 0

    twin_error = abs(hybrid_p95 - event_p95) / event_p95
    million_error = abs(million_p95 - event_p95) / event_p95
    assert twin_error <= P95_BAND, (
        f"hybrid twin p95 {hybrid_p95:.4f}s vs event truth "
        f"{event_p95:.4f}s: {twin_error:.1%} > {P95_BAND:.0%} band")
    assert million_error <= P95_BAND, (
        f"million-scale hybrid p95 {million_p95:.4f}s vs event truth "
        f"{event_p95:.4f}s: {million_error:.1%} > {P95_BAND:.0%} band")

    rows = [["event", len(event_outcome.latencies), event_p95 * 1000],
            ["hybrid twin", len(hybrid_outcome.latencies),
             hybrid_p95 * 1000],
            ["hybrid @1M RPS", len(million_outcome.latencies),
             million_p95 * 1000]]
    report_sink("fluid_p95_parity", format_table(
        ["run", "latencies n", "p95 (ms)"], rows,
        title=f"Sampled-slice p95 vs event truth (band {P95_BAND:.0%}, "
              f"median twin speedup {speedup:.1f}x over {SPEEDUP_PAIRS} "
              f"pairs)"))
    bench_json("fluid", {
        "event_twin_p95_seconds": event_p95,
        "hybrid_twin_p95_seconds": hybrid_p95,
        "hybrid_million_p95_seconds": million_p95,
        "hybrid_p95_rel_error": twin_error,
        "hybrid_million_p95_rel_error": million_error,
        "fluid_event_speedup": speedup,
        "p95_band": P95_BAND,
    })
