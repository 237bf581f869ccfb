"""Fig. 4 — Empirical cross-cluster routing threshold (§4.1).

Two clusters; East held at 100 RPS; West swept 100→1000 RPS; WAN one-way
latency in {5, 25, 50} ms. At each point SLATE's optimizer is solved and the
locally served RPS at West reported. Paper shape: each curve follows the
100%-local line (y = x) until a break point, and the break point moves to
lower loads as the network gets faster (cheaper to offload sooner).
"""

from repro.analysis.report import format_table
from repro.experiments.scenarios import (FIG4_ONE_WAY_MS, FIG4_WEST_LOADS,
                                         fig4_offload_sweep)


def break_point(series_for_latency):
    """First swept load where the optimizer serves < 99.9% locally."""
    for west_rps, local in zip(FIG4_WEST_LOADS, series_for_latency):
        if local < 0.999 * west_rps:
            return west_rps
    return float("inf")


def test_fig4_offload_threshold(benchmark, report_sink):
    series = benchmark.pedantic(fig4_offload_sweep, rounds=1, iterations=1)
    headers = (["west load (rps)", "100% local"]
               + [f"local rps @ {ms:g}ms" for ms in FIG4_ONE_WAY_MS])
    rows = []
    for index, west_rps in enumerate(FIG4_WEST_LOADS):
        rows.append([west_rps, west_rps]
                    + [series[ms][index] for ms in FIG4_ONE_WAY_MS])
    text = format_table(
        headers, rows,
        title="Fig. 4: locally served RPS at West vs offered load "
              "(east fixed at 100 RPS; red dotted line = '100% local')")
    breaks = {ms: break_point(series[ms]) for ms in FIG4_ONE_WAY_MS}
    text += "\nbreak points (first load with offloading): " + ", ".join(
        f"{ms:g}ms -> {bp:g} rps" for ms, bp in sorted(breaks.items()))
    report_sink("fig4_offload_threshold", text)

    # paper shape: faster networks offload earlier (or at worst equal)
    assert breaks[5.0] <= breaks[25.0] <= breaks[50.0]
    # and offloading does kick in within the swept range for every latency
    assert breaks[50.0] <= 1000.0
    # below the break point the curve lies on y = x
    for ms in FIG4_ONE_WAY_MS:
        for west_rps, local in zip(FIG4_WEST_LOADS, series[ms]):
            if west_rps < breaks[ms]:
                assert local == __import__("pytest").approx(west_rps,
                                                            rel=1e-3)
