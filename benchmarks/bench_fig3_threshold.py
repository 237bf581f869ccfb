"""Fig. 3 — the static-threshold pathology (§4.1).

The paper's conceptual figure: a conservative threshold "forgoes
opportunities to keep more traffic local, offloading too early, paying more
network latency unnecessarily"; an aggressive one "forces traffic to stay
local when it may be better to offload". We regenerate it quantitatively:
mean latency vs offered load for Waterfall with a conservative (250 RPS) and
an aggressive (480 RPS) static threshold, against SLATE — no single static
value matches the optimizer across the load range.

Evaluated with the fluid model (the sweep needs many points; the simulator
cross-validates the fluid model elsewhere).
"""

import math

from repro.analysis.report import format_table
from repro.experiments.scenarios import (FIG3_AGGRESSIVE_RPS,
                                         FIG3_CONSERVATIVE_RPS,
                                         fig3_threshold_sweep)


def test_fig3_static_threshold_pathology(benchmark, report_sink):
    rows = benchmark.pedantic(fig3_threshold_sweep, rounds=1, iterations=1)
    text = format_table(
        ["west load (rps)", f"conservative {FIG3_CONSERVATIVE_RPS:g} (ms)",
         f"aggressive {FIG3_AGGRESSIVE_RPS:g} (ms)", "SLATE (ms)"],
        rows,
        title="Fig. 3: mean latency vs load under static thresholds")
    report_sink("fig3_threshold", text)

    conservative = [row[1] for row in rows]
    aggressive = [row[2] for row in rows]
    slate = [row[3] for row in rows]
    # SLATE within epsilon of the best static choice at every load
    for c, a, s in zip(conservative, aggressive, slate):
        assert math.isfinite(s)
        assert s <= min(c, a) + 0.1
    # each static threshold is strictly worse somewhere: the pathology
    assert any(c > s * 1.1 for c, s in zip(conservative, slate))
    assert any(a > s * 1.5 for a, s in zip(aggressive, slate))
