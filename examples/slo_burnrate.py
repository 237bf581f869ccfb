#!/usr/bin/env python3
"""SLO burn-rate alerting over a demand surge, joined to the decision log.

The streaming-observability pipeline in one run: a `ScrapeLoop` samples the
mesh every simulated second into labeled time series, an `SloEngine`
evaluates a 250 ms latency objective with multi-window burn rates (a fast
10 s window to catch the spike, a slow 30 s window to suppress blips), and
the resulting firing→resolved alert is joined against the Global
Controller's epoch decision log — answering "did the controller re-plan
*while* the SLO was burning?".

The scenario: West runs comfortably at 250 RPS against a ~500 RPS local
capacity, surges to 650 RPS at t=40 (beyond what staying local can absorb),
and recovers at t=100. The initial plan keeps traffic local, so the surge
queues, the SLO burns, and the alert fires within seconds; the adaptive
controller re-plans at the next epoch boundary and offloads the overflow to
East, after which burn rates fall and the alert resolves.

Run:  python examples/slo_burnrate.py
"""

import os

from repro.experiments.scenarios import slo_burnrate_setup
from repro.obs import Observability, join_alerts_decisions

#: CI smoke knob: scale sim durations down (tests/test_examples.py). The
#: SLO burn windows stay at their real widths, so at small scales the alert
#: may simply not fire — the pipeline still runs end to end.
SCALE = float(os.environ.get("REPRO_EXAMPLE_TIME_SCALE", "1.0"))


def main() -> None:
    setup = slo_burnrate_setup(surge_start=40.0 * SCALE,
                               surge_end=100.0 * SCALE,
                               duration=180.0 * SCALE,
                               epoch=10.0 * SCALE)
    obs = Observability(setup.observability())
    print(f"scenario: {setup.scenario.name} "
          f"({setup.scenario.duration:g}s sim, surge 250->650 RPS at West "
          f"over [{40 * SCALE:g}, {100 * SCALE:g}))")
    rule = setup.slo_rules[0]
    print(f"SLO: {rule.name} — {100 * (1 - rule.budget):g}% of requests "
          f"under {rule.threshold * 1000:g} ms, fast/slow windows "
          f"{rule.fast_window:g}/{rule.slow_window:g}s at burn "
          f">={rule.fast_burn:g}/{rule.slow_burn:g}\n")

    setup.run(obs)

    print(f"scrapes: {obs.timeseries.scrape_count}, "
          f"series: {obs.timeseries.series_count()}\n")
    print(obs.alerts.render())

    # the sliding burn-rate the state machine acted on
    burn = obs.timeseries.series("slo_burn_rate", slo=rule.name,
                                 window="fast")
    if burn:
        peak_time, peak = max(burn.items(), key=lambda point: point[1])
        print(f"\npeak fast-window burn: {peak:.1f}x budget "
              f"at t={peak_time:g}s")

    print("\nalert ∩ decision log:")
    for row in join_alerts_decisions(obs.alerts, obs.decisions):
        alert = row["alert"]
        resolved = (f"{alert.resolved_at:g}" if alert.resolved_at is not None
                    else "end")
        print(f"  {alert.rule} fired [{alert.fired_at:g}, "
              f"{resolved}]s — {len(row['decisions'])} "
              f"controller epochs inside, {row['replans']} fresh re-plans")
        for decision in row["decisions"]:
            print(f"    t={decision.sim_time:6.1f}  {decision.outcome:<9} "
                  f"demand_delta={decision.demand_delta:7.1f} "
                  f"churn={decision.weight_churn:.3f}")


if __name__ == "__main__":
    main()
