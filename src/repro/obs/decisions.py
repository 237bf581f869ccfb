"""Decision log: a structured record of every Global Controller epoch.

The third observability pillar. Each epoch of an adaptive policy run yields
one :class:`EpochDecision` answering "what did the controller see and what
did it do about it": the quantized demand snapshot and how far it moved
(L1 delta), the reuse-ladder rung the plan came from, the objective and
wall solve time, and what the routing table did (rules whose route moved
plus total weight churn).

The log is append-only and keeps nothing but its rows: each row is a view
of the epoch's one :class:`~repro.obs.reading.EpochReading`, the reading
the provenance chain records too. Recording it does not perturb the
control loop, so enabling decisions keeps runs byte-identical.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from .reading import EpochReading

__all__ = ["DecisionLog", "EpochDecision"]


@dataclass(frozen=True)
class EpochDecision:
    """One Global Controller epoch, as seen from outside.

    ``rules_changed`` and ``weight_churn`` read what the routing table did
    since the previous epoch, as the provenance chain and the scrape loop
    do. On a healthy run that is what the plan changed, since the table
    holds the plan's departures. The one epoch where the two part is a
    reconcile after a control-plane outage: the table moves from the
    fallback rules back to the plan, though the plan itself barely moved.
    """

    epoch: int
    sim_time: float
    #: "solved" (planned), "no-demand" (nothing to plan against yet) or
    #: "outage" (controller unreachable)
    outcome: str
    demand_total: float
    #: L1 distance between this epoch's quantized demand snapshot and the
    #: previous one (0.0 on a plateau — the signal hysteresis exploits)
    demand_delta: float
    objective: float | None
    solve_time: float | None
    #: always 0, kept in the export format: a rule diff reads a missing
    #: key as local-first (:func:`~repro.obs.reading.diff_rules`), so the
    #: table only ever changes routes
    rules_added: int
    rules_removed: int
    #: installed keys whose route moved by more than float noise
    rules_changed: int
    #: summed |weight change| across all installed (rule, destination)
    #: pairs
    weight_churn: float
    #: seconds between the newest telemetry window the controller folded in
    #: and the moment this plan was applied — ~0 for healthy runs, > 0 when
    #: chaos delayed/dropped reports, None before the first observe
    telemetry_age: float | None = None
    #: a "solved" epoch hot-started from the previous epoch's basis
    #: (additive refinement of ``outcome``, which stays "solved")
    warm: bool = False
    #: the model assembly instantiated the previous epoch's structure
    warm_build: bool = False
    #: wall-clock cost of model assembly for this epoch
    build_time: float | None = None
    #: reuse-ladder rung: "warm" / "cold" (None on "no-demand" epochs) —
    #: :attr:`OptimizationResult.solver_path`
    solver_path: str | None = None

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class DecisionLog:
    """Append-only log of :class:`EpochDecision` records for one run."""

    decisions: list[EpochDecision] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.decisions)

    def __iter__(self):
        return iter(self.decisions)

    # ----------------------------------------------------------- recording

    def record(self, reading: EpochReading) -> EpochDecision:
        """Fold one reachable epoch of a policy with a controller.

        Called by :meth:`Observability.record_epoch
        <repro.obs.config.Observability.record_epoch>` *after* the epoch's
        plan, with the epoch read once for every record.
        """
        result = reading.result
        controller = reading.controller
        observed = controller.last_observe_time
        # the sums start at 0.0 so an epoch with no move exports a float
        decision = EpochDecision(
            epoch=len(self.decisions),
            sim_time=reading.sim_time,
            outcome=reading.outcome,
            demand_total=sum(value for per in reading.demand.values()
                             for value in per.values()),
            demand_delta=sum((abs(move)
                              for per in reading.demand_moves.values()
                              for move in per.values()), 0.0),
            objective=result.objective if result else None,
            solve_time=result.solve_time if result else None,
            rules_added=0,
            rules_removed=0,
            rules_changed=len(reading.changes),
            weight_churn=sum((change.churn for change in reading.changes),
                             0.0),
            telemetry_age=(None if observed is None
                           else max(0.0, reading.sim_time - observed)),
            warm=bool(result and result.warm_start),
            warm_build=bool(result and result.warm_build),
            build_time=result.build_time if result else None,
            solver_path=result.solver_path if result else None,
        )
        self.decisions.append(decision)
        return decision

    # ------------------------------------------------------------- queries

    def counts(self) -> dict[str, int]:
        """How many epochs landed on each outcome."""
        out = {"solved": 0, "no-demand": 0}
        for decision in self.decisions:
            out[decision.outcome] = out.get(decision.outcome, 0) + 1
        return out

    # ------------------------------------------------------------- exports

    def to_jsonl_lines(self) -> list[str]:
        return [json.dumps(d.as_dict(), sort_keys=True)
                for d in self.decisions]

    def render(self) -> str:
        """Fixed-width text table of the log (for the CLI)."""
        header = (f"{'epoch':>5} {'t(sim)':>8} {'outcome':<9} "
                  f"{'demand':>8} {'delta':>8} {'objective':>10} "
                  f"{'+':>3} {'-':>3} {'~':>3} {'churn':>7} {'age':>6}")
        lines = [header, "-" * len(header)]
        for d in self.decisions:
            objective = ("-" if d.objective is None
                         else f"{d.objective:.4f}")
            age = ("-" if d.telemetry_age is None
                   else f"{d.telemetry_age:.2f}")
            lines.append(
                f"{d.epoch:>5} {d.sim_time:>8.1f} {d.outcome:<9} "
                f"{d.demand_total:>8.1f} {d.demand_delta:>8.1f} "
                f"{objective:>10} {d.rules_added:>3} {d.rules_removed:>3} "
                f"{d.rules_changed:>3} {d.weight_churn:>7.3f} {age:>6}")
        counts = self.counts()
        lines.append(
            f"epochs={len(self.decisions)} solved={counts['solved']} "
            f"no-demand={counts['no-demand']}")
        return "\n".join(lines)
