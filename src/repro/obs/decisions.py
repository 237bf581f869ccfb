"""Decision log: a structured record of every Global Controller epoch.

The third observability pillar. Each epoch of an adaptive policy run yields
one :class:`EpochDecision` answering "what did the controller see and what
did it do about it": the quantized demand snapshot and how far it moved
(L1 delta), the model fingerprint the solver cache keyed on, whether the
epoch was freshly **solved** or **replayed** from cache (PR 2's hysteresis
skip), the objective and wall solve time, and the routing diff actually
shipped (rules added/removed/changed plus total weight churn).

The log is append-only and derived purely from controller state the harness
already holds — recording it does not perturb the control loop, so enabling
decisions keeps runs byte-identical.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from .reading import EpochReading, diff_rules

__all__ = ["DecisionLog", "EpochDecision"]


@dataclass(frozen=True)
class EpochDecision:
    """One Global Controller epoch, as seen from outside."""

    epoch: int
    sim_time: float
    #: "solved" (fresh optimization), "replayed" (solver-cache hit — the
    #: hysteresis skip), or "no-demand" (nothing to plan against yet)
    outcome: str
    demand_total: float
    #: L1 distance between this epoch's quantized demand snapshot and the
    #: previous one (0.0 on a plateau — the signal hysteresis exploits)
    demand_delta: float
    fingerprint: str | None
    objective: float | None
    solve_time: float | None
    cache_hits: int
    cache_misses: int
    rules_added: int
    rules_removed: int
    rules_changed: int
    #: summed |weight change| across all (rule, destination) pairs
    weight_churn: float
    #: seconds between the newest telemetry window the controller folded in
    #: and the moment this plan was applied — ~0 for healthy runs, > 0 when
    #: chaos delayed/dropped reports, None before the first observe
    telemetry_age: float | None = None
    #: a "solved" epoch hot-started from the previous epoch's basis
    #: (additive refinement of ``outcome``, which stays "solved")
    warm: bool = False
    #: the model assembly reused cached structure (demand rescatter)
    warm_build: bool = False
    #: wall-clock cost of model assembly for this epoch
    build_time: float | None = None
    #: reuse-ladder rung: "replay" / "warm" / "cold" (None on "no-demand"
    #: epochs) — :attr:`OptimizationResult.solver_path`, derived in one
    #: place instead of re-deriving from the warm/cache_hit boolean pair
    solver_path: str | None = None

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class DecisionLog:
    """Append-only log of :class:`EpochDecision` records for one run."""

    decisions: list[EpochDecision] = field(default_factory=list)
    _prev_demand: dict = field(default_factory=dict, repr=False)
    _prev_rules: dict = field(default_factory=dict, repr=False)

    def __len__(self) -> int:
        return len(self.decisions)

    def __iter__(self):
        return iter(self.decisions)

    # ----------------------------------------------------------- recording

    def seed_rules(self, rules: dict) -> None:
        """Baseline the rule diff against the pre-epoch initial install.

        Epoch 0 then reports what *it* changed, not the initial plan's
        rules as additions — in particular an epoch that replays the
        initial plan out of the solver cache shows zero churn.
        """
        self._prev_rules = dict(rules)

    def record(self, reading: EpochReading) -> EpochDecision:
        """Fold one reachable epoch of a policy with a controller.

        Called by :meth:`Observability.record_epoch
        <repro.obs.config.Observability.record_epoch>` *after* the epoch's
        plan, with the epoch read once for every record.
        """
        demand = {(cls, cluster): value
                  for cls, per in reading.demand.items()
                  for cluster, value in per.items()}
        delta = sum(
            abs(demand.get(key, 0.0) - self._prev_demand.get(key, 0.0))
            for key in sorted(set(demand) | set(self._prev_demand)))
        shipped = {"added": 0, "removed": 0, "changed": 0}
        churn = 0.0
        if reading.update is not None:
            new_rules = reading.update.by_key()
            for change in diff_rules(self._prev_rules, new_rules):
                if change.moved:
                    shipped[change.kind] += 1
                    churn += change.churn
            self._prev_rules = new_rules
        result = reading.result
        controller = reading.controller
        observed = controller.last_observe_time
        decision = EpochDecision(
            epoch=len(self.decisions),
            sim_time=reading.sim_time,
            outcome=reading.outcome,
            demand_total=sum(demand.values()),
            demand_delta=delta,
            fingerprint=result.fingerprint if result else None,
            objective=result.objective if result else None,
            solve_time=result.solve_time if result else None,
            # the solver cache's running totals as of this epoch's plan
            cache_hits=controller.solver_cache.hits if result else 0,
            cache_misses=controller.solver_cache.misses if result else 0,
            rules_added=shipped["added"],
            rules_removed=shipped["removed"],
            rules_changed=shipped["changed"],
            weight_churn=churn,
            telemetry_age=(None if observed is None
                           else max(0.0, reading.sim_time - observed)),
            warm=bool(result and result.warm_start),
            warm_build=bool(result and result.warm_build),
            build_time=result.build_time if result else None,
            solver_path=result.solver_path if result else None,
        )
        self._prev_demand = demand
        self.decisions.append(decision)
        return decision

    # ------------------------------------------------------------- queries

    def counts(self) -> dict[str, int]:
        """How many epochs landed on each outcome."""
        out = {"solved": 0, "replayed": 0, "no-demand": 0}
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
            f"replayed={counts['replayed']} no-demand={counts['no-demand']}")
        return "\n".join(lines)
