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

import json
from dataclasses import dataclass, field

from ..core.controller.global_controller import GlobalController
from ..core.rules import RuleSet

__all__ = ["DecisionLog", "EpochDecision"]

#: weight-change below this is float noise, not a routing change
_WEIGHT_EPSILON = 1e-9


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
    #: a "solved" epoch that went through the warm-start restricted solve
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
        return {
            "epoch": self.epoch,
            "sim_time": self.sim_time,
            "outcome": self.outcome,
            "demand_total": self.demand_total,
            "demand_delta": self.demand_delta,
            "fingerprint": self.fingerprint,
            "objective": self.objective,
            "solve_time": self.solve_time,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "rules_added": self.rules_added,
            "rules_removed": self.rules_removed,
            "rules_changed": self.rules_changed,
            "weight_churn": self.weight_churn,
            "telemetry_age": self.telemetry_age,
            "warm": self.warm,
            "warm_build": self.warm_build,
            "build_time": self.build_time,
            "solver_path": self.solver_path,
        }


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

    def record(self, sim_time: float, controller: GlobalController,
               update: RuleSet | None) -> EpochDecision:
        """Fold one epoch's controller state into the log.

        ``update`` is what the policy shipped this epoch (None when it had
        nothing to plan against). Called by the harness *after* the epoch's
        plan, so ``controller.last_result`` reflects this epoch.
        """
        demand = {
            (cls, cluster): controller.demand_estimate(cls, cluster)
            for cls in sorted(controller.app.classes)
            for cluster in controller.deployment.cluster_names
        }
        delta = sum(
            abs(demand.get(key, 0.0) - self._prev_demand.get(key, 0.0))
            for key in sorted(set(demand) | set(self._prev_demand)))
        result = controller.last_result
        if update is None or result is None:
            outcome = "no-demand"
        elif result.cache_hit:
            outcome = "replayed"
        else:
            outcome = "solved"
        added = removed = changed = 0
        churn = 0.0
        if update is not None:
            new_rules = update.by_key()
            for key in sorted(set(new_rules) | set(self._prev_rules),
                              key=lambda k: (k.service, k.traffic_class,
                                             k.src_cluster)):
                old_weights = self._prev_rules.get(key)
                new_weights = new_rules.get(key)
                if old_weights is None:
                    added += 1
                    churn += sum(new_weights.values())
                elif new_weights is None:
                    removed += 1
                    churn += sum(old_weights.values())
                else:
                    diff = sum(
                        abs(new_weights.get(c, 0.0) - old_weights.get(c, 0.0))
                        for c in sorted(set(new_weights) | set(old_weights)))
                    if diff > _WEIGHT_EPSILON:
                        changed += 1
                        churn += diff
            self._prev_rules = new_rules
        decision = EpochDecision(
            epoch=len(self.decisions),
            sim_time=sim_time,
            outcome=outcome,
            demand_total=sum(demand.values()),
            demand_delta=delta,
            fingerprint=getattr(result, "fingerprint", None),
            objective=result.objective if result is not None else None,
            solve_time=result.solve_time if result is not None else None,
            cache_hits=result.cache_hits if result is not None else 0,
            cache_misses=result.cache_misses if result is not None else 0,
            rules_added=added,
            rules_removed=removed,
            rules_changed=changed,
            weight_churn=churn,
            telemetry_age=(
                None if getattr(controller, "last_observe_time", None) is None
                else max(0.0, sim_time - controller.last_observe_time)),
            warm=bool(getattr(result, "warm_start", False)),
            warm_build=bool(getattr(result, "warm_build", False)),
            build_time=getattr(result, "build_time", None),
            solver_path=(getattr(result, "solver_path", None)
                         if outcome != "no-demand" else None),
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
