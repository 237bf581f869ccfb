"""Decision provenance: the causal chain behind every routing shift.

The decision log (PR 3–4) records *what* the Global Controller shipped each
epoch; this module records *why*, as one joinable chain per epoch:

(a) what the controller **observed** — a digest of the telemetry snapshot
    it folded in plus signed per-(class, cluster) demand deltas;
(b) which rung of the optimizer's reuse ladder the epoch took — solver-cache
    **replay**, **warm** restricted solve (with the pricing-certificate
    outcome), or **cold** solve — plus structure-cache rescatter vs rebuild
    and path-candidate stats for the path formulation;
(c) the per-class **rule deltas** actually installed in the routing table
    (including chaos-mode fallback installs the controller never saw);
(d) the **observed data-plane shift** attributed from ``obs.timeseries``
    over the following epoch: egress-rate movement per WAN pair, p95
    latency movement per class, and scraped routing churn.

Records accumulate in a bounded deterministic ring — the **flight
recorder**. Anomaly triggers (an SLO alert firing, a chaos ``FaultRecord``
edge, a runtime-invariant failure) snapshot the ring plus the surrounding
time-series windows into an in-memory dump (JSONL via
:func:`repro.obs.export.write_flight_dump`) stamped with the run's scenario
and seed, so the exact simulation can be re-run deterministically.

Like every obs pillar the whole pipeline is pull-based and read-only:
recording reads controller/table state the harness already holds and never
perturbs the control loop, so enabling provenance keeps runs
byte-identical. Chaos stays un-imported (architecture contract A04):
fault records are duck-typed through their ``fired_at``/``resolved_at``/
``as_dict`` surface.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # imports for annotations only — obs stays decoupled
    from ..core.controller.global_controller import GlobalController
    from ..core.rules import RuleSet
    from .alerts import AlertLog
    from .timeseries import TimeSeriesStore

__all__ = ["DEFAULT_FLIGHT_RING", "EpochEffect", "FlightRecorder",
           "ProvenanceLog", "ProvenanceRecord", "telemetry_digest"]

#: default flight-recorder ring capacity (epochs, not seconds)
DEFAULT_FLIGHT_RING = 64

#: retained anomaly snapshots before the oldest are dropped (counted)
MAX_SNAPSHOTS = 32

#: per-record cap on itemised rule changes (largest-churn first)
MAX_RULE_CHANGES = 24

#: weight/rate movement below this is float noise, not a shift
_EPSILON = 1e-9


def telemetry_digest(reports) -> str:
    """Content hash of one epoch's cluster-report snapshot.

    Canonical-JSON sha256 over the per-cluster ingress summaries — enough
    to tell "the controller saw the same telemetry" apart from "it saw
    something new" without retaining the reports themselves.
    """
    payload = []
    for report in sorted(reports, key=lambda r: (r.cluster, r.start_time)):
        payload.append({
            "cluster": report.cluster,
            "start": report.start_time,
            "duration": report.duration,
            "ingress": {cls: report.ingress_counts[cls]
                        for cls in sorted(report.ingress_counts)},
            "requests": len(report.request_latencies),
        })
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass
class EpochEffect:
    """Observed data-plane shift over the epoch *after* a decision.

    Attributed from the time-series store once the next epoch's boundary
    is known: scrape samples in ``[start, end)`` belong to this decision
    (epoch hooks run before scrape ticks at tied timestamps, so the
    boundary sample reflects the freshly installed table).
    """

    start: float
    end: float
    #: summed scraped L1 routing churn inside the window
    weight_churn: float = 0.0
    #: "src->dst" → {"rate": bytes/s in window, "delta": vs prior window}
    egress: dict[str, dict[str, float]] = field(default_factory=dict)
    #: class → {"p95": mean scraped p95, "delta": vs prior window or None}
    latency: dict[str, dict] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "start": self.start,
            "end": self.end,
            "weight_churn": self.weight_churn,
            "egress": self.egress,
            "latency": self.latency,
        }


@dataclass
class ProvenanceRecord:
    """One epoch's full causal chain (see module docstring)."""

    epoch: int
    sim_time: float
    #: "solved" / "replayed" / "no-demand" / "outage" (control plane down)
    outcome: str
    telemetry_digest: str | None
    report_count: int
    #: class → cluster → quantized demand estimate after this observe
    demand: dict[str, dict[str, float]]
    #: class → cluster → signed change vs the previous epoch's estimate
    demand_delta: dict[str, dict[str, float]]
    #: reuse-ladder outcome from the EpochSolver recorder hook:
    #: solver_path ("replay"/"warm"/"cold"), warm_build, pricing
    #: ("certified"/"rejected"/None), formulation, n_variables, candidates
    solver: dict | None
    objective: float | None
    fingerprint: str | None
    #: class → {"added","removed","changed","churn","shift":{dst: net Δw}}
    rule_deltas: dict[str, dict]
    #: itemised largest-churn rule changes (capped at MAX_RULE_CHANGES)
    rule_changes: list[dict]
    #: total installed L1 weight churn across all classes
    weight_churn: float
    #: clusters whose stale-rule guard installed fallback rules this epoch
    fallback_clusters: tuple[str, ...] = ()
    #: filled in at the next epoch boundary (None for the final record)
    effect: EpochEffect | None = None

    def demand_delta_l1(self, traffic_class: str | None = None) -> float:
        """Total |demand movement|, optionally for one class."""
        classes = ([traffic_class] if traffic_class is not None
                   else sorted(self.demand_delta))
        return sum(abs(delta)
                   for cls in classes
                   for delta in self.demand_delta.get(cls, {}).values())

    def shift_for(self, traffic_class: str) -> dict[str, float]:
        """Net per-destination weight shift for one class."""
        entry = self.rule_deltas.get(traffic_class)
        return dict(entry["shift"]) if entry else {}

    def churn_for(self, traffic_class: str) -> float:
        entry = self.rule_deltas.get(traffic_class)
        return float(entry["churn"]) if entry else 0.0

    def as_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "sim_time": self.sim_time,
            "outcome": self.outcome,
            "telemetry_digest": self.telemetry_digest,
            "report_count": self.report_count,
            "demand": self.demand,
            "demand_delta": self.demand_delta,
            "solver": self.solver,
            "objective": self.objective,
            "fingerprint": self.fingerprint,
            "rule_deltas": self.rule_deltas,
            "rule_changes": self.rule_changes,
            "weight_churn": self.weight_churn,
            "fallback_clusters": list(self.fallback_clusters),
            "effect": self.effect.as_dict() if self.effect else None,
        }


class FlightRecorder:
    """Bounded ring of provenance records plus anomaly snapshots.

    The ring keeps the last ``capacity`` epochs (evictions are counted,
    never silent); :meth:`snapshot` freezes the ring into an immutable
    dump at an anomaly trigger.
    """

    def __init__(self, capacity: int = DEFAULT_FLIGHT_RING) -> None:
        if capacity < 2:
            raise ValueError(f"flight ring capacity must be >= 2, "
                             f"got {capacity}")
        self.capacity = capacity
        self._ring: deque[ProvenanceRecord] = deque(maxlen=capacity)
        self.dropped_records = 0
        self.snapshots: list[dict] = []
        self.dropped_snapshots = 0

    def __len__(self) -> int:
        return len(self._ring)

    def append(self, record: ProvenanceRecord) -> None:
        if len(self._ring) == self.capacity:
            self.dropped_records += 1
        self._ring.append(record)

    def records(self) -> list[ProvenanceRecord]:
        """Retained records, oldest first."""
        return list(self._ring)

    def snapshot(self, trigger: dict, run: dict,
                 timeseries: dict | None) -> dict:
        """Freeze the ring at an anomaly; returns the appended dump."""
        dump = {
            "trigger": trigger,
            "run": dict(run),
            "ring_capacity": self.capacity,
            "dropped_records": self.dropped_records,
            "records": [record.as_dict() for record in self._ring],
            "timeseries": timeseries,
        }
        if len(self.snapshots) >= MAX_SNAPSHOTS:
            del self.snapshots[0]
            self.dropped_snapshots += 1
        self.snapshots.append(dump)
        return dump


class ProvenanceLog:
    """Per-run provenance pipeline: record, join, trigger, explain.

    Fed from three directions: the control loop's one per-epoch call,
    :meth:`Observability.record_epoch
    <repro.obs.config.Observability.record_epoch>`, lands in
    :meth:`record_epoch` (and the trigger checks after that), the
    :class:`~repro.core.optimizer.warm.EpochSolver` pushes its reuse-ladder
    outcome through the duck-typed :meth:`record_solve` hook, and the
    shared :class:`~repro.obs.timeseries.TimeSeriesStore` supplies the
    next-epoch effect attribution.
    """

    def __init__(self, store: "TimeSeriesStore | None" = None,
                 ring: int = DEFAULT_FLIGHT_RING) -> None:
        self.store = store
        self.flight = FlightRecorder(ring)
        #: scenario/seed stamp for exact deterministic restore of the run
        self.run_info: dict = {}
        self._epoch = 0
        self._prev_demand: dict[str, dict[str, float]] = {}
        self._prev_rules: dict = {}
        self._pending: ProvenanceRecord | None = None
        self._prev_window: tuple[float, float] | None = None
        self._last_solve: dict | None = None
        self._seen_alerts = 0
        self._seen_faults: set = set()
        self._seen_anomalies = 0
        self._seen_predictions = 0

    # -------------------------------------------------------------- wiring

    def bind_run(self, scenario: str, seed, policy: str | None = None) -> None:
        """Stamp the run identity every snapshot carries (exact restore)."""
        self.run_info = {"scenario": scenario, "seed": seed}
        if policy is not None:
            self.run_info["policy"] = policy

    def record_solve(self, info: dict) -> None:
        """EpochSolver recorder hook: stash this epoch's ladder outcome."""
        self._last_solve = dict(info)

    def seed_rules(self, rules: dict) -> None:
        """Baseline the rule diff against the pre-epoch initial install.

        Without this, epoch 0 would claim the initial plan's rules as its
        own additions; with it, each record shows only what *that* epoch
        shipped — matching the scraped churn signal exactly. The solve
        behind the initial install is likewise no epoch's: it is dropped,
        so an epoch that plans nothing reports no solver path.
        """
        self._prev_rules = dict(rules)
        self._last_solve = None

    # ----------------------------------------------------------- recording

    def record_epoch(self, now: float, *,
                     controller: "GlobalController | None" = None,
                     update: "RuleSet | None" = None,
                     reports=(),
                     rules: dict | None = None,
                     outcome: str | None = None,
                     fallback: tuple = ()) -> ProvenanceRecord:
        """Fold one control epoch into the chain.

        Called by the harness after the epoch's plan + distribute (and in
        chaos mode after the stale-rule guard ran), with ``rules`` the
        routing table's post-epoch snapshot (``table.rules()``) — so the
        diff captures everything this epoch installed, controller updates
        and fallback installs alike. The snapshot is taken by the caller:
        this module only ever reads it (contract A01). Closing the
        *previous* record's effect window happens first, now that its end
        is known.
        """
        self._close_effect(now)

        digest = telemetry_digest(reports) if reports else None
        demand, delta = self._demand_snapshot(controller)

        solve_info = self._last_solve
        self._last_solve = None
        result = controller.last_result if controller is not None else None
        if outcome is None:
            if update is None or result is None:
                outcome = "no-demand"
            elif result.cache_hit:
                outcome = "replayed"
            else:
                outcome = "solved"
        if outcome in ("solved", "replayed"):
            if solve_info is None and result is not None:
                # recorder not attached at solve time: derive the rung
                # from the result (single derivation point, PR 8)
                solve_info = {"solver_path": result.solver_path,
                              "warm_build": result.warm_build,
                              "pricing": None}
            objective = result.objective if result is not None else None
            fingerprint = result.fingerprint if result is not None else None
        else:
            solve_info = None
            objective = None
            fingerprint = None

        if rules is None:
            rules = dict(self._prev_rules)
        per_class, changes, total_churn = self._rule_deltas(rules)
        self._prev_rules = rules

        record = ProvenanceRecord(
            epoch=self._epoch,
            sim_time=now,
            outcome=outcome,
            telemetry_digest=digest,
            report_count=len(reports),
            demand=demand,
            demand_delta=delta,
            solver=solve_info,
            objective=objective,
            fingerprint=fingerprint,
            rule_deltas=per_class,
            rule_changes=changes,
            weight_churn=total_churn,
            fallback_clusters=tuple(fallback),
        )
        self.flight.append(record)
        self._pending = record
        self._epoch += 1
        if record.fallback_clusters:
            self.record_anomaly(now, "fallback",
                                {"clusters": list(record.fallback_clusters)})
        return record

    def finalize(self, now: float) -> None:
        """Close the last record's effect window at end of run."""
        self._close_effect(now, include_end=True)

    # ------------------------------------------------------------ triggers

    def check_alerts(self, now: float, alert_log: "AlertLog") -> None:
        """Snapshot the ring for every SLO alert fired since last check."""
        while self._seen_alerts < len(alert_log.alerts):
            alert = alert_log.alerts[self._seen_alerts]
            self._seen_alerts += 1
            self.record_anomaly(now, "slo_alert", alert.as_dict())

    def check_anomalies(self, now: float, anomaly_log) -> None:
        """Snapshot the ring for every anomaly detected since last check."""
        events = anomaly_log.events
        while self._seen_anomalies < len(events):
            event = events[self._seen_anomalies]
            self._seen_anomalies += 1
            self.record_anomaly(now, "anomaly", event.as_dict())

    def check_predictions(self, now: float, predictor) -> None:
        """Snapshot the ring for every new predicted SLO breach.

        Predictions are frozen when *emitted* (not when settled): the
        interesting ring is the one that led the projection to cross the
        thresholds — the controller state you would want to inspect while
        there is still lead time to act.
        """
        predictions = predictor.predictions
        while self._seen_predictions < len(predictions):
            prediction = predictions[self._seen_predictions]
            self._seen_predictions += 1
            self.record_anomaly(now, "predicted_breach",
                                prediction.as_dict())

    def check_faults(self, now: float, timeline) -> None:
        """Snapshot the ring at chaos fault edges (duck-typed records).

        Both edges trigger: injection (the chain *into* the anomaly) and
        recovery (the chain *through* it — outage epochs, fallback
        installs, reconciliation), so the recovered dump is the one whose
        ring reaches the fallback rule install.
        """
        for fault in timeline:
            fired = getattr(fault, "fired_at", None)
            resolved = getattr(fault, "resolved_at", None)
            index = getattr(fault, "index", id(fault))
            if fired is not None and fired <= now \
                    and (index, "fired") not in self._seen_faults:
                self._seen_faults.add((index, "fired"))
                self.record_anomaly(now, "fault", fault.as_dict())
            if resolved is not None and resolved <= now \
                    and (index, "resolved") not in self._seen_faults:
                self._seen_faults.add((index, "resolved"))
                self.record_anomaly(now, "fault_recovered", fault.as_dict())

    def record_anomaly(self, now: float, reason: str, detail: dict) -> dict:
        """Freeze the ring + surrounding timeseries windows right now."""
        start, end = self._ring_span(now)
        timeseries = self._window_snapshot(start, end)
        trigger = {"reason": reason, "sim_time": now, "detail": detail}
        return self.flight.snapshot(trigger, self.run_info, timeseries)

    # ------------------------------------------------------------- queries

    @property
    def records(self) -> list[ProvenanceRecord]:
        return self.flight.records()

    @property
    def snapshots(self) -> list[dict]:
        return self.flight.snapshots

    def explain(self, traffic_class: str, at: float | None = None) -> str:
        """Render the "why did traffic for class X shift" narrative.

        ``at`` picks the newest record at or before that sim time;
        without it, the epoch with the largest installed weight churn for
        the class is explained.
        """
        records = self.records
        if not records:
            return ("no provenance records: enable provenance and run a "
                    "scenario with at least one control epoch")
        if at is not None:
            eligible = [r for r in records if r.sim_time <= at]
            record = eligible[-1] if eligible else records[0]
        else:
            # prefer rebalancing epochs (changed rules) over bulk installs
            def shift_rank(r: ProvenanceRecord):
                entry = r.rule_deltas.get(traffic_class)
                if not entry:
                    return (0, 0.0)
                return (1 if entry["changed"] else 0, entry["churn"])
            record = max(records, key=shift_rank)
        return self._narrate(record, traffic_class)

    def render(self) -> str:
        """Fixed-width text table of the ring (for the CLI)."""
        header = (f"{'epoch':>5} {'t(sim)':>8} {'outcome':<9} {'path':<6} "
                  f"{'Δdemand':>8} {'churn':>7} {'observed':>9} {'fb':>3}")
        lines = [header, "-" * len(header)]
        for r in self.records:
            path = (r.solver or {}).get("solver_path") or "-"
            observed = ("-" if r.effect is None
                        else f"{r.effect.weight_churn:.3f}")
            lines.append(
                f"{r.epoch:>5} {r.sim_time:>8.1f} {r.outcome:<9} "
                f"{path:<6} {r.demand_delta_l1():>8.1f} "
                f"{r.weight_churn:>7.3f} {observed:>9} "
                f"{len(r.fallback_clusters):>3}")
        lines.append(f"records={len(self.records)} "
                     f"snapshots={len(self.snapshots)} "
                     f"dropped={self.flight.dropped_records}")
        return "\n".join(lines)

    def to_jsonl_lines(self) -> list[str]:
        return [json.dumps(r.as_dict(), sort_keys=True)
                for r in self.records]

    # ------------------------------------------------------------- helpers

    def _demand_snapshot(self, controller):
        """Per-(class, cluster) estimates and signed deltas vs last epoch."""
        if controller is None:
            return ({cls: dict(per) for cls, per in self._prev_demand.items()},
                    {})
        demand: dict[str, dict[str, float]] = {}
        for cls in sorted(controller.app.classes):
            demand[cls] = {
                cluster: controller.demand_estimate(cls, cluster)
                for cluster in controller.deployment.cluster_names}
        delta: dict[str, dict[str, float]] = {}
        for cls in sorted(set(demand) | set(self._prev_demand)):
            new = demand.get(cls, {})
            old = self._prev_demand.get(cls, {})
            moves = {
                cluster: new.get(cluster, 0.0) - old.get(cluster, 0.0)
                for cluster in sorted(set(new) | set(old))}
            moves = {c: d for c, d in moves.items() if abs(d) > _EPSILON}
            if moves:
                delta[cls] = moves
        self._prev_demand = demand
        return demand, delta

    def _rule_deltas(self, rules):
        """Diff the installed table against the previous epoch's snapshot."""
        prev = self._prev_rules
        per_class: dict[str, dict] = {}
        changes: list[dict] = []
        total_churn = 0.0
        for key in sorted(set(rules) | set(prev),
                          key=lambda k: (k.service, k.traffic_class,
                                         k.src_cluster)):
            old = prev.get(key)
            new = rules.get(key)
            if old is None:
                diff_map = dict(new)
                kind = "added"
            elif new is None:
                diff_map = {dst: -w for dst, w in old.items()}
                kind = "removed"
            else:
                diff_map = {
                    dst: new.get(dst, 0.0) - old.get(dst, 0.0)
                    for dst in sorted(set(new) | set(old))}
                kind = "changed"
            churn = sum(abs(d) for d in diff_map.values())
            if kind == "changed" and churn <= _EPSILON:
                continue
            cls = key.traffic_class
            entry = per_class.setdefault(
                cls, {"added": 0, "removed": 0, "changed": 0,
                      "churn": 0.0, "shift": {}})
            entry[kind] += 1
            entry["churn"] += churn
            total_churn += churn
            for dst in sorted(diff_map):
                if abs(diff_map[dst]) > _EPSILON:
                    entry["shift"][dst] = (entry["shift"].get(dst, 0.0)
                                           + diff_map[dst])
            changes.append({
                "service": key.service, "class": cls,
                "src": key.src_cluster, "kind": kind,
                "old": dict(old) if old is not None else None,
                "new": dict(new) if new is not None else None,
                "churn": churn,
            })
        changes.sort(key=lambda c: (-c["churn"], c["service"], c["class"],
                                    c["src"]))
        return per_class, changes[:MAX_RULE_CHANGES], total_churn

    def _close_effect(self, now: float, include_end: bool = False) -> None:
        pending = self._pending
        if pending is None or now <= pending.sim_time:
            return
        pending.effect = self._attribute(pending.sim_time, now, include_end)
        self._prev_window = (pending.sim_time, now)
        self._pending = None

    def _attribute(self, start: float, end: float,
                   include_end: bool) -> EpochEffect | None:
        """Join the window's scraped samples back onto the decision."""
        store = self.store
        if store is None:
            return None
        effect = EpochEffect(start=start, end=end)

        def in_window(t: float) -> bool:
            return t < end or (include_end and t <= end)

        churn_series = store.series("routing_weight_churn")
        if churn_series is not None:
            effect.weight_churn = sum(
                v for t, v in churn_series.window(start, end)
                if in_window(t))

        prev = self._prev_window or (max(0.0, 2.0 * start - end), start)
        for series in store.all_series("wan_egress_bytes_total"):
            labels = dict(series.labels)
            src, dst = labels.get("src", ""), labels.get("dst", "")
            rate = store.rate("wan_egress_bytes_total", start, end,
                              src=src, dst=dst)
            before = store.rate("wan_egress_bytes_total", prev[0], prev[1],
                                src=src, dst=dst)
            if rate > _EPSILON or abs(rate - before) > _EPSILON:
                effect.egress[f"{src}->{dst}"] = {
                    "rate": rate, "delta": rate - before}

        for series in store.all_series("request_latency_p95"):
            cls = dict(series.labels).get("traffic_class", "")
            current = [v for t, v in series.window(start, end)
                       if in_window(t)]
            earlier = [v for t, v in series.window(prev[0], prev[1])
                       if t < prev[1]]
            if not current:
                continue
            p95 = sum(current) / len(current)
            entry: dict = {"p95": p95}
            entry["delta"] = (p95 - sum(earlier) / len(earlier)
                              if earlier else None)
            effect.latency[cls] = entry
        return effect

    def _ring_span(self, now: float) -> tuple[float, float]:
        """The sim-time window the retained ring covers, padded one epoch."""
        records = self.records
        if not records:
            return (now, now)
        start = records[0].sim_time
        if len(records) >= 2:
            start = max(0.0, start - (records[1].sim_time
                                      - records[0].sim_time))
        return (start, max(now, records[-1].sim_time))

    def _window_snapshot(self, start: float, end: float) -> dict | None:
        """Windowed copy of every scraped series (the dump's context)."""
        store = self.store
        if store is None:
            return None
        series_out = []
        for name in store.names():
            for series in store.all_series(name):
                points = series.window(start, end)
                if not points:
                    continue
                series_out.append({
                    "name": name,
                    "labels": dict(series.labels),
                    "points": [[t, v] for t, v in points],
                })
        return {"start": start, "end": end, "series": series_out}

    # ------------------------------------------------------------ narrative

    def _narrate(self, record: ProvenanceRecord, traffic_class: str) -> str:
        run = self.run_info
        stamp = (f" [scenario={run.get('scenario')} seed={run.get('seed')}]"
                 if run else "")
        lines = [f"why did traffic for class {traffic_class!r} shift at "
                 f"t={record.sim_time:g} (epoch {record.epoch})?{stamp}"]

        # (a) observed
        demand = record.demand.get(traffic_class, {})
        delta = record.demand_delta.get(traffic_class, {})
        moves = ", ".join(
            f"{cluster} {demand.get(cluster, 0.0) - d:g}→"
            f"{demand.get(cluster, 0.0):g} ({d:+g})"
            for cluster, d in sorted(delta.items()))
        seen = (f"{record.report_count} cluster reports "
                f"(digest {record.telemetry_digest})"
                if record.telemetry_digest else "no telemetry reports")
        lines.append(f"  observed: {seen}; demand[{traffic_class}]: "
                     f"{moves if moves else 'unchanged (plateau)'}")

        # (b) decided
        lines.append("  decided: " + self._describe_decision(record))

        # (c) shipped
        entry = record.rule_deltas.get(traffic_class)
        if entry:
            shift = ", ".join(
                f"→{dst} {d:+.3f}"
                for dst, d in sorted(entry["shift"].items(),
                                     key=lambda kv: (-abs(kv[1]), kv[0])))
            lines.append(
                f"  shipped: +{entry['added']} −{entry['removed']} "
                f"~{entry['changed']} rules for {traffic_class!r}, "
                f"churn {entry['churn']:.3f}"
                + (f"; net weight shift {shift}" if shift else ""))
            for change in record.rule_changes:
                if change["class"] != traffic_class:
                    continue
                lines.append(
                    f"    {change['kind']} {change['service']} "
                    f"@{change['src']}: {_weights(change['old'])} → "
                    f"{_weights(change['new'])}")
        else:
            lines.append(f"  shipped: no rule changes for {traffic_class!r} "
                         f"this epoch (total churn {record.weight_churn:.3f})")
        if record.fallback_clusters:
            lines.append("  fallback: stale-rule guard installed "
                         f"{'/'.join(record.fallback_clusters)} "
                         "locality rules (control plane unreachable)")

        # (d) observed effect
        effect = record.effect
        if effect is None:
            lines.append("  effect: not yet attributed "
                         "(run ended at this epoch)")
        else:
            lines.append(f"  effect over [{effect.start:g}, {effect.end:g}): "
                         f"scraped routing churn {effect.weight_churn:.3f}")
            for pair, move in sorted(effect.egress.items(),
                                     key=lambda kv: (-abs(kv[1]["delta"]),
                                                     kv[0]))[:6]:
                lines.append(f"    egress {pair}: {move['rate']:.1f} B/s "
                             f"(Δ{move['delta']:+.1f})")
            move = effect.latency.get(traffic_class)
            if move is not None:
                delta_txt = ("Δ n/a" if move.get("delta") is None
                             else f"Δ{move['delta']:+.4f}s")
                lines.append(f"    p95[{traffic_class}]: "
                             f"{move['p95']:.4f}s ({delta_txt})")

        overlapping = [s for s in self.snapshots
                       if record.sim_time <= s["trigger"]["sim_time"]
                       <= (effect.end if effect else record.sim_time)]
        for snap in overlapping:
            lines.append(f"  anomaly: {snap['trigger']['reason']} at "
                         f"t={snap['trigger']['sim_time']:g} "
                         "(flight-recorder snapshot taken)")
        return "\n".join(lines)

    @staticmethod
    def _describe_decision(record: ProvenanceRecord) -> str:
        if record.outcome == "outage":
            return ("control plane unreachable — no plan shipped "
                    "(clusters on their own)")
        if record.outcome == "no-demand":
            return "nothing to plan against yet (no demand estimate)"
        solver = record.solver or {}
        path = solver.get("solver_path")
        build = ("structure-cache rescatter build"
                 if solver.get("warm_build") else "cold model build")
        if path == "replay":
            text = ("demand fingerprint unchanged → solver-cache replay "
                    f"(no LP run, {build})")
        elif path == "warm":
            text = (f"{build} + warm restricted solve; pricing certificate "
                    "certified optimality")
        elif path == "cold":
            text = f"{build} + full cold solve"
            if solver.get("pricing") == "rejected":
                text += " (warm attempt rejected by pricing)"
        else:
            text = "solved (reuse ladder not instrumented)"
        candidates = solver.get("candidates")
        if candidates:
            text += (f"; {candidates['paths']} path candidates across "
                     f"{candidates['groups']} (class, ingress) groups "
                     f"(k={candidates['k']})")
        if record.objective is not None:
            text += f"; objective {record.objective:.4f}"
        if record.fingerprint:
            text += f"; fingerprint {record.fingerprint[:12]}"
        return text


def _weights(weights: dict | None) -> str:
    if not weights:
        return "∅"
    return "{" + ", ".join(f"{dst}:{w:.2f}"
                           for dst, w in sorted(weights.items())) + "}"
