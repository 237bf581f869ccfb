"""Spans around each layer's public entry points, recorded from outside.

Nothing under ``src/`` is edited: :meth:`Tracer.installed` replaces the
attributes listed in :data:`TARGETS` with timing wrappers and restores the
originals in a ``finally``. Self time is a span's duration minus the part
its child spans cover, so the layers partition the traced wall time.

Two kinds of record keep memory bounded:

* per-request hot calls collapse into one aggregate per (call, parent
  call) pair — count, total seconds, self seconds;
* control-plane calls (a few per epoch) additionally keep a full span:
  name, start, end, parent span id, and the epoch id they share.

Event callbacks are attributed without touching the engine: the wrappers
on ``Simulator.schedule*`` route every callback through
:meth:`Tracer._dispatch`, which charges it to the layer of the module that
defines it, so ``sim.engine.self_s`` is heap dispatch only. Callables handed
*across* a layer boundary (``transfer(on_delivered)``, ``submit(on_complete)``,
``bind(dispatch)``, ``run(on_epoch)``) are tagged the same way, so a layer is
not billed for the continuation it merely invokes.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

__all__ = ["Tracer", "Target", "TARGETS"]

_clock = time.perf_counter

#: module prefix of a callback's definition -> the self-time metric it is
#: charged to (first match wins, so longer prefixes come first)
CALLBACK_LAYERS: tuple[tuple[str, str], ...] = (
    ("repro.sim.workload", "sim.workload.self_s"),
    ("repro.sim.runner", "sim.runner.self_s"),
    ("repro.sim.service", "sim.service.self_s"),
    ("repro.sim.fluid.pool", "sim.service.self_s"),
    ("repro.sim.fluid", "sim.fluid.tick_self_s"),
    ("repro.sim.network", "sim.network.self_s"),
    ("repro.mesh.gateway", "mesh.gateway.self_s"),
    ("repro.obs", "obs.scrape_s"),
    ("repro.experiments.harness", "experiments.harness.self_s"),
)
UNATTRIBUTED = "bench.unattributed_s"

#: callback keys whose call count is itself a per-layer metric
CALLBACK_COUNTS = {
    "cb:repro.sim.workload": "sim.workload.arrivals",
    "cb:repro.sim.fluid.substrate": "sim.fluid.ticks",
}


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``owner`` is ``module`` or ``module:Class``."""

    owner: str
    attr: str
    time_metric: str
    count_metric: str | None = None
    #: keep a full span per call (control-plane calls only)
    span: bool = False
    #: (positional index counting self, keyword) of callables to tag
    callbacks: tuple[tuple[int, str], ...] = ()
    #: name of a ``Tracer._after_*`` hook fed (args, result)
    after: str | None = None


def _t(owner, attr, time_metric, count_metric=None, **kwargs) -> Target:
    return Target(owner, attr, time_metric, count_metric, **kwargs)


_OPT = "repro.core.optimizer"
_EPOCH_CB = ((3, "on_epoch"),)

TARGETS: tuple[Target, ...] = (
    # --- data plane: aggregates only
    _t("repro.sim.engine:Simulator", "run", "sim.engine.self_s"),
    _t("repro.sim.runner:MeshSimulation", "run", "sim.runner.self_s",
       callbacks=((4, "on_epoch"),)),
    _t("repro.sim.runner:MeshSimulation", "run_timeline",
       "sim.runner.self_s", callbacks=_EPOCH_CB),
    _t("repro.mesh.gateway:IngressGateway", "bind", "mesh.gateway.self_s",
       callbacks=((1, "dispatch"),)),
    _t("repro.mesh.gateway:IngressGateway", "accept", "mesh.gateway.self_s",
       "mesh.gateway.accept_calls"),
    _t("repro.mesh.gateway:IngressGateway", "complete",
       "mesh.gateway.self_s"),
    _t("repro.mesh.gateway:IngressGateway", "admit_bulk",
       "mesh.gateway.self_s", "mesh.gateway.bulk_calls"),
    _t("repro.mesh.gateway:IngressGateway", "settle_bulk",
       "mesh.gateway.self_s", "mesh.gateway.bulk_calls"),
    _t("repro.mesh.proxy:SlateProxy", "choose_cluster", "mesh.proxy.self_s",
       "mesh.proxy.choose_calls"),
    _t("repro.sim.service:ReplicaPool", "submit", "sim.service.self_s",
       "sim.service.submits", callbacks=((2, "on_complete"),)),
    _t("repro.sim.fluid.pool:FluidPool", "submit", "sim.service.self_s",
       "sim.service.submits", callbacks=((2, "on_complete"),)),
    _t("repro.sim.fluid.pool:FluidPool", "fluid_update",
       "sim.fluid.pool_update_s"),
    _t("repro.sim.network:WanNetwork", "transfer", "sim.network.self_s",
       "sim.network.transfers", callbacks=((4, "on_delivered"),)),
    _t("repro.mesh.telemetry:ProxyTelemetry", "record_span",
       "mesh.telemetry.record_s", "mesh.telemetry.spans"),
    _t("repro.mesh.telemetry:ProxyTelemetry", "harvest",
       "mesh.telemetry.harvest_s"),
    _t("repro.sim.fluid.flows:FlowModel", "propagate",
       "sim.fluid.propagate_s"),
    _t("repro.sim.fluid.flows:FlowModel", "routing_matrix",
       "sim.fluid.routing_matrix_s", "sim.fluid.routing_matrix_calls"),
    # --- control plane: aggregates plus full spans
    _t("repro.core.controller.global_controller:GlobalController",
       "observe", "core.controller.observe_s", span=True,
       after="observe"),
    _t("repro.core.controller.global_controller:GlobalController",
       "build_problem", "core.controller.build_problem_s", span=True),
    _t("repro.core.controller.global_controller:GlobalController", "plan",
       "core.controller.plan_self_s", "core.controller.epochs", span=True),
    _t("repro.core.controller.policy:SlatePolicy", "compute_rules",
       "core.controller.plan_self_s", span=True),
    _t("repro.core.controller.policy:SlatePolicy", "on_epoch",
       "core.controller.plan_self_s", span=True),
    _t(f"{_OPT}.warm:EpochSolver", "solve", "core.optimizer.solve_s",
       span=True, after="epoch_solve"),
    _t(f"{_OPT}.solve", "solve", "core.optimizer.solve_s", span=True,
       after="oracle_solve"),
    _t(f"{_OPT}.solve", "solve_model", "core.optimizer.solve_s", span=True),
    _t(f"{_OPT}.warm", "warm_solve", "core.optimizer.solve_s", span=True),
    _t(f"{_OPT}.model", "build_model", "core.optimizer.build_s", span=True,
       after="built"),
    _t(f"{_OPT}.paths", "build_path_model", "core.optimizer.build_s",
       span=True, after="built"),
    _t(f"{_OPT}.paths", "candidate_paths", "core.optimizer.candidates_s"),
    _t(f"{_OPT}.cache", "model_fingerprint", "core.optimizer.fingerprint_s",
       span=True),
    _t(f"{_OPT}.result", "extract_result", "core.optimizer.extract_s",
       span=True),
    _t(f"{_OPT}.paths", "extract_path_result", "core.optimizer.extract_s",
       span=True),
    _t("scipy.optimize", "linprog", "core.optimizer.highs_s", span=True),
    _t("scipy.optimize", "milp", "core.optimizer.highs_s", span=True),
    _t(f"{_OPT}.result:OptimizationResult", "rules", "core.rules.extract_s",
       span=True, after="rules"),
    _t("repro.core.controller.cluster_controller:ClusterController",
       "distribute", "mesh.routing_table.install_s", after="distributed"),
    _t("repro.obs.timeseries:ScrapeLoop", "sample", "obs.scrape_s",
       "obs.scrape_samples"),
    _t("repro.obs.decisions:DecisionLog", "record", "obs.epoch_records_s",
       span=True),
    _t("repro.obs.provenance:ProvenanceLog", "record_epoch",
       "obs.epoch_records_s", span=True),
    _t("repro.obs.config:Observability", "collect", "obs.collect_s",
       span=True),
    _t("repro.experiments.harness", "run_policy",
       "experiments.harness.self_s", span=True),
)

#: Simulator methods that push (callback, args) onto the heap themselves;
#: ``schedule_cancellable`` delegates to ``schedule_at_cancellable``
_SCHEDULERS = ("schedule", "schedule_at", "schedule_periodic",
               "schedule_at_cancellable")


class Tracer:
    """Aggregated self-time accounting plus control-plane spans."""

    def __init__(self) -> None:
        #: open frames, [key, seconds covered by children]; the root frame
        #: stands for the benchmark's own code
        self._stack: list[list] = [["bench", 0.0]]
        #: key -> parent key -> [count, total seconds, self seconds]
        self._agg: dict[str, dict[str, list]] = {}
        #: key -> (time metric, count metric)
        self._metric_of: dict[str, tuple[str, str | None]] = {}
        self._callback_keys: dict[str | None, str] = {}
        #: callback key -> timed ``_invoke`` (one closure per layer, so
        #: dispatching an event allocates nothing)
        self._invokers: dict[str, Callable] = {}
        self.spans: list[dict] = []
        self._open_spans: list[int] = []
        self.epoch = 0
        self.counters: dict[str, float] = {}
        self._rejects_seen: dict[int, int] = {}
        self._origin = _clock()

    # ------------------------------------------------------------ wrapping

    def _timer(self, fn: Callable, key: str) -> Callable:
        """``fn`` timed under ``key``: the hot, aggregate-only wrapper."""
        stack = self._stack
        records = self._agg.setdefault(key, {})

        def timed(*args, **kwargs):
            parent = stack[-1]
            frame = [key, 0.0]
            stack.append(frame)
            started = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _clock() - started
                stack.pop()
                parent[1] += elapsed
                record = records.get(parent[0])
                if record is None:
                    record = records[parent[0]] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[1]

        timed._e2e_traced = True
        return timed

    def _wrap(self, fn: Callable, key: str, target: Target) -> Callable:
        """The wrapper installed for one target."""
        timed = self._timer(fn, key)
        if not (target.callbacks or target.span or target.after):
            return functools.wraps(fn)(timed)
        tag = self.tag
        callbacks = target.callbacks
        span = target.span
        after = (getattr(self, f"_after_{target.after}")
                 if target.after else None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if callbacks:
                args = list(args)
                for index, name in callbacks:
                    if index < len(args):
                        if args[index] is not None:
                            args[index] = tag(args[index])
                    elif kwargs.get(name) is not None:
                        kwargs[name] = tag(kwargs[name])
            if not span:
                result = timed(*args, **kwargs)
            else:
                span_id = self._open_span(key)
                try:
                    result = timed(*args, **kwargs)
                finally:
                    self._close_span(span_id)
            if after is not None:
                after(args, result)
            return result

        wrapper._e2e_traced = True
        return wrapper

    def tag(self, fn: Callable) -> Callable:
        """A callable handed across a layer boundary, charged to the layer
        of the module that defines it."""
        if getattr(fn, "_e2e_traced", False):
            return fn
        return self._timer(fn, self._callback_key(fn))

    def _callback_key(self, fn: Callable) -> str:
        module = getattr(fn, "__module__", None)
        key = self._callback_keys.get(module)
        if key is None:
            key = self._callback_keys[module] = f"cb:{module}"
            metric = next((metric for prefix, metric in CALLBACK_LAYERS
                           if module and module.startswith(prefix)),
                          UNATTRIBUTED)
            self._metric_of[key] = (metric, CALLBACK_COUNTS.get(key))
        return key

    def _dispatch(self, callback: Callable, *args) -> None:
        """Run one engine event under its defining module's layer."""
        key = self._callback_key(callback)
        invoke = self._invokers.get(key)
        if invoke is None:
            invoke = self._invokers[key] = self._timer(_invoke, key)
        invoke(callback, *args)

    def _wrap_scheduler(self, fn: Callable) -> Callable:
        dispatch = self._dispatch

        @functools.wraps(fn)
        def scheduler(sim, when, callback, *args):
            return fn(sim, when, dispatch, callback, *args)

        return scheduler

    def _wrap_periodic(self, fn: Callable) -> Callable:
        dispatch = self._dispatch

        @functools.wraps(fn)
        def scheduler(sim, interval, callback, until, *args):
            return fn(sim, interval, dispatch, until, callback, *args)

        return scheduler

    # --------------------------------------------------------------- spans

    def _open_span(self, name: str) -> int:
        span_id = len(self.spans)
        self.spans.append({
            "id": span_id, "name": name, "epoch": self.epoch,
            "parent": self._open_spans[-1] if self._open_spans else None,
            "start": _clock() - self._origin, "end": None})
        self._open_spans.append(span_id)
        return span_id

    def _close_span(self, span_id: int) -> None:
        self.spans[span_id]["end"] = _clock() - self._origin
        self._open_spans.pop()

    # --------------------------------------------------------------- hooks

    def _bump(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _after_observe(self, args, result) -> None:
        self.epoch += 1

    def _after_epoch_solve(self, args, result) -> None:
        solver = args[0]
        path = result.solver_path
        if path == "replay":
            self._bump("core.optimizer.replays")
        elif path == "warm":
            self._bump("core.optimizer.warm_solves")
        else:
            self._bump("core.optimizer.cold_solves")
        self._bump("core.optimizer.warm_builds" if result.warm_build
                   else "core.optimizer.cold_builds")
        seen = self._rejects_seen.get(id(solver), 0)
        self._bump("core.optimizer.warm_rejects",
                   solver.warm_rejects - seen)
        self._rejects_seen[id(solver)] = solver.warm_rejects

    def _after_oracle_solve(self, args, result) -> None:
        self._bump("core.optimizer.cold_builds")
        self._bump("core.optimizer.cold_solves")

    def _after_built(self, args, model) -> None:
        nnz = int(model.a_ub.nnz + model.a_eq.nnz)
        if nnz > self.counters.get("core.optimizer.lp_nnz", -1):
            self.counters["core.optimizer.lp_nnz"] = nnz
            self.counters["core.optimizer.lp_rows"] = int(
                model.a_ub.shape[0] + model.a_eq.shape[0])
            self.counters["core.optimizer.lp_cols"] = int(model.n_variables)

    def _after_rules(self, args, rules) -> None:
        self._bump("core.rules.rules_emitted", len(rules))

    def _after_distributed(self, args, installed) -> None:
        self._bump("mesh.routing_table.rules_installed", installed)

    # ------------------------------------------------------------- install

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every target; always restore the originals."""
        patches: list[tuple[object, str, object]] = []

        def patch(owner, attr, replacement) -> None:
            patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)

        try:
            simulator = _resolve("repro.sim.engine:Simulator")
            for name in _SCHEDULERS:
                wrap = (self._wrap_periodic if name == "schedule_periodic"
                        else self._wrap_scheduler)
                patch(simulator, name, wrap(simulator.__dict__[name]))
            for target in TARGETS:
                owner = _resolve(target.owner)
                original = owner.__dict__[target.attr]
                key = f"{target.owner.rpartition(':')[2]}.{target.attr}"
                self._metric_of[key] = (target.time_metric,
                                        target.count_metric)
                wrapper = self._wrap(original, key, target)
                if isinstance(owner, type):
                    patch(owner, target.attr, wrapper)
                    continue
                # a module-level function: also patch every repro module
                # that imported it by name
                for module in list(sys.modules.values()):
                    name = getattr(module, "__name__", "")
                    if (module is owner or name.startswith("repro.")
                            ) and getattr(module, "__dict__", {}).get(
                                target.attr) is original:
                        patch(module, target.attr, wrapper)
            self._origin = _clock()
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    # ------------------------------------------------------------- results

    def _records(self) -> Iterator[tuple[str, str, list]]:
        for key, by_parent in sorted(self._agg.items()):
            for parent, record in sorted(by_parent.items()):
                yield key, parent, record

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer seconds and counts for a traced region of ``wall_s``."""
        metrics: dict[str, float] = dict(self.counters)
        calls: dict[str, int] = {}
        events = 0
        top_level = 0.0
        for key, parent, (count, total, self_s) in self._records():
            time_metric, count_metric = self._metric_of[key]
            metrics[time_metric] = metrics.get(time_metric, 0.0) + self_s
            if count_metric is not None:
                metrics[count_metric] = metrics.get(count_metric, 0) + count
            calls[key] = calls.get(key, 0) + count
            if parent == "bench":
                top_level += total
            if parent == "Simulator.run":
                events += count
        # plan() retries EpochSolver.solve once when it scales demand down
        metrics["core.controller.fallbacks"] = max(
            0, calls.get("EpochSolver.solve", 0)
            - calls.get("GlobalController.plan", 0))
        metrics["sim.engine.events"] = events
        metrics[UNATTRIBUTED] = (metrics.get(UNATTRIBUTED, 0.0)
                                 + max(0.0, wall_s - top_level))
        return metrics

    def aggregates(self) -> list[dict]:
        """One record per (call, parent call): count, total, self."""
        return [{"call": key, "parent": parent,
                 "layer_metric": self._metric_of[key][0],
                 "count": count, "total_s": total, "self_s": self_s}
                for key, parent, (count, total, self_s) in self._records()]


def _invoke(callback: Callable, *args) -> None:
    callback(*args)


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module
