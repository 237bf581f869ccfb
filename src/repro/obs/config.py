"""Observability configuration and the per-run runtime holder.

One frozen :class:`ObservabilityConfig` switches the whole layer; every
pillar defaults to off so baseline runs stay byte-identical and pay no
overhead (an untraced run keeps no span list; the runner checks a single
``is None`` per span).

:class:`Observability` is the live counterpart: it owns every pillar of
one run and is what `MeshSimulation`/`run_policy` accept. Pass a config
and the harness builds the runtime for you; pass a prebuilt runtime to
share one registry across runs.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass

from .alerts import AlertLog
from .anomaly import AnomalyEngine
from .collect import (collect_controller_metrics, collect_profiler_metrics,
                      collect_simulation_metrics)
from .decisions import DecisionLog
from .forecast import FORECAST_MODELS, BreachPredictor, ForecastEngine
from .metrics import MetricsRegistry
from .profiler import ControlPlaneProfiler
from .provenance import ProvenanceLog
from .reading import read_epoch
from .signals import SignalBus
from .slo import SloEngine, SloRule
from .timeseries import ScrapeLoop, TimeSeriesStore
from .tracing import Tracer

__all__ = ["Observability", "ObservabilityConfig"]


@dataclass(frozen=True)
class ObservabilityConfig:
    """Which observability pillars to enable for a run."""

    #: keep every span in the run's telemetry, read through a
    #: :class:`Tracer` (trace trees, exports)
    tracing: bool = False
    #: snapshot engine/pool/gateway/solver state into a metrics registry
    metrics: bool = False
    #: record one :class:`EpochDecision` per Global Controller epoch
    decisions: bool = False
    #: wall-clock profiling of control-plane sections (plan, distribute)
    profiling: bool = False
    #: scrape engine/pool/gateway/WAN/routing state into a
    #: :class:`TimeSeriesStore` every ``scrape_interval`` sim-seconds
    timeseries: bool = False
    #: SLO rules to evaluate each scrape (non-empty implies the
    #: time-series pillar — burn rates window over the scraped series)
    slo: tuple[SloRule, ...] = ()
    #: record one causal :class:`ProvenanceRecord` per control epoch into
    #: the flight recorder (implies the time-series pillar — the observed
    #: data-plane effect is attributed from the scraped series)
    provenance: bool = False
    #: fit online forecast models over scraped series each tick (implies
    #: the time-series pillar; with SLO rules, also predicts breaches)
    forecast: bool = False
    #: residual-based anomaly detection (z-score spikes + CUSUM
    #: changepoints) over scraped series (implies the time-series pillar)
    anomaly: bool = False
    #: forecast model: "ewma", "holt", or "holt-winters"
    forecast_model: str = "holt"
    #: seasonal period in sim-seconds for "holt-winters" (rounded to
    #: scrape ticks); 0 disables seasonality
    season_length: float = 0.0
    #: scrape steps ahead the forecast engine records/publishes
    forecast_horizon: int = 5
    #: sim-seconds between scrape samples
    scrape_interval: float = 1.0

    def __post_init__(self) -> None:
        if not self.scrape_interval > 0:   # NaN fails every comparison
            raise ValueError(
                f"scrape_interval must be > 0, got {self.scrape_interval}")
        if self.forecast_model not in FORECAST_MODELS:
            raise ValueError(
                f"forecast_model must be one of {FORECAST_MODELS}, "
                f"got {self.forecast_model!r}")
        if not 0 <= self.season_length < math.inf:
            raise ValueError(f"season_length must be finite and >= 0, "
                             f"got {self.season_length}")
        if self.forecast_horizon < 1:
            raise ValueError("forecast_horizon must be >= 1")
        if (self.forecast and self.forecast_model == "holt-winters"
                and self.season_length <= 0):
            raise ValueError(
                "forecast_model='holt-winters' needs season_length > 0")

    @property
    def enabled(self) -> bool:
        """True when any pillar is on."""
        return (self.tracing or self.metrics or self.decisions
                or self.profiling or self.timeseries or bool(self.slo)
                or self.provenance or self.forecast or self.anomaly)

    @property
    def season_ticks(self) -> int:
        """``season_length`` expressed in scrape ticks (0 = no season)."""
        if self.season_length <= 0:
            return 0
        return max(2, round(self.season_length / self.scrape_interval))

    @classmethod
    def off(cls) -> "ObservabilityConfig":
        """The default: everything disabled."""
        return cls()

    @classmethod
    def full(cls) -> "ObservabilityConfig":
        """Every pillar enabled (SLO rules still need explicit opt-in)."""
        return cls(tracing=True, metrics=True, decisions=True,
                   profiling=True, timeseries=True, provenance=True,
                   forecast=True, anomaly=True)


class Observability:
    """Live observability state for one run (or a shared set of runs).

    Holds one of each pillar the config switches on, None for the rest:
    the tracer (a view over the attached run's spans), the metrics
    registry, the decision log, the control-plane profiler, the time-series
    store and its scrape loop (bound by :meth:`attach`), the SLO engine and
    its alert log, the provenance log, and the signal bus with the
    forecast, anomaly and breach-prediction engines that publish on it.
    """

    def __init__(self, config: ObservabilityConfig | None = None) -> None:
        self.config = config or ObservabilityConfig()
        self.tracer: Tracer | None = (
            Tracer() if self.config.tracing else None)
        self.metrics: MetricsRegistry | None = (
            MetricsRegistry() if self.config.metrics else None)
        self.decisions: DecisionLog | None = (
            DecisionLog() if self.config.decisions else None)
        self.profiler: ControlPlaneProfiler | None = (
            ControlPlaneProfiler() if self.config.profiling else None)
        timeseries_on = (self.config.timeseries or bool(self.config.slo)
                         or self.config.provenance or self.config.forecast
                         or self.config.anomaly)
        self.timeseries: TimeSeriesStore | None = (
            TimeSeriesStore() if timeseries_on else None)
        self.alerts: AlertLog | None = (
            AlertLog() if self.config.slo else None)
        self.slo: SloEngine | None = (
            SloEngine(self.config.slo, self.timeseries, self.alerts)
            if self.config.slo else None)
        self.provenance: ProvenanceLog | None = (
            ProvenanceLog(store=self.timeseries)
            if self.config.provenance else None)
        self.signals: SignalBus | None = (
            SignalBus() if self.config.forecast or self.config.anomaly
            else None)
        self.forecast: ForecastEngine | None = (
            ForecastEngine(self.timeseries, bus=self.signals,
                           model=self.config.forecast_model,
                           season_length=self.config.season_ticks,
                           horizon=self.config.forecast_horizon)
            if self.config.forecast else None)
        self.anomaly: AnomalyEngine | None = (
            AnomalyEngine(self.timeseries, bus=self.signals)
            if self.config.anomaly else None)
        self.breach: BreachPredictor | None = (
            BreachPredictor(self.slo, self.timeseries, self.alerts,
                            bus=self.signals,
                            interval=self.config.scrape_interval)
            if self.config.forecast and self.slo is not None else None)
        #: scrape loop, bound to one simulation by :meth:`attach`
        self.scrape: ScrapeLoop | None = None

    @classmethod
    def coerce(cls, obj) -> "Observability | None":
        """Accept ``None``, a config, or a prebuilt runtime.

        ``None`` and an all-off config both coerce to ``None`` so disabled
        runs skip every hook entirely.
        """
        if obj is None:
            return None
        if isinstance(obj, Observability):
            return obj if obj.config.enabled else None
        if isinstance(obj, ObservabilityConfig):
            return cls(obj) if obj.enabled else None
        raise TypeError(
            f"expected ObservabilityConfig, Observability or None, "
            f"got {type(obj).__name__}")

    # ------------------------------------------------------------- wiring

    def attach(self, simulation) -> None:
        """Bind run-scoped context (called by ``MeshSimulation``)."""
        if self.tracer is not None:
            self.tracer = Tracer(simulation.telemetry,
                                 latency=simulation.deployment.latency)
        if self.timeseries is not None:
            self.scrape = ScrapeLoop(self.timeseries, simulation,
                                     self.config.scrape_interval,
                                     slo_engine=self.slo,
                                     forecast_engine=self.forecast,
                                     anomaly_engine=self.anomaly,
                                     breach_predictor=self.breach)

    def install_scrape(self, duration: float) -> None:
        """Schedule the scrape ticks for one run (runner hook)."""
        if self.scrape is not None:
            self.scrape.install(duration)

    def finalize_scrape(self) -> None:
        """Take the post-drain terminal sample (runner hook)."""
        if self.scrape is not None:
            self.scrape.finalize()

    # ------------------------------------------------------ the run spine
    # What the control loop (repro.experiments.harness) calls, in order:
    # begin_run, seed_rules, record_epoch per epoch, end_run. This class
    # owns the list of pillars; the loop never names one.

    def section(self, name: str):
        """Profiler section ``name`` (a no-op with profiling off)."""
        if self.profiler is None:
            return nullcontext()
        return self.profiler.section(name)

    def begin_run(self, scenario: str, seed, policy) -> None:
        """Stamp the run identity on the provenance chain."""
        if self.provenance is not None:
            self.provenance.bind_run(scenario, seed, policy=policy.name)

    def seed_rules(self, table) -> None:
        """Baseline every rule diff against the initial install."""
        rules = table.rules()
        if self.decisions is not None:
            self.decisions.seed_rules(rules)
        if self.provenance is not None:
            self.provenance.seed_rules(rules)

    def record_epoch(self, now: float, controller, update, reports, table,
                     *, outage: tuple | None = None, faults=()) -> None:
        """Read one control epoch once and fold the reading into every
        pillar that keeps epoch records, then run the flight recorder's
        anomaly triggers.

        ``controller`` is the policy's Global Controller (None for the
        baselines) and ``update`` what it shipped (None: nothing).
        ``outage`` is None while the controller was reachable; otherwise
        the clusters whose stale-rule guard installed fallback rules this
        epoch — the provenance chain still records it, the decision log
        (one row per Global Controller epoch) does not. ``faults`` is a
        chaos run's fault timeline.
        """
        provenance = self.provenance
        if self.decisions is None and provenance is None:
            return
        reading = read_epoch(now, controller, update,
                             outage=outage is not None)
        if (self.decisions is not None and controller is not None
                and outage is None):
            self.decisions.record(reading)
        if provenance is None:
            return
        provenance.record_epoch(reading, reports=reports,
                                rules=table.rules(), fallback=outage or ())
        if self.alerts is not None:
            provenance.check_alerts(now, self.alerts)
        if self.anomaly is not None:
            provenance.check_anomalies(now, self.anomaly.log)
        if self.breach is not None:
            provenance.check_predictions(now, self.breach)
        provenance.check_faults(now, faults)

    def record_invariant_failure(self, now: float, error) -> None:
        """A runtime-invariant failure is an anomaly trigger: freeze the
        flight recorder before the exception unwinds the run."""
        if self.provenance is not None:
            self.provenance.record_anomaly(now, "invariant",
                                           {"error": str(error)})

    def end_run(self, simulation, controller=None, faults=()) -> None:
        """Close the provenance chain and snapshot end-of-run metrics."""
        if self.provenance is not None:
            now = simulation.sim.now
            self.provenance.check_faults(now, faults)
            self.provenance.finalize(now)
        self.collect(simulation, controller)

    def collect(self, simulation, controller=None) -> None:
        """Snapshot end-of-run state into the metrics registry."""
        if self.metrics is None:
            return
        collect_simulation_metrics(self.metrics, simulation)
        collect_controller_metrics(self.metrics, controller)
        collect_profiler_metrics(self.metrics, self.profiler)

    def __repr__(self) -> str:
        on = [name for name in ("tracing", "metrics", "decisions",
                                "profiling", "timeseries", "provenance",
                                "forecast", "anomaly")
              if getattr(self.config, name)]
        if self.config.slo:
            on.append(f"slo[{len(self.config.slo)}]")
        return f"Observability({', '.join(on) if on else 'off'})"
