"""Scenario constructors: one per paper figure (see DESIGN.md §3).

Each ``figN_*`` function returns the :class:`Scenario` plus the policies the
figure compares, parameterised the way §4 describes. Absolute latencies will
differ from the paper's testbed (our substrate is a simulator), but the
relationships the figures demonstrate — who wins, roughly by how much, and
where behaviour changes — are reproduced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..analysis.fluid import evaluate_rules
from ..baselines.locality import LocalityFailoverPolicy
from ..baselines.waterfall import WaterfallConfig, WaterfallPolicy
from ..core.controller.global_controller import (GlobalController,
                                                 GlobalControllerConfig)
from ..core.controller.policy import SlatePolicy
from ..core.optimizer.problem import TEProblem
from ..sim.apps import (AppSpec, CallEdge, TrafficClassSpec,
                        anomaly_detection_app, linear_chain_app,
                        two_class_app)
from ..sim.network import EgressPricing, LatencyMatrix
from ..sim.request import RequestAttributes
from ..sim.rng import RngRegistry
from ..sim.topology import (ClusterSpec, DeploymentSpec,
                            gcp_four_region_latency, two_region_latency)
from ..sim.traces import DemandTimeline, diurnal_timeline
from ..sim.workload import DemandMatrix
from .harness import Scenario, run_policy

__all__ = ["ControlSetup", "FigureSetup",
           "chaos_outage_setup", "diurnal_control_setup",
           "fig6a_adaptive_setup", "slo_burnrate_setup",
           "fig6a_how_much", "fig6b_which_cluster",
           "fig6c_multihop", "fig6d_traffic_classes",
           "fig3_threshold_sweep", "fig4_offload_sweep",
           "fig4_offload_threshold_problem", "fig3_threshold_scenario",
           "locality_failover_policy", "waterfall_with_absolute_threshold",
           "planet_scale_problem", "synthetic_te_problem",
           "synthetic_topology"]


@dataclass
class FigureSetup:
    """A scenario plus the policies a figure compares."""

    scenario: Scenario
    slate: SlatePolicy
    waterfall: WaterfallPolicy

    @property
    def policies(self) -> list:
        return [self.slate, self.waterfall]


@dataclass
class ControlSetup:
    """An experiment ready to run: a scenario, the SLATE policy driving it,
    and whatever else its harness call needs.

    That is a demand ``timeline`` for time-varying load, the ``slo_rules``
    its alerts burn against, or a fault ``plan`` with the stale-rule guard
    (``max_rule_age`` + ``fallback``) that rides it out. Callers build one
    (the ``*_setup`` builders below name the paper's adaptive experiments)
    and call :meth:`run`; which harness runs it is this class's business.
    """

    scenario: Scenario
    policy: SlatePolicy
    timeline: DemandTimeline | None = None
    slo_rules: tuple = ()
    plan: object = None     # a repro.chaos.FaultPlan
    max_rule_age: float | None = None
    fallback: str | None = None

    def observability(self, **overrides):
        """The config a run of this setup wants: the decision log, plus
        scrapes and the SLO engine when the setup carries SLO rules."""
        from ..obs.config import ObservabilityConfig
        settings = dict(decisions=True)
        if self.slo_rules:
            settings.update(timeseries=True, slo=self.slo_rules,
                            scrape_interval=1.0)
        settings.update(overrides)
        return ObservabilityConfig(**settings)

    def run(self, observability=None, **options):
        """Simulate the setup; ``options`` (e.g. ``fidelity``) go to the
        harness. Returns a :class:`~repro.chaos.ChaosRunResult` when the
        setup has a fault plan, else a
        :class:`~repro.analysis.compare.PolicyOutcome`."""
        if self.plan is None:
            return run_policy(self.scenario, self.policy,
                              observability=observability,
                              timeline=self.timeline, **options)
        # deferred: chaos plugs into the harness from above
        from ..chaos.harness import run_chaos
        return run_chaos(self.scenario, self.policy, self.plan,
                         fallback=self.fallback,
                         max_rule_age=self.max_rule_age,
                         observability=observability,
                         timeline=self.timeline, **options)


def fig6a_how_much(west_rps: float = 700.0, east_rps: float = 100.0,
                   one_way_ms: float = 25.0, replicas: int = 5,
                   threshold_rho: float = 0.98,
                   duration: float = 40.0, seed: int = 42) -> FigureSetup:
    """§4.1 / Fig. 6a: *how much* to route away from an overloaded cluster.

    Linear 3-service chain in two clusters. West is overloaded (default
    700 RPS against a 500 RPS physical capacity per service); Waterfall's
    aggressive static threshold (0.98 × capacity) keeps too much traffic
    local and queues, while SLATE offloads exactly until the marginal
    queueing gain stops paying for the extra WAN RTT.
    """
    app = linear_chain_app(n_services=3, exec_time=0.010)
    deployment = DeploymentSpec.uniform(
        app.services(), ["west", "east"], replicas=replicas,
        latency=two_region_latency(one_way_ms))
    demand = DemandMatrix({("default", "west"): west_rps,
                           ("default", "east"): east_rps})
    scenario = Scenario(name="fig6a-how-much", app=app,
                        deployment=deployment, demand=demand,
                        duration=duration, warmup=duration / 5, seed=seed)
    waterfall = WaterfallPolicy(WaterfallConfig.from_deployment(
        app, deployment, threshold_rho=threshold_rho))
    slate = SlatePolicy(GlobalControllerConfig(rho_max=0.95))
    return FigureSetup(scenario, slate, waterfall)


def fig6a_adaptive_setup(duration: float, epoch: float,
                         seed: int) -> ControlSetup:
    """Fig. 6a's overload under an adaptive controller re-planning every
    ``epoch`` seconds, so the decision log has epochs to show.

    The demand quantum paired with ``learn_profiles=False`` lets the
    constant demand replay from the solver cache instead of re-solving
    (docs/performance.md).
    """
    figure = fig6a_how_much(duration=duration, seed=seed)
    policy = SlatePolicy(
        GlobalControllerConfig(rho_max=0.95, demand_quantum=25.0,
                               learn_profiles=False),
        adaptive=True)
    return ControlSetup(replace(figure.scenario, epoch=epoch), policy)


def fig6b_which_cluster(overload_rps: float = 590.0,
                        background_rps: float = 100.0,
                        replicas: int = 5, threshold_rho: float = 0.8,
                        duration: float = 40.0, seed: int = 42) -> FigureSetup:
    """§4.2 / Fig. 6b: *which cluster* to route to, on the GCP topology.

    OR and IOW are overloaded. Waterfall greedily spills both to UT — the
    nearest cluster with (independently judged) spare capacity — driving UT
    to its limit while SC idles. SLATE's global matching also uses SC.
    """
    app = linear_chain_app(n_services=3, exec_time=0.010)
    deployment = DeploymentSpec.uniform(
        app.services(), ["OR", "UT", "IOW", "SC"], replicas=replicas,
        latency=gcp_four_region_latency())
    demand = DemandMatrix({
        ("default", "OR"): overload_rps,
        ("default", "IOW"): overload_rps,
        ("default", "UT"): background_rps,
        ("default", "SC"): background_rps,
    })
    scenario = Scenario(name="fig6b-which-cluster", app=app,
                        deployment=deployment, demand=demand,
                        duration=duration, warmup=duration / 5, seed=seed)
    waterfall = WaterfallPolicy(WaterfallConfig.from_deployment(
        app, deployment, threshold_rho=threshold_rho), coordinated=False)
    slate = SlatePolicy(GlobalControllerConfig(rho_max=0.95))
    return FigureSetup(scenario, slate, waterfall)


def fig6c_multihop(west_rps: float = 300.0, east_rps: float = 100.0,
                   one_way_ms: float = 25.0,
                   threshold_rho: float = 0.8,
                   cost_weight: float = 10000.0,
                   duration: float = 40.0, seed: int = 42) -> FigureSetup:
    """§4.3 / Fig. 6c: *where in the topology* to cross clusters.

    Anomaly-detection app FR→MP→DB; DB is absent in West (regulation /
    failure). The DB→MP response is ~10x the MP→FR response, so cutting at
    MP→DB (what locality failover / Waterfall do) pays ~10x the egress of
    cutting at FR→MP (what SLATE chooses). West's MP pool is also tight, so
    multi-hop foresight wins on latency too.
    """
    app = anomaly_detection_app()
    deployment = DeploymentSpec(
        clusters=[
            ClusterSpec("west", {"FR": 4, "MP": 5}),           # no DB
            ClusterSpec("east", {"FR": 4, "MP": 8, "DB": 8}),
        ],
        latency=two_region_latency(one_way_ms),
        pricing=EgressPricing(default_price_per_gb=0.02),
    )
    demand = DemandMatrix({("default", "west"): west_rps,
                           ("default", "east"): east_rps})
    scenario = Scenario(name="fig6c-multihop", app=app,
                        deployment=deployment, demand=demand,
                        duration=duration, warmup=duration / 5, seed=seed)
    waterfall = WaterfallPolicy(WaterfallConfig.from_deployment(
        app, deployment, threshold_rho=threshold_rho))
    slate = SlatePolicy(GlobalControllerConfig(rho_max=0.95,
                                               cost_weight=cost_weight))
    return FigureSetup(scenario, slate, waterfall)


def locality_failover_policy() -> LocalityFailoverPolicy:
    """The second baseline Fig. 6c discusses."""
    return LocalityFailoverPolicy()


def fig6d_traffic_classes(west_light_rps: float = 450.0,
                          west_heavy_rps: float = 130.0,
                          east_light_rps: float = 100.0,
                          east_heavy_rps: float = 30.0,
                          one_way_ms: float = 25.0, replicas: int = 8,
                          threshold_rho: float = 0.8,
                          duration: float = 40.0, seed: int = 42) -> FigureSetup:
    """§4.4 / Fig. 6d: *which subset* (traffic class) to route away.

    One chain serves cheap L and expensive H requests (3 ms vs 45 ms). West
    is overloaded by H volume. Waterfall offloads the same fraction of every
    class — many requests pay the WAN RTT for little load relief — while
    SLATE moves mostly H requests: fewer crossings, better balance.
    """
    app = two_class_app(light_exec=0.003, heavy_exec=0.045, n_services=2)
    deployment = DeploymentSpec.uniform(
        app.services(), ["west", "east"], replicas=replicas,
        latency=two_region_latency(one_way_ms))
    demand = DemandMatrix({
        ("L", "west"): west_light_rps,
        ("H", "west"): west_heavy_rps,
        ("L", "east"): east_light_rps,
        ("H", "east"): east_heavy_rps,
    })
    scenario = Scenario(name="fig6d-traffic-classes", app=app,
                        deployment=deployment, demand=demand,
                        duration=duration, warmup=duration / 5, seed=seed)
    waterfall = WaterfallPolicy(WaterfallConfig.from_deployment(
        app, deployment, threshold_rho=threshold_rho))
    slate = SlatePolicy(GlobalControllerConfig(rho_max=0.95))
    return FigureSetup(scenario, slate, waterfall)


def diurnal_control_setup(base_rps: float = 150.0,
                          amplitude: float = 0.5,
                          duration: float = 240.0,
                          epoch: float = 10.0,
                          demand_quantum: float = 25.0,
                          replicas: int = 5,
                          seed: int = 42,
                          period: float | None = None
                          ) -> ControlSetup:
    """Adaptive SLATE under follow-the-sun diurnal demand (§2, §5).

    Two clusters carry opposite-phase sinusoidal demand over one full
    period (``period`` defaults to ``duration``; pass a divisor of the
    duration to fit several cycles — what the Holt–Winters forecaster's
    seasonal component wants to see), with the adaptive Global Controller
    re-planning every epoch.
    With ``demand_quantum`` hysteresis, epochs near the sinusoid's flat
    peaks quantize to the same demand estimate and **replay** the cached
    solve, while the steep flanks shift the estimate past a quantum and
    force a fresh **re-plan** — the exact mix the decision log
    (``repro obs decisions``) exists to make visible.
    """
    app = linear_chain_app(n_services=3, exec_time=0.010)
    deployment = DeploymentSpec.uniform(
        app.services(), ["west", "east"], replicas=replicas,
        latency=two_region_latency(25.0))
    base = DemandMatrix({("default", "west"): base_rps,
                         ("default", "east"): base_rps})
    timeline = diurnal_timeline(
        base, duration, period=period if period is not None else duration,
        amplitude=amplitude,
        phase_by_cluster={"west": 0.0, "east": math.pi},
        steps_per_period=12)
    scenario = Scenario(name="diurnal-control", app=app,
                        deployment=deployment, demand=base,
                        duration=duration, warmup=duration / 6,
                        seed=seed, epoch=epoch)
    policy = SlatePolicy(
        # trust the spec's compute times (see docs/performance.md): with
        # profile learning on, learned exec times jitter every epoch and no
        # two models would ever repeat, hiding the hysteresis behaviour
        # this setup exists to demonstrate
        GlobalControllerConfig(rho_max=0.95,
                               demand_quantum=demand_quantum,
                               learn_profiles=False),
        adaptive=True)
    return ControlSetup(scenario, policy, timeline=timeline)


def slo_burnrate_setup(base_rps: float = 250.0,
                       surge_rps: float = 650.0,
                       background_rps: float = 100.0,
                       surge_start: float = 40.0,
                       surge_end: float = 100.0,
                       duration: float = 180.0,
                       epoch: float = 10.0,
                       latency_target: float = 0.25,
                       replicas: int = 5,
                       seed: int = 42) -> ControlSetup:
    """A demand surge that burns a latency SLO until the controller reacts.

    Linear 3-service chain in two clusters (per-service capacity ≈
    ``replicas / exec_time`` = 500 RPS). West starts comfortable at
    ``base_rps``, surges past local capacity to ``surge_rps`` over
    ``[surge_start, surge_end)``, then recovers. The initial plan (computed
    for the base demand) keeps everything local, so the surge queues in
    West and the latency SLO's fast *and* slow burn windows blow through
    their thresholds → the alert fires. The adaptive Global Controller
    re-plans at the next epoch boundary and offloads the overflow to East;
    queues drain, burn rates fall back under both thresholds, and the
    alert resolves — a firing interval that *overlaps* a fresh ``solved``
    decision in the decision log (asserted in ``tests/test_obs_slo.py``).
    """
    from ..obs.slo import default_latency_slo

    app = linear_chain_app(n_services=3, exec_time=0.010)
    deployment = DeploymentSpec.uniform(
        app.services(), ["west", "east"], replicas=replicas,
        latency=two_region_latency(25.0))
    base = DemandMatrix({("default", "west"): base_rps,
                         ("default", "east"): background_rps})
    surge = DemandMatrix({("default", "west"): surge_rps,
                          ("default", "east"): background_rps})
    # short runs (CLI --duration) may end mid-surge: drop unreached frames
    keyframes = [(time, demand) for time, demand
                 in [(0.0, base), (surge_start, surge), (surge_end, base)]
                 if time < duration]
    timeline = DemandTimeline(keyframes=keyframes, end=duration)
    scenario = Scenario(name="slo-burnrate", app=app,
                        deployment=deployment, demand=base,
                        duration=duration, warmup=duration / 6,
                        seed=seed, epoch=epoch)
    policy = SlatePolicy(
        # fixed exec profiles for the same reason as diurnal_control_setup:
        # the demonstration needs repeatable solve/replay behaviour
        GlobalControllerConfig(rho_max=0.95, demand_quantum=25.0,
                               learn_profiles=False),
        adaptive=True)
    rules = (default_latency_slo(latency_target, budget=0.02,
                                 fast_window=10.0, slow_window=30.0,
                                 fast_burn=4.0, slow_burn=1.0),)
    return ControlSetup(scenario, policy, timeline=timeline,
                        slo_rules=rules)


def chaos_outage_setup(west_rps: float = 480.0,
                       east_rps: float = 100.0,
                       one_way_ms: float = 25.0,
                       fault_start: float = 10.0,
                       fault_duration: float = 14.0,
                       wan_multiplier: float = 20.0,
                       duration: float = 40.0,
                       epoch: float = 2.0,
                       max_rule_age: float = 5.0,
                       fallback: str = "locality",
                       replicas: int = 5,
                       seed: int = 42) -> ControlSetup:
    """§5 challenge campaign: Global Controller outage + WAN degradation.

    West runs hot (default 480 RPS against a 500 RPS per-service
    capacity), so SLATE's plan offloads part of the traffic to East —
    worth 2×25 ms of WAN RTT to escape the M/M/c queueing knee. At
    ``fault_start`` the Global Controller goes dark *and* the west<->east
    link degrades ``wan_multiplier``-fold: the frozen offload rules now
    pay ~1 s RTT per crossing. A Cluster Controller armed with
    ``max_rule_age`` + a local fallback detects the stale rules within a
    few epochs and fails over to local-first routing (p95 drops back to
    local queueing, ~3× better than frozen rules); when the controller
    returns it re-plans against the healed matrix and reconciles the
    fallback. ``fallback="none"`` disarms the guard: the stale rules stay
    frozen. :meth:`ControlSetup.run` runs the campaign;
    :meth:`~repro.chaos.ChaosRunResult.resilience` scores it.
    """
    from ..chaos.plan import ControlPlaneOutage, FaultPlan, WanFault

    app = linear_chain_app(n_services=3, exec_time=0.010)
    deployment = DeploymentSpec.uniform(
        app.services(), ["west", "east"], replicas=replicas,
        latency=two_region_latency(one_way_ms))
    demand = DemandMatrix({("default", "west"): west_rps,
                           ("default", "east"): east_rps})
    scenario = Scenario(name="chaos-outage", app=app,
                        deployment=deployment, demand=demand,
                        duration=duration, warmup=duration / 8,
                        seed=seed, epoch=epoch)
    policy = SlatePolicy(
        GlobalControllerConfig(rho_max=0.95, learn_profiles=False),
        adaptive=True)
    plan = FaultPlan((
        ControlPlaneOutage(start=fault_start, duration=fault_duration),
        WanFault(start=fault_start, duration=fault_duration,
                 src="west", dst="east", multiplier=wan_multiplier),
    ))
    if fallback == "none":      # frozen stale rules: the guard stays disarmed
        fallback, max_rule_age = None, None
    return ControlSetup(scenario, policy, plan=plan,
                        max_rule_age=max_rule_age, fallback=fallback)


def fig4_offload_threshold_problem(one_way_ms: float, west_rps: float,
                                   east_rps: float = 100.0,
                                   replicas: int = 6) -> Scenario:
    """§4.1 / Fig. 4: the empirical offload point SLATE computes.

    Two clusters, East held at 100 RPS, West swept 100→1000 RPS, WAN one-way
    latency in {5, 25, 50} ms. The bench solves SLATE's optimizer at each
    point and reports the locally served RPS — the "threshold" curve whose
    break point moves with network latency.
    """
    app = linear_chain_app(n_services=3, exec_time=0.010)
    deployment = DeploymentSpec.uniform(
        app.services(), ["west", "east"], replicas=replicas,
        latency=two_region_latency(one_way_ms))
    demand = DemandMatrix({("default", "west"): west_rps,
                           ("default", "east"): east_rps})
    return Scenario(name=f"fig4-owd{one_way_ms:g}ms-west{west_rps:g}",
                    app=app, deployment=deployment, demand=demand,
                    duration=30.0, warmup=5.0)


def fig3_threshold_scenario(west_rps: float, east_rps: float = 100.0,
                            one_way_ms: float = 25.0,
                            replicas: int = 5) -> Scenario:
    """§4.1 / Fig. 3: the static-threshold pathology.

    The bench evaluates Waterfall with a conservative threshold, an
    aggressive threshold, and SLATE over a load sweep: the conservative
    threshold wastes WAN RTTs at low load, the aggressive one queues at
    high load, and no single static value matches SLATE everywhere.
    """
    app = linear_chain_app(n_services=3, exec_time=0.010)
    deployment = DeploymentSpec.uniform(
        app.services(), ["west", "east"], replicas=replicas,
        latency=two_region_latency(one_way_ms))
    demand = DemandMatrix({("default", "west"): west_rps,
                           ("default", "east"): east_rps})
    return Scenario(name=f"fig3-west{west_rps:g}", app=app,
                    deployment=deployment, demand=demand,
                    duration=30.0, warmup=5.0)


def waterfall_with_absolute_threshold(app: AppSpec,
                                      deployment: DeploymentSpec,
                                      rps_threshold: float) -> WaterfallPolicy:
    """Waterfall with one static RPS threshold for every pool (Fig. 3)."""
    capacities = {
        (service, cluster.name): rps_threshold
        for cluster in deployment.clusters
        for service, count in cluster.replicas.items() if count > 0
    }
    return WaterfallPolicy(WaterfallConfig(capacities))


#: Fig. 3's West loads (RPS) and its two static Waterfall thresholds (RPS)
FIG3_WEST_LOADS = (150.0, 250.0, 350.0, 420.0, 470.0)
FIG3_CONSERVATIVE_RPS = 250.0
FIG3_AGGRESSIVE_RPS = 480.0


def fig3_threshold_sweep() -> list[list[float]]:
    """Fig. 3's table, one row per West load: the load, then the mean
    latency (ms) under the conservative threshold, the aggressive one, and
    SLATE.

    Evaluated with the fluid model (the sweep needs many points; the
    simulator cross-validates the fluid model elsewhere).
    """
    rows = []
    for west_rps in FIG3_WEST_LOADS:
        scenario = fig3_threshold_scenario(west_rps)
        ctx = scenario.context()
        row = [west_rps]
        for policy in (
                waterfall_with_absolute_threshold(
                    scenario.app, scenario.deployment, FIG3_CONSERVATIVE_RPS),
                waterfall_with_absolute_threshold(
                    scenario.app, scenario.deployment, FIG3_AGGRESSIVE_RPS),
                SlatePolicy()):
            rules = policy.compute_rules(ctx)
            prediction = evaluate_rules(scenario.app, scenario.deployment,
                                        scenario.demand, rules)
            row.append(prediction.mean_latency * 1000)
        rows.append(row)
    return rows


#: Fig. 4's WAN one-way latencies (ms) and West loads (RPS)
FIG4_ONE_WAY_MS = (5.0, 25.0, 50.0)
FIG4_WEST_LOADS = tuple(float(rps) for rps in range(100, 1001, 100))


def fig4_offload_sweep() -> dict[float, list[float]]:
    """Fig. 4's curves: for each one-way latency in ``FIG4_ONE_WAY_MS``, the
    RPS SLATE's optimizer serves locally at West for each load in
    ``FIG4_WEST_LOADS``."""
    series = {}
    for one_way_ms in FIG4_ONE_WAY_MS:
        local_rps = []
        for west_rps in FIG4_WEST_LOADS:
            scenario = fig4_offload_threshold_problem(one_way_ms, west_rps)
            result = GlobalController.oracle(
                scenario.app, scenario.deployment, scenario.demand)
            local_rps.append(
                result.ingress_local_fraction("default", "west") * west_rps)
        series[one_way_ms] = local_rps
    return series


# --------------------------------------------------------------- synthetic
# Planet-scale synthetic instances for the scalability benchmarks. All
# randomness flows through RngRegistry streams (D01), so a given
# (dimensions, seed) pair names exactly one problem on every machine.

def synthetic_topology(n_clusters: int, seed: int = 0,
                       base_delay_ms: float = 5.0,
                       spread_delay_ms: float = 60.0) -> LatencyMatrix:
    """Deterministic n-cluster WAN: seeded points on a unit square.

    Each cluster gets a 2-D coordinate from the ``synthetic-topology``
    RNG stream; one-way delay between two clusters is ``base_delay_ms``
    plus ``spread_delay_ms`` scaled by their Euclidean distance, which
    yields the triangle-inequality-respecting spread (a few ms regional,
    tens of ms cross-ocean) that nearest-cluster pruning expects. Cluster
    names are zero-padded (``c000`` ...) so lexical order is index order.
    """
    if n_clusters < 1:
        raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
    rng = RngRegistry(seed=seed).stream(f"synthetic-topology/{n_clusters}")
    width = max(3, len(str(n_clusters - 1)))
    names = [f"c{index:0{width}d}" for index in range(n_clusters)]
    coords = [(float(rng.random()), float(rng.random()))
              for _ in range(n_clusters)]
    delays = {}
    for i in range(n_clusters):
        for j in range(i + 1, n_clusters):
            dx = coords[i][0] - coords[j][0]
            dy = coords[i][1] - coords[j][1]
            distance = math.hypot(dx, dy)
            delays[(names[i], names[j])] = (
                base_delay_ms + spread_delay_ms * distance) / 1000.0
    return LatencyMatrix(names, delays)


def synthetic_te_problem(n_clusters: int, n_services: int, n_classes: int,
                         rps_per_class: float = 50.0,
                         exec_time: float = 0.005,
                         replication: float = 1.0,
                         ingresses_per_class: int | None = None,
                         replicas: int | None = None,
                         seed: int = 0,
                         headroom: float = 2.0,
                         **problem_kwargs) -> TEProblem:
    """Seeded synthetic TE instance for scaling sweeps.

    Every traffic class is a linear chain over the same ``n_services``
    fleet (the worst case for model size: all classes touch all
    services). Two knobs make planet scale tractable:

    ``replication``
        Fraction of clusters each service is deployed in (1.0 = deployed
        everywhere). Partial placements pick a seeded subset per service,
        rotated so load spreads across the fleet.
    ``ingresses_per_class``
        When set, each class receives demand at only this many seeded
        ingress clusters instead of all of them — the sparse-demand
        regime where the path formulation's variable count stops scaling
        with cluster count.

    ``replicas`` defaults to a per-deployed-cluster count sized so fleet
    capacity is ``headroom`` times the offered load — large instances
    stay feasible without hand-tuning.
    """
    if replication <= 0 or replication > 1:
        raise ValueError(f"replication must be in (0, 1], got {replication}")
    latency = synthetic_topology(n_clusters, seed=seed)
    clusters = list(latency.clusters)
    services = [f"svc{index}" for index in range(n_services)]
    registry = RngRegistry(seed=seed)

    classes = {}
    for index in range(n_classes):
        name = f"class{index}"
        classes[name] = TrafficClassSpec(
            name=name,
            attributes=RequestAttributes.make(services[0], "GET", f"/{name}"),
            root_service=services[0],
            edges=[CallEdge(services[i], services[i + 1])
                   for i in range(n_services - 1)],
            exec_time={service: exec_time for service in services},
        )
    app = AppSpec(name="synthetic", classes=classes)

    if ingresses_per_class is None:
        demand = {(cls, cluster): rps_per_class
                  for cls in classes for cluster in clusters}
    else:
        if not 1 <= ingresses_per_class <= n_clusters:
            raise ValueError(
                f"ingresses_per_class must be in [1, {n_clusters}], "
                f"got {ingresses_per_class}")
        ingress_rng = registry.stream("synthetic-demand/ingresses")
        demand = {}
        for cls in sorted(classes):
            chosen = ingress_rng.choice(len(clusters),
                                        size=ingresses_per_class,
                                        replace=False)
            for slot in sorted(int(i) for i in chosen):
                demand[(cls, clusters[slot])] = rps_per_class

    deployed_per_service = max(1, round(replication * n_clusters))
    if replicas is None:
        offered = rps_per_class * n_classes * (
            n_clusters if ingresses_per_class is None else ingresses_per_class)
        replicas = max(2, math.ceil(
            headroom * offered * exec_time / deployed_per_service))
    placement_rng = registry.stream("synthetic-deployment/placement")
    placements: dict[str, dict[str, int]] = {c: {} for c in clusters}
    for service in services:
        if deployed_per_service >= n_clusters:
            chosen = range(n_clusters)
        else:
            chosen = sorted(int(i) for i in placement_rng.choice(
                n_clusters, size=deployed_per_service, replace=False))
        for slot in chosen:
            placements[clusters[slot]][service] = replicas
    deployment = DeploymentSpec(
        [ClusterSpec(name, placements[name]) for name in clusters],
        latency)

    return TEProblem.from_specs(app, deployment,
                                DemandMatrix(demand), **problem_kwargs)


def planet_scale_problem(n_clusters: int = 100, n_services: int = 5,
                         n_classes: int = 1000,
                         seed: int = 0, **kwargs) -> TEProblem:
    """The planet-scale instance: 100 clusters x 1000 classes.

    Sparse by construction — each class enters at 2 seeded ingress
    clusters and each service is deployed in 20% of the fleet — because
    that is the regime the path formulation (`formulation="path"`) is
    built for: path-variable count tracks demand entries, not clusters,
    and ``path_prune_limit`` keeps each hop's candidates to the nearest
    deployment sites. ``bench_optimizer.py::test_planet_scale`` plans it
    with ``path_k=6, path_prune_limit=8`` inside one control epoch.
    """
    kwargs.setdefault("ingresses_per_class", 2)
    kwargs.setdefault("replication", 0.2)
    return synthetic_te_problem(n_clusters, n_services, n_classes,
                                seed=seed, **kwargs)
