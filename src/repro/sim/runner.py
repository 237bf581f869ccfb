"""End-to-end simulation runs.

:class:`MeshSimulation` assembles the whole testbed the paper builds on
Kubernetes: clusters with replica pools, a WAN, per-cluster SLATE-proxies
and ingress gateways, a shared routing table, and open-loop traffic sources.
It executes each request's per-class call tree:

1. the gateway classifies the request and picks the root service's cluster
   through the local proxy (this is the "where in the topology to cut"
   ingress hop);
2. each service occupies a replica for its compute time, then invokes its
   child edges (sequentially, or in parallel for fan-out nodes), each child
   routed by the proxy of the *parent's* cluster;
3. responses propagate back up, crossing the WAN (delay + egress billing)
   wherever the call did.

An optional epoch loop harvests per-cluster telemetry and hands it to a
routing policy — the Cluster Controller → Global Controller cycle of §3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

from ..devtools import invariants
from ..mesh.gateway import Classifier, IngressGateway
from ..mesh.proxy import SlateProxy
from ..mesh.routing_table import RoutingTable
from ..mesh.telemetry import ClusterEpochReport, RunTelemetry
from .apps import AppSpec, TrafficClassSpec
from .cache import EdgeCache
from .cluster import Cluster
from .engine import Simulator
from .network import WanNetwork
from .request import Request, RequestIdAllocator, Span
from .rng import RngRegistry
from .topology import DeploymentSpec
from .workload import DemandMatrix, install_sources

__all__ = ["MeshSimulation", "EpochHook", "TimeoutPolicy"]


@dataclass(frozen=True)
class TimeoutPolicy:
    """Per-call deadline, retry, and hedging behaviour.

    A call (including its entire downstream subtree and the response
    transfer) that exceeds ``call_timeout`` is abandoned; the orphaned work
    keeps consuming resources downstream (as in real systems), but its
    response is dropped. Up to ``max_attempts - 1`` retries re-route the
    call — excluding the timed-out cluster when an alternative exists —
    and exhausting all attempts fails the whole request.

    ``hedge_delay`` enables tail-cutting hedged requests: if a call has not
    responded within the delay, a *duplicate* is issued to another cluster
    and the first response wins (the loser is dropped, its downstream work
    orphaned). Hedging is per call, once, and independent of the deadline.
    Beware: a hedge duplicates the call's *entire downstream subtree*, so
    use it on leaf-ish calls with a straggler-level delay — an aggressive
    delay on a deep call tree multiplies load and can go supercritical.
    """

    call_timeout: float
    max_attempts: int = 2
    exclude_failed_cluster: bool = True
    hedge_delay: float | None = None

    def __post_init__(self) -> None:
        if self.call_timeout <= 0:
            raise ValueError("call_timeout must be > 0")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.hedge_delay is not None:
            if self.hedge_delay <= 0:
                raise ValueError("hedge_delay must be > 0")
            if self.hedge_delay >= self.call_timeout:
                raise ValueError("hedge_delay must precede the deadline")


class EpochHook(Protocol):
    """Called at every epoch boundary with the clusters' telemetry reports."""

    def __call__(self, reports: list[ClusterEpochReport],
                 simulation: "MeshSimulation") -> None: ...


class MeshSimulation:
    """A multi-cluster microservice deployment under simulation."""

    SERVICE_MODELS = ("pool", "replicas")
    INTRA_LBS = ("round-robin", "least-outstanding")
    #: how a run realises demand: per-request events, bulk fluid flow, or
    #: fluid bulk plus a deterministic sampled event-level slice
    FIDELITIES = ("event", "fluid", "hybrid")

    def __init__(self, app: AppSpec, deployment: DeploymentSpec,
                 seed: int = 0, classifier: Classifier | None = None,
                 keep_spans: bool = False,
                 deterministic_exec: bool = False,
                 trace_sample_rate: float = 0.0,
                 service_model: str = "pool",
                 intra_lb: str = "least-outstanding",
                 timeouts: TimeoutPolicy | None = None,
                 observability=None,
                 latency_reservoir: int | None = None,
                 fidelity: str = "event",
                 sample_rate: float = 0.05,
                 fluid_tick: float = 0.1) -> None:
        self.app = app
        self.deployment = deployment
        self.sim = Simulator()
        self.rngs = RngRegistry(seed)
        #: run-scoped id allocator: request ids restart at 1 per simulation
        #: so exports are a pure function of the seed
        self.request_ids = RequestIdAllocator()
        self.network = WanNetwork(self.sim, deployment.latency,
                                  deployment.pricing)
        self.table = RoutingTable()
        # the reservoir rng is a named stream, so enabling sampling cannot
        # perturb routing/exec/arrival draws of an otherwise-identical run
        self.telemetry = RunTelemetry(
            keep_spans=keep_spans,
            reservoir_size=latency_reservoir,
            rng=(self.rngs.stream("telemetry/reservoir")
                 if latency_reservoir is not None else None))
        # observability (repro.obs) accepts a config or a prebuilt runtime;
        # None/all-off coerces to None so the hot path pays one `is None`.
        # This deferred import is the one sanctioned sim->obs edge: the
        # runner is the attach point, and keeping the import inside
        # __init__ keeps every sim module free of obs imports at load
        # time (no eager edge, no cycle — only this call-time one).
        from ..obs.config import Observability   # lint: ignore[A04]
        self.observability = Observability.coerce(observability)
        self._obs_tracer = (self.observability.tracer
                            if self.observability is not None else None)
        if self.observability is not None:
            self.observability.attach(self)
        self._deterministic_exec = deterministic_exec
        self._timeouts = timeouts
        #: calls lost to a service that failed while they were in flight
        self.dropped_calls = 0
        #: call attempts abandoned after exceeding the deadline
        self.timed_out_calls = 0
        #: duplicate calls launched by the hedging policy
        self.hedged_calls = 0
        #: per-(caller, callee, cluster) edge caches, created on demand
        self._caches: dict[tuple[str, str, str], EdgeCache] = {}

        if service_model not in self.SERVICE_MODELS:
            raise ValueError(f"unknown service_model {service_model!r}; "
                             f"choose from {self.SERVICE_MODELS}")
        if intra_lb not in self.INTRA_LBS:
            raise ValueError(f"unknown intra_lb {intra_lb!r}; "
                             f"choose from {self.INTRA_LBS}")
        if fidelity not in self.FIDELITIES:
            raise ValueError(f"unknown fidelity {fidelity!r}; "
                             f"choose from {self.FIDELITIES}")
        if fidelity != "event" and service_model != "pool":
            raise ValueError(
                "fluid/hybrid fidelity models pools as M/M/c aggregates; "
                "service_model='replicas' only makes sense in event mode")
        if not 0.0 < sample_rate <= 1.0:
            raise ValueError(
                f"sample_rate must be in (0, 1], got {sample_rate}")
        if fluid_tick <= 0:
            raise ValueError(f"fluid_tick must be > 0, got {fluid_tick}")
        self.fidelity = fidelity
        self._sample_rate = sample_rate
        self._fluid_tick = fluid_tick
        #: the bulk-flow driver, set once a fluid/hybrid run starts
        self.fluid = None
        pool_factory = None
        if fidelity != "event":
            from .fluid.pool import FluidPool
            rng_for = self.rngs.stream

            def pool_factory(sim, service, cluster, replicas):
                # named wait streams: enabling the sampled slice cannot
                # perturb any other stream of an otherwise-identical run
                return FluidPool(
                    sim, service, cluster, replicas,
                    rng=rng_for(f"fluid/wait/{service}/{cluster}"))
        elif service_model == "replicas":
            from ..mesh.loadbalancer import (LeastOutstandingBalancer,
                                             RoundRobinBalancer)
            from .replicas import ReplicaSet

            def pool_factory(sim, service, cluster, replicas):
                balancer = (RoundRobinBalancer()
                            if intra_lb == "round-robin"
                            else LeastOutstandingBalancer())
                return ReplicaSet(sim, service, cluster, replicas, balancer)

        self.clusters: dict[str, Cluster] = {}
        self.proxies: dict[str, SlateProxy] = {}
        self.gateways: dict[str, IngressGateway] = {}
        for spec in deployment.clusters:
            cluster = Cluster(self.sim, spec, pool_factory=pool_factory)
            proxy = SlateProxy(spec.name, self.table, deployment,
                               deployment.latency,
                               self.rngs.stream(f"route/{spec.name}"),
                               trace_sample_rate=trace_sample_rate)
            gateway = IngressGateway(spec.name, proxy.telemetry,
                                     self.telemetry, classifier)
            gateway.bind(self._dispatch)
            self.clusters[spec.name] = cluster
            self.proxies[spec.name] = proxy
            self.gateways[spec.name] = gateway

    # ----------------------------------------------------------- ingestion

    def accept(self, request: Request) -> None:
        """Admit a request at its ingress cluster's gateway."""
        self.gateways[request.ingress_cluster].accept(request)

    def set_classifier(self, classifier: Classifier) -> None:
        for gateway in self.gateways.values():
            gateway.set_classifier(classifier)

    # ----------------------------------------------------- fault injection

    def fail_service(self, cluster: str, service: str) -> None:
        """Kill a service in one cluster (§2: "temporary service failure").

        The replica pool is removed — jobs queued or running there are lost
        (counted in ``dropped_calls``, no span recorded) and, without a
        :class:`TimeoutPolicy` to retry them, their requests never complete:
        they stay in the gateway's ``open_requests``, like real
        timeout-less calls. The deployment view is updated, so
        proxies immediately stop selecting the failed location: installed
        rules pointing at it are filtered and the locality-failover default
        takes over until the controller re-plans.
        """
        if service not in self.clusters[cluster].pools:
            raise KeyError(
                f"service {service!r} is not running in {cluster!r}")
        self.clusters[cluster].undeploy(service)
        self.deployment.cluster(cluster).replicas[service] = 0

    def restore_service(self, cluster: str, service: str,
                        replicas: int) -> None:
        """Bring a service (back) up in one cluster."""
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.deployment.cluster(cluster).replicas[service] = replicas
        self.clusters[cluster].deploy(service, replicas)

    # ------------------------------------------------------------- running

    def run(self, demand: DemandMatrix, duration: float,
            epoch: float | None = None,
            on_epoch: EpochHook | None = None,
            deterministic_arrivals: bool = False) -> None:
        """Drive ``demand`` for ``duration`` seconds, then drain.

        With ``epoch`` set, telemetry is harvested every ``epoch`` seconds
        and passed to ``on_epoch`` — the control loop. The final partial
        epoch is harvested after the drain.

        In fluid/hybrid fidelity the constant demand is lowered to a
        one-keyframe timeline and driven by the fluid substrate; the
        event-fidelity path below is untouched byte for byte.
        """
        if duration <= 0:
            raise ValueError(f"duration must be > 0, got {duration}")
        self._check_demand(demand)
        if self.fidelity != "event":
            from .traces import DemandTimeline
            self.run_timeline(
                DemandTimeline.constant(demand, duration), epoch=epoch,
                on_epoch=on_epoch,
                deterministic_arrivals=deterministic_arrivals)
            return
        install_sources(
            self.sim, demand, duration,
            attributes_for=lambda cls: self.app.traffic_class(cls).attributes,
            accept_for=lambda cluster: self.gateways[cluster].accept,
            rng_for=self.rngs.stream,
            deterministic=deterministic_arrivals,
            request_ids=self.request_ids,
        )
        if epoch is not None:
            if epoch <= 0:
                raise ValueError(f"epoch must be > 0, got {epoch}")
            boundary = epoch
            while boundary < duration:
                self.sim.schedule_at(boundary, self._epoch_tick, on_epoch)
                boundary += epoch
        # scrape ticks are installed after the epoch loop so a tied
        # timestamp orders epoch-first: a scrape at an epoch boundary then
        # sees the freshly planned routing table
        if self.observability is not None:
            self.observability.install_scrape(duration)
        if invariants.invariants_enabled():
            invariants.check_routing_table(self.table)
        self.sim.run(until=duration)
        self.sim.run_until_idle()
        if epoch is not None:
            self._epoch_tick(on_epoch)
        if self.observability is not None:
            self.observability.finalize_scrape()
        self._verify_invariants()

    def run_timeline(self, timeline, epoch: float | None = None,
                     on_epoch: EpochHook | None = None,
                     deterministic_arrivals: bool = False) -> None:
        """Drive a :class:`~repro.sim.traces.DemandTimeline`, then drain.

        The time-varying counterpart of :meth:`run`: one source per
        (class, cluster) entry follows its piecewise rate profile.
        """
        duration = timeline.end
        if duration <= 0:
            raise ValueError("timeline must end after t=0")
        self._install_workload(timeline, deterministic_arrivals)
        if epoch is not None:
            if epoch <= 0:
                raise ValueError(f"epoch must be > 0, got {epoch}")
            boundary = epoch
            while boundary < duration:
                self.sim.schedule_at(boundary, self._epoch_tick, on_epoch)
                boundary += epoch
        if self.observability is not None:
            self.observability.install_scrape(duration)
        if invariants.invariants_enabled():
            invariants.check_routing_table(self.table)
        self.sim.run(until=duration)
        self.sim.run_until_idle()
        if epoch is not None:
            self._epoch_tick(on_epoch)
        if self.observability is not None:
            self.observability.finalize_scrape()
        self._verify_invariants()

    def _install_workload(self, timeline, deterministic: bool) -> None:
        """Attach demand per the fidelity: sources, fluid bulk, or both.

        Event mode installs one Poisson source per (class, cluster), as
        ever. Fluid mode hands the whole timeline to the
        :class:`~repro.sim.fluid.substrate.FluidSubstrate` tick loop.
        Hybrid splits the demand: ``1 - sample_rate`` runs as bulk flow
        while a ``sample_rate``-scaled copy of the timeline drives regular
        event-level sources — the same named arrival streams, so the
        sampled slice is a deterministic, registry-seeded subpopulation
        that exercises proxies, WAN, tracing, and SLO alerts end to end.
        """
        from .traces import install_timeline
        if self.fidelity == "event":
            install_timeline(self, timeline, deterministic=deterministic)
            return
        from .fluid.substrate import FluidSubstrate
        from .traces import DemandTimeline
        bulk = (1.0 if self.fidelity == "fluid"
                else 1.0 - self._sample_rate)
        self.fluid = FluidSubstrate(self, timeline, tick=self._fluid_tick,
                                    bulk_fraction=bulk)
        self.fluid.install(timeline.end)
        if self.fidelity == "hybrid":
            sampled = DemandTimeline(
                keyframes=[(start, demand.scaled(self._sample_rate))
                           for start, demand in timeline.keyframes],
                end=timeline.end)
            install_timeline(self, sampled, deterministic=deterministic)

    def harvest_reports(self) -> list[ClusterEpochReport]:
        """Collect and reset every cluster's epoch telemetry."""
        reports = []
        for name, cluster in self.clusters.items():
            proxy = self.proxies[name]
            reports.append(proxy.telemetry.harvest(
                self.sim.now, cluster.harvest_stats()))
        return reports

    def _epoch_tick(self, on_epoch: EpochHook | None) -> None:
        reports = self.harvest_reports()
        if on_epoch is not None:
            on_epoch(reports, self)
            if invariants.invariants_enabled():
                # the hook may have pushed new rules; re-verify the table
                invariants.check_routing_table(self.table)

    def _verify_invariants(self) -> None:
        """Debug-mode end-of-run checks (``REPRO_DEBUG_INVARIANTS=1``)."""
        if not invariants.invariants_enabled():
            return
        invariants.check_routing_table(self.table)
        invariants.check_request_conservation(self.gateways)
        for cluster in self.clusters.values():
            for pool in cluster.pools.values():
                invariants.check_pool_depths(pool)

    def _check_demand(self, demand: DemandMatrix) -> None:
        for cls, cluster, _ in demand.items():
            if cls not in self.app.classes:
                raise ValueError(
                    f"demand references unknown traffic class {cls!r}")
            if cluster not in self.clusters:
                raise ValueError(
                    f"demand references unknown cluster {cluster!r}")

    # ------------------------------------------------------ call execution

    def edge_cache(self, caller: str, callee: str,
                   cluster: str) -> EdgeCache:
        """The (lazily created) cache for one edge at one cluster."""
        spec = self.app.cache_for(caller, callee)
        if spec is None:
            raise KeyError(f"no cache configured on {caller!r}->{callee!r}")
        key = (caller, callee, cluster)
        cache = self._caches.get(key)
        if cache is None:
            cache = self._caches[key] = EdgeCache(spec)
        return cache

    def _dispatch(self, request: Request) -> None:
        """Start the root call for a freshly classified request."""
        spec = self.app.traffic_class(request.traffic_class)
        if spec.key_space > 0:
            rng = self.rngs.stream(f"keys/{request.traffic_class}")
            request.data_key = int(rng.integers(spec.key_space))
        ingress = request.ingress_cluster

        def finish(ok: bool) -> None:
            if ok:
                self.gateways[ingress].complete(request, self.sim.now)
            else:
                self.gateways[ingress].fail(request, self.sim.now)
            if self._obs_tracer is not None:
                self._obs_tracer.record_request(request)

        self._issue_call(request, spec,
                         caller_service=None, caller_cluster=ingress,
                         service=spec.root_service,
                         request_bytes=spec.ingress_request_bytes,
                         response_bytes=spec.ingress_response_bytes,
                         on_outcome=finish)

    def _issue_call(self, request: Request, spec: TrafficClassSpec,
                    caller_service: str | None, caller_cluster: str,
                    service: str, request_bytes: int, response_bytes: int,
                    on_outcome: Callable[[bool], None],
                    attempt: int = 1,
                    exclude: str | None = None) -> None:
        """One routed attempt of a call, with deadline and retry handling."""
        affinity_key = (request.data_key if spec.sticky_affinity else None)
        dst = self.proxies[caller_cluster].choose_cluster(
            service, request.traffic_class, exclude=exclude,
            affinity_key=affinity_key)
        policy = self._timeouts
        settled = False
        deadline = None
        hedge = None
        branches = 1   # grows to 2 when a hedge launches

        def settle(ok: bool) -> None:
            nonlocal settled, branches
            if settled:
                return   # orphaned/losing response: dropped
            if not ok:
                # one branch erred; if a sibling is still in flight, let it
                # decide the call
                branches -= 1
                if branches > 0:
                    return
            settled = True
            if deadline is not None:
                deadline.cancel()
            if hedge is not None:
                hedge.cancel()
            on_outcome(ok)

        def timed_out() -> None:
            nonlocal settled
            if settled:
                return
            settled = True
            self.timed_out_calls += 1
            if policy is not None and attempt < policy.max_attempts:
                retry_exclude = (dst if policy.exclude_failed_cluster
                                 else None)
                self._issue_call(request, spec, caller_service,
                                 caller_cluster, service, request_bytes,
                                 response_bytes, on_outcome,
                                 attempt=attempt + 1, exclude=retry_exclude)
            else:
                on_outcome(False)

        def launch_hedge() -> None:
            nonlocal branches
            if settled:
                return
            hedge_dst = self.proxies[caller_cluster].choose_cluster(
                service, request.traffic_class, exclude=dst,
                affinity_key=affinity_key)
            if hedge_dst == dst:
                return   # nowhere else to hedge to
            self.hedged_calls += 1
            branches += 1
            self._call(request, spec, caller_service, caller_cluster,
                       service, hedge_dst, request_bytes, response_bytes,
                       on_outcome=settle)

        if policy is not None:
            deadline = self.sim.schedule_cancellable(policy.call_timeout,
                                                     timed_out)
            if policy.hedge_delay is not None:
                hedge = self.sim.schedule_cancellable(policy.hedge_delay,
                                                      launch_hedge)
        self._call(request, spec, caller_service, caller_cluster, service,
                   dst, request_bytes, response_bytes, on_outcome=settle)

    def _call(self, request: Request, spec: TrafficClassSpec,
              caller_service: str | None, caller_cluster: str,
              service: str, dst_cluster: str,
              request_bytes: int, response_bytes: int,
              on_outcome: Callable[[bool], None]) -> None:
        """Execute one call: WAN out, queue + compute, children, WAN back."""

        def deliver() -> None:
            span = Span(
                request_id=request.request_id,
                traffic_class=request.traffic_class,
                service=service, cluster=dst_cluster,
                caller_service=caller_service, caller_cluster=caller_cluster,
                enqueue_time=self.sim.now,
                request_bytes=request_bytes, response_bytes=response_bytes,
            )
            work = self._draw_exec_time(spec, service)
            span.exec_time = work
            cluster = self.clusters[dst_cluster]
            if not cluster.has(service):
                # destination died while the call was on the wire: the call
                # is lost; with a TimeoutPolicy the deadline fires and the
                # proxy retries elsewhere, otherwise it hangs like a real
                # timeout-less mesh would
                self.dropped_calls += 1
                return
            pool = cluster.pool(service)

            def started(now: float) -> None:
                span.start_time = now

            def computed(now: float) -> None:
                if cluster.pools.get(service) is not pool:
                    # the service was killed while this job was queued or
                    # running: its work is lost with the pool (the request
                    # hangs, or times out and retries under a TimeoutPolicy)
                    self.dropped_calls += 1
                    return
                self._run_children(request, spec, service, dst_cluster,
                                   lambda ok: respond(span, ok))

            pool.submit(work, on_complete=computed, on_start=started)

        def respond(span: Span, ok: bool) -> None:
            span.end_time = self.sim.now
            self.proxies[dst_cluster].telemetry.record_span(span)
            self.telemetry.record_span(span)
            if self._obs_tracer is not None:
                self._obs_tracer.record_span(span)
            if not ok:
                # a child subtree failed: surface the error immediately
                # (error responses are small; no payload transfer)
                on_outcome(False)
                return
            self.network.transfer(dst_cluster, caller_cluster,
                                  response_bytes, lambda: on_outcome(True))

        self.network.transfer(caller_cluster, dst_cluster, request_bytes,
                              deliver)

    def _run_children(self, request: Request, spec: TrafficClassSpec,
                      service: str, cluster: str,
                      done: Callable[[bool], None]) -> None:
        """Invoke all child edges of ``service``, then call ``done(ok)``."""
        calls: list[tuple[str, int, int]] = []
        rng = self.rngs.stream(f"fanout/{service}")
        for edge in spec.children_map().get(service, []):
            count = self._realise_count(edge.calls_per_request, rng)
            calls.extend((edge.callee, edge.request_bytes,
                          edge.response_bytes) for _ in range(count))
        if not calls:
            done(True)
            return

        def issue(callee: str, request_bytes: int, response_bytes: int,
                  on_outcome: Callable[[bool], None]) -> None:
            cache = None
            if (request.data_key is not None
                    and self.app.cache_for(service, callee) is not None):
                cache = self.edge_cache(service, callee, cluster)
                if cache.lookup(request.data_key, self.sim.now):
                    on_outcome(True)   # cache hit: downstream call skipped
                    return

            def outcome(ok: bool) -> None:
                if ok and cache is not None:
                    cache.insert(request.data_key, self.sim.now)
                on_outcome(ok)

            self._issue_call(request, spec,
                             caller_service=service, caller_cluster=cluster,
                             service=callee,
                             request_bytes=request_bytes,
                             response_bytes=response_bytes,
                             on_outcome=outcome)

        if service in spec.parallel_fanout:
            remaining = len(calls)
            all_ok = True

            def one_done(ok: bool) -> None:
                nonlocal remaining, all_ok
                remaining -= 1
                all_ok = all_ok and ok
                if remaining == 0:
                    done(all_ok)

            for callee, req_b, resp_b in calls:
                issue(callee, req_b, resp_b, one_done)
        else:
            def run_next(index: int, ok: bool) -> None:
                if not ok:
                    done(False)   # abort remaining siblings on failure
                    return
                if index == len(calls):
                    done(True)
                    return
                callee, req_b, resp_b = calls[index]
                issue(callee, req_b, resp_b,
                      lambda child_ok: run_next(index + 1, child_ok))

            run_next(0, True)

    def _realise_count(self, expected: float, rng) -> int:
        """Turn a fractional calls-per-request into an integer draw."""
        base = int(expected)
        frac = expected - base
        if frac > 0 and rng.random() < frac:
            base += 1
        return base

    def _draw_exec_time(self, spec: TrafficClassSpec, service: str) -> float:
        mean = spec.exec_time_of(service)
        if mean <= 0:
            return 0.0
        if self._deterministic_exec:
            return mean
        return float(self.rngs.stream(f"exec/{service}").exponential(mean))

    def __repr__(self) -> str:
        return (f"MeshSimulation(app={self.app.name!r}, "
                f"clusters={sorted(self.clusters)})")
