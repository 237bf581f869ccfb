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

import functools
from dataclasses import dataclass
from typing import Callable, Protocol

from ..devtools import invariants
from ..mesh.gateway import Classifier, IngressGateway
from ..mesh.proxy import SlateProxy
from ..mesh.routing_table import RoutingTable
from ..mesh.telemetry import ClusterEpochReport, RunTelemetry
from .apps import AppSpec
from .cache import EdgeCache
from .cluster import Cluster
from .engine import Simulator
from .network import WanNetwork
from .request import Request, RequestIdAllocator, Span
from .rng import RngRegistry
from .topology import DeploymentSpec
from .traces import DemandTimeline, install_timeline
from .workload import DemandMatrix, check_demand_names

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
        if not self.call_timeout > 0:   # NaN fails every comparison
            raise ValueError("call_timeout must be > 0")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.hedge_delay is not None:
            if not self.hedge_delay > 0:
                raise ValueError("hedge_delay must be > 0")
            if not self.hedge_delay < self.call_timeout:
                raise ValueError("hedge_delay must precede the deadline")


@dataclass(frozen=True, slots=True)
class _ServiceNode:
    """What one execution of a service does within one traffic class."""

    #: mean compute seconds (0.0 when the service does no work)
    exec_mean: float
    #: ``exec/{service}`` stream's ``exponential``; None = use the mean
    exec_draw: Callable[[float], float] | None
    #: child edges in call order: (callee, request_bytes, response_bytes,
    #: whole calls, fractional call, has_cache)
    children: tuple[tuple, ...]
    #: the child calls of every execution; None when an edge is fractional
    fixed_calls: tuple[tuple, ...] | None
    #: ``fanout/{service}`` stream's ``random`` (fractional edges only)
    fanout_draw: Callable[[], float] | None
    parallel: bool


@dataclass(frozen=True, slots=True)
class _ClassPlan:
    """A traffic class's per-call constants, resolved once per simulation."""

    name: str
    root: str
    ingress_request_bytes: int
    ingress_response_bytes: int
    sticky: bool
    key_space: int
    #: ``keys/{class}`` stream's ``integers``; None without a key space
    keys_draw: Callable[[int], int] | None
    nodes: dict[str, _ServiceNode]


class _Call:
    """One service call in flight: WAN out, queue + compute, children, WAN
    back. Its bound methods are the engine/pool/WAN callbacks, so a call
    costs one object; nothing it references points back at it, so a
    finished call is freed by reference count alone.
    """

    __slots__ = ("mesh", "request", "plan", "caller_service",
                 "caller_cluster", "service", "cluster", "request_bytes",
                 "response_bytes", "on_outcome", "span", "pool", "calls",
                 "cursor", "pending", "all_ok")

    def __init__(self, mesh: "MeshSimulation", request: Request,
                 plan: _ClassPlan, caller_service: str | None,
                 caller_cluster: str, service: str, request_bytes: int,
                 response_bytes: int, cluster: str,
                 on_outcome: Callable[[bool], None]) -> None:
        self.mesh = mesh
        self.request = request
        self.plan = plan
        self.caller_service = caller_service
        self.caller_cluster = caller_cluster
        self.service = service
        self.request_bytes = request_bytes
        self.response_bytes = response_bytes
        self.cluster = cluster
        self.on_outcome = on_outcome

    def send(self) -> None:
        self.mesh.network.transfer(self.caller_cluster, self.cluster,
                                   self.request_bytes, self.deliver)

    def deliver(self) -> None:
        """The call reached its destination: queue for a replica."""
        mesh = self.mesh
        request = self.request
        service = self.service
        span = self.span = Span(
            request_id=request.request_id,
            traffic_class=request.traffic_class,
            service=service, cluster=self.cluster,
            caller_service=self.caller_service,
            caller_cluster=self.caller_cluster,
            enqueue_time=mesh.sim.now,
            request_bytes=self.request_bytes,
            response_bytes=self.response_bytes,
        )
        node = self.plan.nodes[service]
        work = (node.exec_mean if node.exec_draw is None
                else float(node.exec_draw(node.exec_mean)))
        span.exec_time = work
        pool = self.pool = mesh.clusters[self.cluster].pools.get(service)
        if pool is None:
            # destination died while the call was on the wire: the call
            # is lost; with a TimeoutPolicy the deadline fires and the
            # proxy retries elsewhere, otherwise it hangs like a real
            # timeout-less mesh would
            mesh.dropped_calls += 1
            return
        pool.submit(work, self.computed, self.started)

    def started(self, now: float) -> None:
        self.span.start_time = now

    def computed(self, now: float) -> None:
        """Compute finished: invoke the child edges, then respond."""
        mesh = self.mesh
        service = self.service
        if mesh.clusters[self.cluster].pools.get(service) is not self.pool:
            # the service was killed while this job was queued or
            # running: its work is lost with the pool (the request
            # hangs, or times out and retries under a TimeoutPolicy)
            mesh.dropped_calls += 1
            return
        node = self.plan.nodes[service]
        calls = node.fixed_calls
        if calls is None:
            # every edge's count is realised before any child is issued
            draw = node.fanout_draw
            calls = []
            for child in node.children:
                count = child[3]
                if child[4] > 0 and draw() < child[4]:
                    count += 1
                calls.extend([child] * count)
        if not calls:
            self.respond(True)
        elif node.parallel:
            self.pending = len(calls)
            self.all_ok = True
            for child in calls:
                self.issue_child(child, self.parallel_done)
        else:
            self.calls = calls
            self.cursor = 0
            self.sequential_done(True)

    def issue_child(self, child: tuple,
                    on_outcome: Callable[[bool], None]) -> None:
        callee, request_bytes, response_bytes, _, _, has_cache = child
        mesh = self.mesh
        if has_cache and self.request.data_key is not None:
            cache = mesh.edge_cache(self.service, callee, self.cluster)
            if cache.lookup(self.request.data_key, mesh.sim.now):
                on_outcome(True)   # cache hit: downstream call skipped
                return
            on_outcome = _CacheFill(mesh.sim, cache, self.request.data_key,
                                    on_outcome).outcome
        mesh._issue_call(self.request, self.plan, self.service,
                         self.cluster, callee, request_bytes,
                         response_bytes, on_outcome)

    def parallel_done(self, ok: bool) -> None:
        self.pending -= 1
        if not ok:
            self.all_ok = False
        if self.pending == 0:
            self.respond(self.all_ok)

    def sequential_done(self, ok: bool) -> None:
        """The previous sibling's outcome: run the next, or finish."""
        if not ok:
            self.respond(False)   # abort remaining siblings on failure
            return
        index = self.cursor
        if index == len(self.calls):
            self.respond(True)
            return
        self.cursor = index + 1
        self.issue_child(self.calls[index], self.sequential_done)

    def respond(self, ok: bool) -> None:
        mesh = self.mesh
        span = self.span
        span.end_time = mesh.sim.now
        mesh.proxies[self.cluster].telemetry.record_span(span)
        mesh.telemetry.record_span(span)
        if mesh._obs_tracer is not None:
            mesh._obs_tracer.record_span(span)
        if not ok:
            # a child subtree failed: surface the error immediately
            # (error responses are small; no payload transfer)
            self.on_outcome(False)
            return
        mesh.network.transfer(self.cluster, self.caller_cluster,
                              self.response_bytes, self.responded)

    def responded(self) -> None:
        self.on_outcome(True)


class _CacheFill:
    """Caches a missed edge's response once the downstream call succeeds."""

    __slots__ = ("sim", "cache", "key", "on_outcome")

    def __init__(self, sim: Simulator, cache: EdgeCache, key: int,
                 on_outcome: Callable[[bool], None]) -> None:
        self.sim = sim
        self.cache = cache
        self.key = key
        self.on_outcome = on_outcome

    def outcome(self, ok: bool) -> None:
        if ok:
            self.cache.insert(self.key, self.sim.now)
        self.on_outcome(ok)


class _Guard:
    """Deadline, retry and hedge handling for one routed attempt of a call
    under a :class:`TimeoutPolicy`: of everything that can answer — the
    primary, a hedge, the deadline — exactly one decides the attempt.
    """

    __slots__ = ("mesh", "call", "on_outcome", "attempt", "dst", "settled",
                 "branches", "deadline", "hedge")

    def __init__(self, mesh: "MeshSimulation", call: tuple,
                 on_outcome: Callable[[bool], None], attempt: int,
                 dst: str) -> None:
        self.mesh = mesh
        #: what is being called, as :meth:`MeshSimulation._issue_call` takes
        #: it: (request, plan, caller_service, caller_cluster, service,
        #: request_bytes, response_bytes)
        self.call = call
        self.on_outcome = on_outcome
        self.attempt = attempt
        self.dst = dst
        self.settled = False
        self.branches = 1   # grows to 2 when a hedge launches
        policy = mesh._timeouts
        self.deadline = mesh.sim.schedule_cancellable(policy.call_timeout,
                                                      self.timed_out)
        self.hedge = (mesh.sim.schedule_cancellable(policy.hedge_delay,
                                                    self.launch_hedge)
                      if policy.hedge_delay is not None else None)

    def _disarm(self) -> None:
        """Cancel what has not fired, and let go of the handles: they hold
        this guard's bound methods, so keeping them would be a cycle."""
        self.deadline.cancel()
        if self.hedge is not None:
            self.hedge.cancel()
        self.deadline = self.hedge = None

    def settle(self, ok: bool) -> None:
        if self.settled:
            return   # orphaned/losing response: dropped
        if not ok:
            # one branch erred; if a sibling is still in flight, let it
            # decide the call
            self.branches -= 1
            if self.branches > 0:
                return
        self.settled = True
        self._disarm()
        self.on_outcome(ok)

    def timed_out(self) -> None:
        if self.settled:
            return
        self.settled = True
        self._disarm()
        mesh = self.mesh
        mesh.timed_out_calls += 1
        policy = mesh._timeouts
        if self.attempt < policy.max_attempts:
            mesh._issue_call(
                *self.call, self.on_outcome, self.attempt + 1,
                self.dst if policy.exclude_failed_cluster else None)
        else:
            self.on_outcome(False)

    def launch_hedge(self) -> None:
        if self.settled:
            return
        mesh = self.mesh
        request, plan, _, caller_cluster, service, _, _ = self.call
        hedge_dst = mesh.proxies[caller_cluster].choose_cluster(
            service, plan.name, self.dst,
            request.data_key if plan.sticky else None)
        if hedge_dst == self.dst:
            return   # nowhere else to hedge to
        mesh.hedged_calls += 1
        self.branches += 1
        _Call(mesh, *self.call, hedge_dst, self.settle).send()


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
        #: the table version the last routing-table check passed
        self._checked_version = self.table.version
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
        #: traffic class -> its per-call constants, resolved on first use
        self._plans: dict[str, _ClassPlan] = {}

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
        """Drive constant ``demand`` for ``duration`` seconds, then drain:
        :meth:`run_timeline` over the one-keyframe timeline, at every
        fidelity.
        """
        if duration <= 0:
            raise ValueError(f"duration must be > 0, got {duration}")
        self.run_timeline(DemandTimeline.constant(demand, duration),
                          epoch=epoch, on_epoch=on_epoch,
                          deterministic_arrivals=deterministic_arrivals)

    def run_timeline(self, timeline: DemandTimeline,
                     epoch: float | None = None,
                     on_epoch: EpochHook | None = None,
                     deterministic_arrivals: bool = False) -> None:
        """Drive a :class:`~repro.sim.traces.DemandTimeline`, then drain.

        One source per (class, cluster) entry follows its piecewise rate
        profile. With ``epoch`` set, telemetry is harvested every ``epoch``
        seconds and passed to ``on_epoch`` — the control loop. The final
        partial epoch is harvested after the drain.
        """
        duration = timeline.end
        if duration <= 0:
            raise ValueError("timeline must end after t=0")
        check_demand_names(timeline.entries(), self.app.classes,
                           self.clusters)
        self._install_workload(timeline, deterministic_arrivals)
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
        invariants.check_routing_table(self.table)
        self._checked_version = self.table.version
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
        if self.fidelity == "event":
            install_timeline(self, timeline, deterministic=deterministic)
            return
        from .fluid.substrate import FluidSubstrate
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
            # the hook may have pushed new rules; re-verify what moved
            if self.table.version != self._checked_version:
                invariants.check_routing_table(self.table)
                self._checked_version = self.table.version

    def _verify_invariants(self) -> None:
        """End-of-run checks: the table, conservation, pool depths."""
        invariants.check_routing_table(self.table)
        invariants.check_request_conservation(self.gateways)
        for cluster in self.clusters.values():
            for pool in cluster.pools.values():
                invariants.check_pool_depths(pool)

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

    def _class_plan(self, traffic_class: str) -> _ClassPlan:
        """Resolve a class's per-call constants, once per simulation."""
        spec = self.app.traffic_class(traffic_class)
        stream = self.rngs.stream
        children_of = spec.children_map()
        nodes: dict[str, _ServiceNode] = {}
        for service in spec.services():
            children = tuple(
                (edge.callee, edge.request_bytes, edge.response_bytes,
                 int(edge.calls_per_request),
                 edge.calls_per_request - int(edge.calls_per_request),
                 self.app.cache_for(service, edge.callee) is not None)
                for edge in children_of.get(service, ()))
            fractional = any(child[4] > 0 for child in children)
            mean = spec.exec_time_of(service)
            drawn = mean > 0 and not self._deterministic_exec
            nodes[service] = _ServiceNode(
                exec_mean=mean if mean > 0 else 0.0,
                exec_draw=(stream(f"exec/{service}").exponential
                           if drawn else None),
                children=children,
                fixed_calls=(None if fractional else tuple(
                    child for child in children for _ in range(child[3]))),
                fanout_draw=(stream(f"fanout/{service}").random
                             if fractional else None),
                parallel=service in spec.parallel_fanout)
        plan = self._plans[traffic_class] = _ClassPlan(
            name=traffic_class, root=spec.root_service,
            ingress_request_bytes=spec.ingress_request_bytes,
            ingress_response_bytes=spec.ingress_response_bytes,
            sticky=spec.sticky_affinity, key_space=spec.key_space,
            keys_draw=(stream(f"keys/{traffic_class}").integers
                       if spec.key_space > 0 else None),
            nodes=nodes)
        return plan

    def _dispatch(self, request: Request) -> None:
        """Start the root call for a freshly classified request."""
        plan = self._plans.get(request.traffic_class)
        if plan is None:
            plan = self._class_plan(request.traffic_class)
        if plan.keys_draw is not None:
            request.data_key = int(plan.keys_draw(plan.key_space))
        self._issue_call(request, plan, None, request.ingress_cluster,
                         plan.root, plan.ingress_request_bytes,
                         plan.ingress_response_bytes,
                         functools.partial(self._finish, request))

    def _finish(self, request: Request, ok: bool) -> None:
        """The root call's outcome: the response leaves the gateway."""
        gateway = self.gateways[request.ingress_cluster]
        if ok:
            gateway.complete(request, self.sim.now)
        else:
            gateway.fail(request, self.sim.now)
        if self._obs_tracer is not None:
            self._obs_tracer.record_request(request)

    def _issue_call(self, request: Request, plan: _ClassPlan,
                    caller_service: str | None, caller_cluster: str,
                    service: str, request_bytes: int, response_bytes: int,
                    on_outcome: Callable[[bool], None],
                    attempt: int = 1, exclude: str | None = None) -> None:
        """One routed attempt of a call; ``on_outcome(ok)`` fires once.

        Without a :class:`TimeoutPolicy` a call has exactly one outcome and
        nothing to guard, so it reports straight to ``on_outcome``.
        """
        dst = self.proxies[caller_cluster].choose_cluster(
            service, plan.name, exclude,
            request.data_key if plan.sticky else None)
        if self._timeouts is not None:
            on_outcome = _Guard(
                self, (request, plan, caller_service, caller_cluster,
                       service, request_bytes, response_bytes),
                on_outcome, attempt, dst).settle
        _Call(self, request, plan, caller_service, caller_cluster, service,
              request_bytes, response_bytes, dst, on_outcome).send()

    def __repr__(self) -> str:
        return (f"MeshSimulation(app={self.app.name!r}, "
                f"clusters={sorted(self.clusters)})")
