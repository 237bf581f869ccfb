"""Runtime invariant checks for the simulator and control plane.

Every run checks these; each check sits at the point that establishes its
invariant and costs O(1) or one numpy reduction there, so a healthy run
pays a comparison, not a walk. The engine, replica pools, fluid flow
model, and :class:`~repro.sim.runner.MeshSimulation` call in:

* **event-time monotonicity** — the heap loop never executes an event
  before the current virtual time (fluid ticks are engine events, so
  this covers the tick loop too);
* **request conservation** — at quiesce, every admitted request is
  accounted for: ``admitted == completed + failed + in_flight`` per
  gateway, with ``in_flight >= 0``;
* **routing-matrix stochasticity** — every installed rule's weights are
  non-negative and sum to 1 ± 1e-9 per (service, class, source cluster);
* **departures only** — no pushed exact-class rule sends every call to
  its own source cluster unless a wildcard rule for its (service, source)
  is live: a push omits local-first rules, which a missing key already
  routes as (a hand edit may still spell one out);
* **non-negative queue depths** — a pool never records negative busy
  replicas or queue length;
* **fluid flow sanity** — bulk flow rates are finite and non-negative,
  and every routing matrix row applied as a matrix product sums to
  1 ± 1e-9 (the same stochasticity bound as installed rules);
* **LP optimality certificate** — every optimal HiGHS solve reports
  primal and dual infeasibilities and a relative primal–dual objective
  gap within stated tolerances (the optimizer's HiGHS seam reads them
  off ``getInfo()``, so the check costs three comparisons).

Violations raise :class:`InvariantViolation` with a message naming the
offending stream/service/cluster so the report is actionable.
"""

from __future__ import annotations

import math

__all__ = ["InvariantViolation", "ROW_SUM_TOLERANCE",
           "check_event_monotonic", "check_fluid_rates",
           "check_pool_depths", "check_request_conservation",
           "check_routing_matrices", "check_routing_table",
           "check_solver_certificate", "FEASIBILITY_TOLERANCE",
           "OBJECTIVE_GAP_TOLERANCE"]

#: the routing table's class-agnostic rule class (``repro.mesh`` sits
#: above this layer, so the value is restated here)
_WILDCARD_CLASS = "*"

#: allowed deviation of a routing row's weight sum from 1.0
ROW_SUM_TOLERANCE = 1e-9

#: largest primal or dual infeasibility an optimal LP solve may carry:
#: HiGHS's own feasibility tolerances (1e-7) with 10x headroom for
#: postsolve rounding
FEASIBILITY_TOLERANCE = 1e-6

#: largest relative gap between an optimal solve's primal and dual
#: objective values
OBJECTIVE_GAP_TOLERANCE = 1e-9


class InvariantViolation(AssertionError):
    """A runtime invariant failed; the message names the culprit."""


def check_event_monotonic(now: float, event_time: float,
                          callback: object) -> None:
    """The next event must not precede the current virtual time."""
    if event_time < now:
        name = getattr(callback, "__qualname__", repr(callback))
        raise InvariantViolation(
            f"event-time monotonicity violated: event {name!r} scheduled "
            f"at t={event_time!r} popped while now={now!r}")


def check_routing_table(table) -> None:
    """Every installed rule must be a proper probability row, and a pushed
    one a departure from local-first unless a wildcard would otherwise
    match (a :meth:`set_weights` hand edit may spell a local rule out).

    ``table`` is a :class:`~repro.mesh.routing_table.RoutingTable`; its
    ``rules()`` accessor returns (key → cluster → weight) mappings.
    """
    rules = table.rules()
    edited = table.hand_edits()
    for key, weights in rules.items():
        if (weights == {key.src_cluster: 1.0}
                and key.traffic_class != _WILDCARD_CLASS
                and (key.service, _WILDCARD_CLASS, key.src_cluster)
                not in rules and key not in edited):
            raise InvariantViolation(
                f"routing rule for service={key.service!r} "
                f"class={key.traffic_class!r} src={key.src_cluster!r} "
                f"keeps every call local with no wildcard rule to "
                f"override: a push carries only departures")
        if not weights:
            raise InvariantViolation(
                f"routing rule for service={key.service!r} "
                f"class={key.traffic_class!r} src={key.src_cluster!r} "
                f"has an empty weight row")
        for cluster, weight in weights.items():
            if not math.isfinite(weight) or weight < 0:
                raise InvariantViolation(
                    f"routing rule for service={key.service!r} "
                    f"class={key.traffic_class!r} src={key.src_cluster!r} "
                    f"has invalid weight {weight!r} for cluster "
                    f"{cluster!r}")
        total = sum(weights.values())
        if abs(total - 1.0) > ROW_SUM_TOLERANCE:
            raise InvariantViolation(
                f"routing rule for service={key.service!r} "
                f"class={key.traffic_class!r} src={key.src_cluster!r} "
                f"sums to {total!r}, expected 1 ± {ROW_SUM_TOLERANCE}")


def check_request_conservation(gateways) -> None:
    """At quiesce, each gateway's admissions must be fully accounted for.

    ``gateways`` maps cluster name → :class:`IngressGateway`; gateways
    keep always-on admission/completion/failure counters.
    """
    for cluster, gateway in sorted(gateways.items()):
        admitted = gateway.admitted_count
        completed = gateway.completed_count
        failed = gateway.failed_count
        in_flight = admitted - completed - failed
        if in_flight < 0:
            raise InvariantViolation(
                f"request conservation violated at cluster {cluster!r}: "
                f"admitted={admitted} < completed={completed} + "
                f"failed={failed} (a request settled twice?)")
        if gateway.open_requests != in_flight:
            raise InvariantViolation(
                f"request conservation violated at cluster {cluster!r}: "
                f"admitted={admitted}, completed={completed}, "
                f"failed={failed} imply {in_flight} in flight, but "
                f"{gateway.open_requests} are tracked open")


def check_routing_matrices(labels, matrices) -> None:
    """Each row of every fluid routing matrix must be a probability row.

    ``matrices`` is a (k x n x n) numpy stack of split matrices, the form
    the fluid substrate applies as ``demand @ matrix``; rows index source
    clusters and ``labels[k]`` is the (service, class) of ``matrices[k]``.
    Same tolerance as :func:`check_routing_table` — a matrix is the
    vectorized form of the same rules. A healthy stack costs one
    elementwise pass and one row sum.
    """
    # NaN fails both comparisons
    valid = (matrices >= 0) & (matrices < math.inf)
    totals = matrices.sum(axis=-1)
    off = abs(totals - 1.0) > ROW_SUM_TOLERANCE
    if valid.all() and not off.any():
        return
    k, i = (int(index[0])
            for index in (off | ~valid.all(axis=-1)).nonzero())
    service, traffic_class = labels[k]
    invalid = (~valid[k, i]).nonzero()[0]
    if invalid.size:
        raise InvariantViolation(
            f"fluid routing matrix for service={service!r} "
            f"class={traffic_class!r} has invalid weight "
            f"{float(matrices[k, i, invalid[0]])!r} in row {i}")
    raise InvariantViolation(
        f"fluid routing matrix for service={service!r} "
        f"class={traffic_class!r} row {i} sums to {float(totals[k, i])!r}, "
        f"expected 1 ± {ROW_SUM_TOLERANCE}")


def check_fluid_rates(labels, rates) -> None:
    """Bulk flow rates must be finite and non-negative.

    ``rates`` is a (rows x clusters) numpy array and ``labels[row]`` names what
    a row carries (a traffic class, or a (class, service) hop). A healthy
    array costs one elementwise pass and one reduction.
    """
    valid = (rates >= 0) & (rates < math.inf)
    if valid.all():
        return
    row, column = (int(index[0]) for index in (~valid).nonzero())
    raise InvariantViolation(
        f"fluid flow conservation violated for {labels[row]!r}: rate "
        f"{float(rates[row, column])!r} is negative or non-finite")


def check_pool_depths(pool) -> None:
    """A replica pool must never report negative occupancy."""
    if pool.busy_replicas < 0 or pool.queue_length < 0:
        raise InvariantViolation(
            f"negative queue depth at service={pool.service!r} "
            f"cluster={pool.cluster!r}: busy={pool.busy_replicas}, "
            f"queued={pool.queue_length}")


def check_solver_certificate(certificate) -> None:
    """An optimal LP solve must be primal and dual feasible with no
    duality gap, to the stated tolerances.

    ``certificate`` is a :class:`~repro.core.optimizer.result.Certificate`:
    ``max_primal_infeasibility``, ``max_dual_infeasibility`` and
    ``primal_dual_objective_error`` as HiGHS reports them (NaN fails).
    """
    for name, value, bound in (
            ("primal infeasibility", certificate.max_primal_infeasibility,
             FEASIBILITY_TOLERANCE),
            ("dual infeasibility", certificate.max_dual_infeasibility,
             FEASIBILITY_TOLERANCE),
            ("primal-dual objective gap",
             certificate.primal_dual_objective_error,
             OBJECTIVE_GAP_TOLERANCE)):
        if not value <= bound:
            raise InvariantViolation(
                f"LP solve reported optimal with {name} {value!r} > "
                f"{bound} after {certificate.simplex_iteration_count} "
                f"simplex iterations")
