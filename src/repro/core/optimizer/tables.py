"""What one model structure computes once: the demand-independent tables.

Between two structure changes (topology, placement, classes, latency
overrides) an adaptive controller re-plans with new demand *values* only.
Everything the epoch needs besides those values is a function of the
structure, so it is built when the structure is — by the cold build — and
dropped when it is: the :class:`ModelTables` hangs on the cached structure
and on every model instantiated from it, never anywhere longer-lived.

It holds

* the identity of the WAN geometry the structure was built on: the latency
  and pricing objects *and* the latency matrix's override revision (a chaos
  ``apply_override`` mutates the matrix in place, so object identity alone
  would keep serving RTTs that no longer hold);
* ``(class, edge) → callee`` for rule extraction;
* per pool its replica count, load cap and delay model for the predicted
  backlog;
* per flow key (class, edge, src, dst), filled on first use: the pool it
  loads, the execution time there, the RTT and the egress price of one
  request — the terms :func:`~repro.core.optimizer.result.finalize_result`
  multiplies each flow by;
* the CSC forms of the constraint matrices the warm solve slices columns
  from;
* the SHA-256 state after the model's leading demand-independent
  components, so a warm epoch's fingerprint hashes only what moved.
"""

from __future__ import annotations

from scipy import sparse

from ..latency.mm1 import PoolDelayModel
from .problem import INGRESS_EDGE, TEProblem

__all__ = ["ModelTables"]


class ModelTables:
    """Demand-independent lookups shared by every model of one structure."""

    def __init__(self, problem: TEProblem, pools,
                 a_ub: sparse.csr_matrix, a_eq: sparse.csr_matrix) -> None:
        self._problem = problem
        self.latency = problem.latency
        self.latency_revision = problem.latency.revision
        self.pricing = problem.pricing
        #: (class, edge index) → callee service
        self.edge_service: dict[tuple[str, int], str] = {}
        for name, workload in problem.workloads.items():
            spec = workload.spec
            self.edge_service[(name, INGRESS_EDGE)] = spec.root_service
            for index, edge in enumerate(spec.edges):
                self.edge_service[(name, index)] = edge.callee
        #: (pool, replicas, load cap just inside the pole, delay model)
        self.pools = []
        for pool in pools:
            replicas = problem.replica_count(*pool)
            self.pools.append(
                (pool, replicas, problem.rho_max * replicas,
                 PoolDelayModel(replicas, mode=problem.delay_model)))
        self._pool_keys = set(pools)
        self._flow_terms: dict[tuple[str, int, str, str], tuple] = {}
        self._a_ub = a_ub
        self._a_eq = a_eq
        self._csc: tuple[sparse.csc_matrix, sparse.csc_matrix] | None = None
        #: hash state after the demand-independent fingerprint prefix
        #: (kept by ``model_fingerprint``)
        self.hash_prefix = None

    def matches(self, problem: TEProblem) -> bool:
        """Was this structure built on ``problem``'s WAN geometry as it
        stands now?"""
        return (self.latency is problem.latency
                and self.latency_revision == problem.latency.revision
                and self.pricing is problem.pricing)

    def flow_terms(self, key: tuple[str, int, str, str]) -> tuple:
        """``(pool or None, exec time, rtt, egress $ per request)`` of one
        flow key; ``pool`` is None when the flow loads no modelled pool."""
        terms = self._flow_terms.get(key)
        if terms is None:
            cls, edge_index, src, dst = key
            problem = self._problem
            spec = problem.workloads[cls].spec
            service = self.edge_service[(cls, edge_index)]
            exec_time = spec.exec_time_of(service)
            pool = (service, dst)
            if not (exec_time > 0 and pool in self._pool_keys):
                pool = None
            if edge_index == INGRESS_EDGE:
                request, response = (spec.ingress_request_bytes,
                                     spec.ingress_response_bytes)
            else:
                edge = spec.edges[edge_index]
                request, response = edge.request_bytes, edge.response_bytes
            terms = self._flow_terms[key] = (
                pool, exec_time, problem.rtt(src, dst),
                problem.transfer_cost(src, dst, request)
                + problem.transfer_cost(dst, src, response))
        return terms

    def csc(self) -> tuple[sparse.csc_matrix, sparse.csc_matrix]:
        """``(a_ub, a_eq)`` in CSC form, converted once."""
        if self._csc is None:
            self._csc = (self._a_ub.tocsc(), self._a_eq.tocsc())
        return self._csc
