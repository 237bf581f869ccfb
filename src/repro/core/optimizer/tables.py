"""What one model structure computes once: the demand-independent tables.

Between two structure changes (topology, placement, classes, latency
overrides) an adaptive controller re-plans with new demand *values* and,
as autoscaling and failures move them, new replica *counts*. Everything
the epoch needs besides those values is a function of the structure, so
it is built when the structure is — by the cold build — and dropped when
it is: the tables hang on the cached structure and on every model
instantiated from it, never anywhere longer-lived.

They come in two parts, split by what a replica count touches.
:class:`StructureTables` is one per structure snapshot and shared by
every model instantiated from it, whatever its counts:

* the identity of the WAN geometry the structure was built on: the latency
  and pricing objects *and* the latency matrix's override revision (a chaos
  ``apply_override`` mutates the matrix in place, so object identity alone
  would keep serving RTTs that no longer hold);
* ``(class, edge) → callee`` for rule extraction;
* the :class:`RulePlan`, built on first use from the model's hops: every
  flow key's routing-rule slot, and the one-destination rules already met;
* per flow key (class, edge, src, dst), filled on first use: the pool it
  loads, the execution time there, the RTT and the egress price of one
  request — the terms :func:`~repro.core.optimizer.result.finalize_result`
  multiplies each flow by;
* the CSC form of ``a_eq``, which the warm solve slices columns from.

:class:`ModelTables` is what a model reads; it adds the count-dependent
part, rebuilt by :meth:`ModelTables.recount` when a count moves and shared
as long as none does:

* per pool its replica count, load cap and delay model for the predicted
  backlog;
* the CSC form of ``a_ub``, whose delay-chord coefficients carry counts;
* the SHA-256 state after the model's leading demand-independent
  components, so a warm epoch's fingerprint hashes only what moved.
"""

from __future__ import annotations

import copy

from scipy import sparse

from ..latency.mm1 import PoolDelayModel
from ..rules import RoutingRule
from .problem import INGRESS_EDGE, TEProblem

__all__ = ["ModelTables", "RulePlan", "StructureTables"]


class RulePlan:
    """Where each flow lands among the routing rules: one per structure.

    A flow (class, edge, src, dst) feeds the rule of (callee, class, src)
    toward ``dst``. Every flow key the structure's columns can carry gets
    the code ``rule · n_dst + dst``: rules are numbered in the order
    :meth:`~repro.core.optimizer.result.OptimizationResult.rules` emits
    them (by key), destinations by name. A rule that sends everything to
    one destination is the same rule whatever its rate, so it is built the
    first time that (rule, destination) pair is met and shared by every
    later result of the structure; a rule split across destinations is
    rebuilt only when its weights differ from its last split.
    """

    def __init__(self, flow_keys, edge_service) -> None:
        slots = {key: ((edge_service[key[:2]], key[0], key[2]), key[3])
                 for key in flow_keys}
        #: (service, class, src) per rule index, sorted
        self.rule_keys = sorted({rule for rule, _ in slots.values()})
        #: destination cluster per destination index, sorted
        self.dst_names = sorted({dst for _, dst in slots.values()})
        self.n_dst = len(self.dst_names)
        rule_index = {rule: i for i, rule in enumerate(self.rule_keys)}
        dst_index = {dst: i for i, dst in enumerate(self.dst_names)}
        #: flow key → ``rule index · n_dst + destination index``
        self.code_of = {key: rule_index[rule] * self.n_dst + dst_index[dst]
                        for key, (rule, dst) in slots.items()}
        self._single: dict[int, RoutingRule] = {}
        self._split: dict[int, tuple[tuple, RoutingRule]] = {}

    def single(self, code: int) -> RoutingRule:
        """The rule sending all of rule ``code // n_dst``'s calls to
        destination ``code % n_dst``."""
        rule = self._single.get(code)
        if rule is None:
            index, dst = divmod(code, self.n_dst)
            rule = self._single[code] = RoutingRule(
                *self.rule_keys[index], ((self.dst_names[dst], 1.0),))
        return rule

    def split(self, index: int, weights: dict[str, float]) -> RoutingRule:
        """Rule ``index`` splitting its calls by ``weights``, normalised by
        :meth:`RoutingRule.make`."""
        items = tuple(weights.items())
        last = self._split.get(index)
        if last is None or last[0] != items:
            last = self._split[index] = (items, RoutingRule.make(
                *self.rule_keys[index], weights))
        return last[1]


class StructureTables:
    """Lookups no replica count touches: one per structure snapshot."""

    def __init__(self, problem: TEProblem, pools,
                 a_eq: sparse.csr_matrix, route_vars,
                 route_hops) -> None:
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
        self._pool_keys = set(pools)
        self._flow_terms: dict[tuple[str, int, str, str], tuple] = {}
        self._a_eq = a_eq
        self._a_eq_csc: sparse.csc_matrix | None = None
        # the model's flow columns, for the rule plan (see LinearModel.hops)
        self._route_vars = route_vars
        self._route_hops = route_hops
        self._rule_plan: RulePlan | None = None

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

    def rule_plan(self) -> RulePlan:
        """The structure's :class:`RulePlan`, built on first use over the
        flow keys of every column's hops."""
        if self._rule_plan is None:
            if self._route_hops is None:
                keys = (var.flow_key for var in self._route_vars)
            else:
                keys = (key for hops in self._route_hops for key, _ in hops)
            self._rule_plan = RulePlan(keys, self.edge_service)
        return self._rule_plan

    def a_eq_csc(self) -> sparse.csc_matrix:
        """``a_eq`` in CSC form, converted once per structure."""
        if self._a_eq_csc is None:
            self._a_eq_csc = self._a_eq.tocsc()
        return self._a_eq_csc


class ModelTables:
    """The lookups of one model: its structure's shared
    :class:`StructureTables` plus what its replica counts decide."""

    def __init__(self, problem: TEProblem, pools,
                 a_ub: sparse.csr_matrix, a_eq: sparse.csr_matrix,
                 route_vars, route_hops=None) -> None:
        #: the count-independent part, shared by identity across recounts
        self.structure = StructureTables(problem, pools, a_eq, route_vars,
                                         route_hops)
        # the structure's lookup, bound here for the extractor's hot loop
        self.flow_terms = self.structure.flow_terms
        #: (pool, replicas, load cap just inside the pole, delay model)
        self.pools = [_pool_entry(problem, pool) for pool in pools]
        self._a_ub = a_ub
        self._a_ub_csc: sparse.csc_matrix | None = None
        #: hash state after the demand-independent fingerprint prefix
        #: (kept by ``model_fingerprint``)
        self.hash_prefix = None

    def recount(self, problem: TEProblem,
                a_ub: sparse.csr_matrix) -> ModelTables:
        """These tables at ``problem``'s replica counts, for a model whose
        refreshed ``a_ub`` carries them: the structure part is shared, a
        pool entry is rebuilt only where its count moved, and the ``a_ub``
        CSC form and the fingerprint prefix start afresh."""
        tables = copy.copy(self)
        tables.pools = [
            entry if problem.replica_count(*entry[0]) == entry[1]
            else _pool_entry(problem, entry[0]) for entry in self.pools]
        tables._a_ub = a_ub
        tables._a_ub_csc = None
        tables.hash_prefix = None
        return tables

    def csc(self) -> tuple[sparse.csc_matrix, sparse.csc_matrix]:
        """``(a_ub, a_eq)`` in CSC form, each converted once."""
        if self._a_ub_csc is None:
            self._a_ub_csc = self._a_ub.tocsc()
        return self._a_ub_csc, self.structure.a_eq_csc()


def _pool_entry(problem: TEProblem, pool: tuple[str, str]) -> tuple:
    replicas = problem.replica_count(*pool)
    return (pool, replicas, problem.rho_max * replicas,
            PoolDelayModel(replicas, mode=problem.delay_model))
