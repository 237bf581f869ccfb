"""Interchangeable classes: plan once per group, split the plan back.

Classes with equal :func:`~repro.core.optimizer.problem.class_signature`
— the same root, ingress bytes, call-tree edges and compute times — get
identical column blocks from either builder; only their demand rows
differ. An LP holding one copy of the block per class is larger than it
needs to be, and it is tied: moving flow between two copies is another
optimum, so two solves of one problem may route a class differently.

:class:`ClassGroups` partitions a problem's classes by signature. The
builders see :attr:`ClassGroups.planned`: one class per group, named by
its first member in name order, carrying the members' summed demand per
ingress. When every group has one member, that is ``problem`` itself, so
a problem without interchangeable classes builds the LP it always did.
:class:`ClassSplit` splits the group solution back per member class:

* **path** — member ``c`` gets its group's split at ingress ``i``,
  scaled by ``d_c(i) / D_g(i)``;
* **arc** — member ``c``'s flows are its group's flows pushed forward
  over its own ingress demand, down the call tree in BFS order: at every
  (service, cluster) the member takes, on every outgoing arc, the share of
  the group's inflow that its own inflow is.

Either way the members' flows sum to the group's, so every pool load and
the objective are the group's, and each member meets its own demand and
conservation rows: the split is feasible, hence optimal, for the
un-grouped LP, and it is a function of the group's solution and the
members' demands alone (docs/formulation.md, "Interchangeable classes").
"""

from __future__ import annotations

import copy

import numpy as np

from .model import LinearModel
from .problem import INGRESS_EDGE, ClassWorkload, TEProblem, class_signature
from .result import FLOW_EPSILON, run_starts
from .tables import StructureTables

__all__ = ["ClassGroups", "ClassSplit", "SplitPlan"]


class ClassGroups:
    """A problem's classes partitioned by :func:`class_signature`."""

    def __init__(self, problem: TEProblem) -> None:
        self.problem = problem
        by_signature: dict[tuple, list[str]] = {}
        for name in sorted(problem.workloads):
            by_signature.setdefault(
                class_signature(problem.workloads[name].spec), []).append(name)
        #: group name (its first member) → its members, in name order
        self.members: dict[str, tuple[str, ...]] = {
            names[0]: tuple(names) for names in by_signature.values()}
        #: what the builders see: one class per group carrying its
        #: members' summed demand — ``problem`` itself when no group has
        #: two members
        self.planned = (problem if len(self.members) == len(problem.workloads)
                        else self._aggregate())

    def _aggregate(self) -> TEProblem:
        workloads = self.problem.workloads
        merged = {}
        for group, members in self.members.items():
            demand: dict[str, float] = {}
            for name in members:
                for cluster, rps in workloads[name].demand.items():
                    demand[cluster] = demand.get(cluster, 0.0) + rps
            merged[group] = ClassWorkload(workloads[group].spec, demand)
        # every member was validated against this problem already
        planned = copy.copy(self.problem)
        planned.workloads = merged
        return planned

    def split(self, model: LinearModel,
              plan: SplitPlan | None = None) -> ClassSplit | None:
        """How ``model``, built from :attr:`planned`, splits back over the
        member classes; None when :attr:`planned` is the problem itself.

        ``plan`` is the :class:`SplitPlan` of an earlier epoch of
        ``model``'s structure. It is reused when it was made for this
        epoch's membership — who is in which group with which demand
        pattern — and replaced otherwise.
        """
        if self.planned is self.problem:
            return None
        workloads = self.problem.workloads
        membership = tuple(
            (group, tuple((name, tuple(
                cluster for cluster, rps in workloads[name].demand.items()
                if rps > 0)) for name in members))
            for group, members in self.members.items())
        if plan is None or plan.membership != membership:
            plan = SplitPlan(self, model, membership)
        return ClassSplit(plan, self)


class ClassSplit:
    """One epoch's split: a :class:`SplitPlan` at the members' demands."""

    def __init__(self, plan: SplitPlan, groups: ClassGroups) -> None:
        self.plan = plan
        self.groups = groups
        #: the problem whose classes the flows are keyed by
        self.problem = groups.problem
        #: the member-level lookups the result's rules come from
        self.structure = plan.structure

    def rates(self, x: np.ndarray) -> np.ndarray:
        """Each member column's rate, given the group solution ``x``."""
        return self.plan.rates(x, self.groups)

    def flows(self, x: np.ndarray) -> tuple[dict, np.ndarray]:
        """The members' (class, edge, src, dst) → rate flows, and the
        plan's index of each flow key, in the flows' order."""
        return self.plan.flows(x, self.groups)


class SplitPlan:
    """Where each member column of a grouped model comes from: one per
    (group structure, :attr:`membership`).

    A member column is one flow column of the un-grouped model — a
    candidate embedding of one member at one of its ingresses (path), or
    one arc of one member's call-tree edge (arc) — in the un-grouped
    model's column order. :attr:`hops` holds each one's (flow key,
    multiplier) pairs, and :attr:`structure` the member-level rule plan.
    """

    def __init__(self, groups: ClassGroups, model: LinearModel,
                 membership: tuple) -> None:
        problem = groups.problem
        #: (group, ((member, its demand pattern), ...)) per group: what
        #: the plan depends on besides the model's structure
        self.membership = membership
        self._group_of = {name: group for group, members
                          in groups.members.items() for name in members}
        self.formulation = "arc" if model.route_hops is None else "path"
        #: per member column, its (flow key, multiplier) pairs
        self.hops: list[tuple] = []
        if self.formulation == "path":
            self._plan_paths(problem, model)
        else:
            self._plan_arcs(groups, model)
        # every hop flattened, its key numbered in first-appearance order
        index: dict[tuple, int] = {}
        columns, keys, mults = [], [], []
        for column, hops in enumerate(self.hops):
            for key, mult in hops:
                columns.append(column)
                keys.append(index.setdefault(key, len(index)))
                mults.append(mult)
        self.keys = list(index)
        self.hop_column = np.array(columns, dtype=np.intp)
        self.hop_key = np.array(keys, dtype=np.intp)
        self.hop_mult = np.array(mults, dtype=float)
        self.structure = StructureTables(
            problem, [entry[0] for entry in model.tables.pools], None,
            self.hops)
        self._key_codes: np.ndarray | None = None

    def rates(self, x: np.ndarray, groups: ClassGroups) -> np.ndarray:
        """Each member column's rate, given the group solution ``x`` and
        the members' demands in ``groups``."""
        if self.formulation == "path":
            return self._path_rates(x, groups)
        return self._arc_rates(x, groups)

    def flows(self, x: np.ndarray,
              groups: ClassGroups) -> tuple[dict, np.ndarray]:
        """The members' flows: each member column above ``FLOW_EPSILON``
        expanded onto its hops, summed per flow key in column order — the
        expansion :func:`~repro.core.optimizer.result.extract_result`
        makes of an un-grouped model's columns, float for float — and the
        index in :attr:`keys` of each flow key, in the flows' order."""
        rates = self.rates(x, groups)
        live = (rates > FLOW_EPSILON)[self.hop_column]
        keys = self.hop_key[live]
        totals = np.bincount(
            keys, weights=rates[self.hop_column[live]] * self.hop_mult[live],
            minlength=len(self.keys))
        # each key at its first live hop; a stable sort, not np.unique,
        # which hashes (about 20x slower on a few thousand keys)
        ranked = np.argsort(keys, kind="stable")
        order = keys[np.sort(ranked[run_starts(keys[ranked])])]
        return dict(zip(map(self.keys.__getitem__, order.tolist()),
                        totals[order].tolist())), order

    def key_codes(self) -> np.ndarray:
        """The rule code (:class:`~repro.core.optimizer.tables.RulePlan`)
        of each of :attr:`keys`, looked up once per plan."""
        if self._key_codes is None:
            code_of = self.structure.rule_plan().code_of
            self._key_codes = np.fromiter(
                map(code_of.__getitem__, self.keys), dtype=np.intp,
                count=len(self.keys))
        return self._key_codes

    # ------------------------------------------------------------- path

    def _plan_paths(self, problem: TEProblem, model: LinearModel) -> None:
        at: dict[tuple[str, str], list[int]] = {}
        for column, path in enumerate(model.route_vars):
            at.setdefault((path.traffic_class, path.ingress), []).append(
                column)
        columns: list[int] = []
        slots: list[int] = []
        #: (member, ingress, group) per demand slot
        self.slot_keys: list[tuple[str, str, str]] = []
        for name in sorted(problem.workloads):
            group = self._group_of[name]
            demand = problem.workloads[name].demand
            for ingress in sorted(c for c in problem.clusters
                                  if demand.get(c, 0) > 0):
                for column in at[(group, ingress)]:
                    columns.append(column)
                    slots.append(len(self.slot_keys))
                    self.hops.append(tuple(
                        ((name, *key[1:]), mult)
                        for key, mult in model.route_hops[column]))
                self.slot_keys.append((name, ingress, group))
        #: per member column, the group column it scales and its slot
        self.columns = np.array(columns, dtype=np.intp)
        self.slots = np.array(slots, dtype=np.intp)

    def _path_rates(self, x: np.ndarray, groups: ClassGroups) -> np.ndarray:
        workloads = groups.problem.workloads
        planned = groups.planned.workloads
        shares = np.array([
            workloads[name].demand[ingress] / planned[group].demand[ingress]
            for name, ingress, group in self.slot_keys])
        return x[self.columns] * shares[self.slots]

    # -------------------------------------------------------------- arc

    def _plan_arcs(self, groups: ClassGroups, model: LinearModel) -> None:
        problem, planned = groups.problem, groups.planned
        starts: dict[tuple[str, int], int] = {}
        for column, var in enumerate(model.route_vars):
            starts.setdefault((var.edge.traffic_class, var.edge.edge_index),
                              column)
        #: per group: (members, [(block start, n_src, n_dst, the caller
        #: whose inflow shares the block pushes — None for the ingress
        #: block — the callee, the ingress sources)] in BFS order)
        self.pushes: list[tuple] = []
        #: (group, edge) → (offset of its member flows, block size, the
        #: block's sources and destinations), as the builder laid it out
        blocks: dict[tuple[str, int], tuple] = {}
        offset = 0
        for group, members in groups.members.items():
            spec = planned.workloads[group].spec
            demand = planned.workloads[group].demand
            incoming = {edge.callee: (index, edge.caller)
                        for index, edge in enumerate(spec.edges)}
            order = [(INGRESS_EDGE, None, spec.root_service)]
            order.extend((*incoming[service], service)
                         for service in spec.services()[1:])
            steps = []
            for edge_index, caller, callee in order:
                sources = (planned.deployed_in(caller) if caller is not None
                           else [c for c in planned.clusters
                                 if demand.get(c, 0) > 0])
                destinations = planned.deployed_in(callee)
                size = len(sources) * len(destinations)
                steps.append((starts.get((group, edge_index), 0),
                              len(sources), len(destinations), caller,
                              callee, sources if caller is None else None))
                blocks[(group, edge_index)] = (offset, size, sources,
                                               destinations)
                offset += len(members) * size
            self.pushes.append((members, steps))
        # member columns in the un-grouped order: class, edge, src, dst
        positions: list[np.ndarray] = []
        for name in sorted(problem.workloads):
            group = self._group_of[name]
            rank = groups.members[group].index(name)
            demand = problem.workloads[name].demand
            for edge_index in [INGRESS_EDGE, *range(len(
                    problem.workloads[name].spec.edges))]:
                base, size, sources, destinations = blocks[
                    (group, edge_index)]
                for row, src in enumerate(sources):
                    if edge_index == INGRESS_EDGE and not (
                            demand.get(src, 0) > 0):
                        continue
                    positions.append(base + rank * size + row * len(
                        destinations) + np.arange(len(destinations)))
                    self.hops.extend(
                        (((name, edge_index, src, dst), 1.0),)
                        for dst in destinations)
        self.positions = (np.concatenate(positions) if positions
                          else np.empty(0, dtype=np.intp))

    def _arc_rates(self, x: np.ndarray, groups: ClassGroups) -> np.ndarray:
        workloads = groups.problem.workloads
        x = np.maximum(x, 0.0)   # HiGHS may return -0 or a last-bit negative
        parts = []
        for members, steps in self.pushes:
            demand = groups.planned.workloads[members[0]].demand
            share: dict[str | None, np.ndarray] = {}
            for start, n_src, n_dst, caller, callee, sources in steps:
                arcs = x[start:start + n_src * n_dst].reshape(n_src, n_dst)
                if caller is None:
                    # ingress: each member's share of the group's demand
                    share[None] = np.array([
                        [workloads[name].demand.get(src, 0.0) / demand[src]
                         for src in sources] for name in members]).reshape(
                             len(members), n_src)
                flows = share[caller][:, :, None] * arcs
                inflow = flows.sum(axis=1)
                total = arcs.sum(axis=0)
                share[callee] = np.divide(inflow, total,
                                          out=np.zeros_like(inflow),
                                          where=total > 0)
                parts.append(flows.ravel())
        return (np.concatenate(parts)[self.positions] if parts
                else np.empty(0))
