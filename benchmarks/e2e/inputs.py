"""Seeded inputs: the library receives only what is generated here.

Instance *shapes* (topology, placement, class → ingress choice) are fixed
per workload — they come from the repo's own
:func:`~repro.experiments.scenarios.synthetic_te_problem` at its default
seed, so every ``--seed`` measures the same LP structure — while the run
seed drives what varies between real runs of one deployment: arrival and
service-time draws in the simulator, and Poisson noise on the ingress
counts the control-plane workloads synthesise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.experiments.scenarios import synthetic_te_problem
from repro.mesh.telemetry import ClusterEpochReport
from repro.sim.apps import AppSpec
from repro.sim.rng import RngRegistry
from repro.sim.topology import ClusterSpec, DeploymentSpec
from repro.sim.traces import DemandTimeline, diurnal_timeline
from repro.sim.workload import DemandMatrix

__all__ = ["Mesh", "synthetic_mesh", "phased_diurnal", "epoch_reports"]

#: diurnal swing of every synthetic demand source (issue-fixed)
AMPLITUDE = 0.4


@dataclass
class Mesh:
    """One synthetic deployment: what a policy context is made of."""

    app: AppSpec
    deployment: DeploymentSpec
    demand: DemandMatrix


def synthetic_mesh(n_clusters: int, n_services: int, n_classes: int,
                   total_rps: float, headroom: float,
                   ingresses_per_class: int | None = None) -> Mesh:
    """The specs behind ``synthetic_te_problem`` at ``total_rps`` overall."""
    entries = n_classes * (ingresses_per_class or n_clusters)
    problem = synthetic_te_problem(
        n_clusters, n_services, n_classes,
        rps_per_class=total_rps / entries, headroom=headroom,
        ingresses_per_class=ingresses_per_class)
    app = AppSpec(name="synthetic", classes={
        name: workload.spec for name, workload in problem.workloads.items()})
    deployment = DeploymentSpec(
        [ClusterSpec(cluster, {service: count for (service, where), count
                               in problem.replicas.items()
                               if where == cluster})
         for cluster in problem.clusters],
        problem.latency, problem.pricing)
    demand = DemandMatrix({
        (name, cluster): rps
        for name, workload in problem.workloads.items()
        for cluster, rps in workload.demand.items()})
    return Mesh(app, deployment, demand)


def phased_diurnal(mesh: Mesh, duration: float) -> DemandTimeline:
    """One diurnal period over ``duration``, each cluster's peak shifted."""
    names = mesh.deployment.cluster_names
    phases = {name: 2 * math.pi * index / len(names)
              for index, name in enumerate(names)}
    return diurnal_timeline(mesh.demand, duration, period=duration,
                            amplitude=AMPLITUDE, phase_by_cluster=phases,
                            steps_per_period=12)


def epoch_reports(mesh: Mesh, seed: int, n_epochs: int, epoch: float,
                  repeat_every: int | None
                  ) -> list[list[ClusterEpochReport]]:
    """The telemetry a control-only workload feeds its controller.

    Cluster *i*'s ingress count for epoch *e* is Poisson around
    ``rps * epoch * (1 + 0.4 sin(2π(e/37.3 + i/n)))``; with
    ``repeat_every`` set, every such epoch repeats the previous one exactly
    (with ``demand_alpha=1`` a repeated report is a repeated model, i.e. a
    solver-cache replay).
    """
    rng = RngRegistry(seed).stream("bench/ingress-counts")
    names = mesh.deployment.cluster_names
    entries = mesh.demand.items()
    base = np.array([rps * epoch for _, _, rps in entries])
    phase = np.array([names.index(cluster) / len(names)
                      for _, cluster, _ in entries])
    epochs: list[list[ClusterEpochReport]] = []
    counts: dict[str, dict[str, int]] = {}
    for e in range(n_epochs):
        if not (repeat_every and e and e % repeat_every == 0):
            swing = np.sin(2 * math.pi * (e / 37.3 + phase))
            drawn = rng.poisson(base * (1 + AMPLITUDE * swing))
            counts = {name: {} for name in names}
            for (cls, cluster, _), count in zip(entries, drawn):
                counts[cluster][cls] = int(count)
        epochs.append([
            ClusterEpochReport(cluster=name, start_time=e * epoch,
                               duration=epoch,
                               ingress_counts=dict(counts[name]))
            for name in names])
    return epochs
