"""SlatePolicy plans through one controller and one solver (ISSUE 12).

The initial ``compute_rules`` plan builds its problem from the whole
``GlobalControllerConfig`` and solves it with the ``EpochSolver`` the
adaptive epochs use; ``GlobalController.oracle`` is the same
``plan_known`` on a fresh controller. Pinned here: the configured
formulation is honoured, under the default arc formulation both emit
exactly the rules of the cacheless one-shot ``solve``, the first epoch
starts from a warm structure cache, and a static policy still exposes no
controller.
"""

from __future__ import annotations

import pytest

from repro.core.controller.global_controller import (GlobalController,
                                                     GlobalControllerConfig)
from repro.core.controller.policy import SlatePolicy
from repro.core.optimizer import TEProblem, solve
from repro.core.optimizer import model as arc_model
from repro.core.optimizer import warm
from repro.experiments.scenarios import (fig6a_how_much, fig6b_which_cluster,
                                         fig6c_multihop,
                                         fig6d_traffic_classes)
from repro.mesh.telemetry import ClusterEpochReport


def epoch_reports(ctx, duration: float = 10.0) -> list[ClusterEpochReport]:
    """Telemetry that observed exactly the context's demand."""
    reports = []
    for cluster in ctx.deployment.cluster_names:
        report = ClusterEpochReport(cluster=cluster, start_time=0.0,
                                    duration=duration)
        for cls in ctx.app.classes:
            report.ingress_counts[cls] = round(
                ctx.demand.rps(cls, cluster) * duration)
        reports.append(report)
    return reports


def test_path_formulation_reaches_the_initial_plan(monkeypatch):
    def no_arc_build(*args, **kwargs):
        raise AssertionError("arc build_model ran under formulation='path'")

    monkeypatch.setattr(arc_model, "build_model", no_arc_build)
    monkeypatch.setattr(warm, "build_model", no_arc_build)
    ctx = fig6b_which_cluster().scenario.context()
    policy = SlatePolicy(GlobalControllerConfig(formulation="path", path_k=3),
                         adaptive=True)
    rules = policy.compute_rules(ctx)
    assert len(rules) > 0
    stats = policy.controller.epoch_solver.last_candidate_stats
    assert stats is not None and stats["paths"] > 0 and stats["k"] == 3


@pytest.mark.parametrize("figure", [fig6a_how_much, fig6b_which_cluster,
                                    fig6c_multihop, fig6d_traffic_classes])
def test_arc_formulation_emits_exactly_the_oracle_rules(figure):
    setup = figure()
    ctx = setup.scenario.context()
    config = setup.slate.config
    assert config.formulation == "arc"
    knobs = dict(rho_max=config.rho_max, cost_weight=config.cost_weight,
                 egress_budget=config.egress_budget,
                 delay_model=config.delay_model)
    one_shot = solve(TEProblem.from_specs(ctx.app, ctx.deployment,
                                          ctx.demand, **knobs))
    oracle = GlobalController.oracle(ctx.app, ctx.deployment, ctx.demand,
                                     **knobs)
    # float-for-float: the same model reaches the same HiGHS call
    assert oracle == one_shot
    assert oracle.rules().by_key() == one_shot.rules().by_key()
    assert setup.slate.compute_rules(ctx).by_key() == (
        one_shot.rules().by_key())


@pytest.mark.parametrize("formulation", ["arc", "path"])
def test_first_epoch_after_the_initial_plan_builds_warm(formulation):
    ctx = fig6b_which_cluster().scenario.context()
    policy = SlatePolicy(
        GlobalControllerConfig(formulation=formulation, learn_profiles=False),
        adaptive=True)
    policy.compute_rules(ctx)
    controller = policy.controller
    assert controller is not None
    assert controller.last_result is None      # the initial plan is no epoch
    assert controller.epoch_solver.builds == 1
    assert policy.on_epoch(epoch_reports(ctx), ctx) is not None
    assert controller.last_result.warm_build is True
    assert controller.epoch_solver.builds == 2
    assert policy.controller is controller      # one controller throughout


def test_static_policy_exposes_no_controller():
    """The harness keys decision-log rows and controller metrics on
    ``policy.controller``: a static policy must keep exporting neither."""
    ctx = fig6a_how_much().scenario.context()
    policy = SlatePolicy()
    policy.attach_profiler(object())    # never consulted by a static policy
    assert policy.controller is None
    policy.compute_rules(ctx)
    assert policy.controller is None
    assert policy.on_epoch(epoch_reports(ctx), ctx) is None
    assert policy.controller is None


def test_policy_handed_another_deployment_plans_for_it():
    """A static policy was stateless; reusing one across scenarios must
    not plan the second against the first's app and deployment."""
    policy = SlatePolicy()
    for figure in (fig6a_how_much, fig6c_multihop):
        ctx = figure().scenario.context()
        fresh = SlatePolicy(policy.config).compute_rules(ctx)
        assert policy.compute_rules(ctx).by_key() == fresh.by_key()
