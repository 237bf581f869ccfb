"""Hybrid-fidelity simulation: the fluid substrate (ISSUE 10).

Covers the tentpole acceptance surface:

* same-seed determinism — fluid-mode end state is byte-identical across
  runs (counters, egress ledger, pool busy-time), and hybrid-mode
  sampled latencies are too;
* conservation — every bulk-admitted request is settled at quiesce
  (``admitted == completed + failed``, no open requests), flows are
  non-negative, and routing-matrix rows are probability rows;
* fidelity parity — hybrid sampled-slice p95 stays within a band of the
  event-level run on the same scenario, and fluid-mode egress matches
  event-level egress;
* the ``fidelity`` knob on :func:`run_policy` / ``repro run``;
* the tick and the steady-state evaluator
  (:func:`repro.analysis.fluid.evaluate_rules`, the same kernel) offer
  exactly the same pool work;
* devtools coverage — the D02 wall-clock lint and the runtime invariant
  helpers apply to the fluid tick loop, and the A04 layering contract
  pins ``repro.sim.fluid`` below obs/chaos.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.fluid import evaluate_rules
from repro.core import RuleSet
from repro.devtools.invariants import (InvariantViolation, check_fluid_rates,
                                       check_fluid_tick,
                                       check_routing_matrix)
from repro.experiments.harness import run_policy
from repro.experiments.scenarios import diurnal_control_setup, fig6a_how_much
from repro.obs.timeseries import percentile
from repro.sim import (DemandMatrix, DeploymentSpec, MeshSimulation,
                       linear_chain_app, two_region_latency)


def small_world(replicas: int = 5):
    app = linear_chain_app(n_services=3, exec_time=0.010)
    deployment = DeploymentSpec.uniform(
        app.services(), ["west", "east"], replicas=replicas,
        latency=two_region_latency(25.0))
    return app, deployment


def west_heavy_demand() -> DemandMatrix:
    # west beyond local capacity => offload => non-zero egress
    return DemandMatrix({("default", "west"): 650.0,
                         ("default", "east"): 100.0})


def run_sim(fidelity: str, seed: int = 42, duration: float = 10.0,
            **kwargs) -> MeshSimulation:
    app, deployment = small_world(replicas=8)
    sim = MeshSimulation(app, deployment, seed=seed, fidelity=fidelity,
                         **kwargs)
    sim.run(west_heavy_demand(), duration)
    return sim


def state_signature(sim: MeshSimulation) -> str:
    """A byte-comparable digest of everything a run mutates."""
    return json.dumps({
        "gateways": {name: [g.admitted_count, g.completed_count,
                            g.failed_count, g.open_requests]
                     for name, g in sorted(sim.gateways.items())},
        "egress_bytes": sim.network.ledger.total_bytes,
        "egress_cost": sim.network.ledger.total_cost,
        "busy": {f"{cname}/{sname}": pool.lifetime_busy_seconds
                 for cname, cluster in sorted(sim.clusters.items())
                 for sname, pool in sorted(cluster.pools.items())},
        "latencies": sim.telemetry.latencies(),
        "ticks": sim.fluid.ticks if sim.fluid is not None else 0,
    }, sort_keys=True)


# ------------------------------------------------------------ determinism


def test_fluid_same_seed_is_byte_identical():
    first = state_signature(run_sim("fluid"))
    second = state_signature(run_sim("fluid"))
    assert first == second


def test_hybrid_same_seed_is_byte_identical():
    first = run_sim("hybrid", sample_rate=0.1)
    second = run_sim("hybrid", sample_rate=0.1)
    assert state_signature(first) == state_signature(second)
    assert first.telemetry.latencies() == second.telemetry.latencies()


def test_different_seeds_diverge_in_hybrid():
    first = run_sim("hybrid", seed=1, sample_rate=0.1)
    second = run_sim("hybrid", seed=2, sample_rate=0.1)
    assert first.telemetry.latencies() != second.telemetry.latencies()


# ----------------------------------------------------------- conservation


@pytest.mark.parametrize("fidelity", ["fluid", "hybrid"])
def test_bulk_admissions_are_conserved_at_quiesce(fidelity):
    sim = run_sim(fidelity)
    for name, gateway in sim.gateways.items():
        assert gateway.admitted_count > 0, name
        assert gateway.open_requests == 0, name
        assert (gateway.admitted_count
                == gateway.completed_count + gateway.failed_count), name


def test_fluid_solution_flows_are_nonnegative_probability_rows():
    sim = run_sim("fluid")
    solution = sim.fluid.last_solution
    assert solution is not None
    for state in solution.per_class.values():
        assert all(rate >= 0 for rate in state.demand)
        for rates in state.exec_rates.values():
            assert all(rate >= 0 for rate in rates)
        assert state.failed_rate >= 0
    model = sim.fluid.model
    for service in sim.app.services():
        matrix = model.routing_matrix(service, "default")
        for row in matrix:
            assert all(float(w) >= 0 for w in row)
            assert abs(sum(float(w) for w in row) - 1.0) <= 1e-9


def test_overload_sheds_as_failures_not_negative_flow():
    app, deployment = small_world(replicas=2)   # capacity 200 rps/cluster
    sim = MeshSimulation(app, deployment, seed=7, fidelity="fluid")
    sim.run(DemandMatrix({("default", "west"): 900.0}), 10.0)
    west = sim.gateways["west"]
    assert west.failed_count > 0
    assert west.open_requests == 0
    assert west.admitted_count == west.completed_count + west.failed_count


# -------------------------------------------------------- fidelity parity


def test_hybrid_p95_tracks_event_level_truth():
    setup = diurnal_control_setup(base_rps=150.0, duration=30.0,
                                  replicas=5)
    event = run_policy(setup.scenario, setup.policy,
                       timeline=setup.timeline)
    setup = diurnal_control_setup(base_rps=150.0, duration=30.0,
                                  replicas=5)
    hybrid = run_policy(setup.scenario, setup.policy,
                        timeline=setup.timeline, fidelity="hybrid",
                        sample_rate=0.25)
    event_p95 = percentile(event.latencies, 0.95)
    hybrid_p95 = percentile(hybrid.latencies, 0.95)
    assert event_p95 > 0 and hybrid.latencies
    assert abs(hybrid_p95 - event_p95) / event_p95 <= 0.25


def test_fluid_egress_matches_event_level():
    setup = fig6a_how_much(duration=15.0)
    slate = setup.policies[-1]
    event = run_policy(setup.scenario, slate)
    fluid = run_policy(setup.scenario, slate, fidelity="fluid")
    assert event.egress_bytes > 0
    assert fluid.latencies == []          # bulk flows sample nothing
    relative = abs(fluid.egress_bytes
                   - event.egress_bytes) / event.egress_bytes
    assert relative <= 0.05


# ---------------------------------------------------------- fidelity knob


def test_run_policy_fidelity_knob_threads_through():
    setup = fig6a_how_much(duration=6.0)
    outcome = run_policy(setup.scenario, setup.policies[-1],
                         fidelity="hybrid", sample_rate=0.2,
                         fluid_tick=0.05)
    assert outcome.latencies


def test_unknown_fidelity_rejected():
    app, deployment = small_world()
    with pytest.raises(ValueError, match="fidelity"):
        MeshSimulation(app, deployment, fidelity="quantum")


def test_fluid_fidelity_requires_pool_service_model():
    app, deployment = small_world()
    with pytest.raises(ValueError, match="service_model"):
        MeshSimulation(app, deployment, fidelity="fluid",
                       service_model="replicas")


@pytest.mark.parametrize("kwargs", [{"sample_rate": 0.0},
                                    {"sample_rate": 1.5},
                                    {"fluid_tick": 0.0}])
def test_invalid_fluid_parameters_rejected(kwargs):
    app, deployment = small_world()
    with pytest.raises(ValueError):
        MeshSimulation(app, deployment, fidelity="hybrid", **kwargs)


# ----------------------------------------- agreement with analytic model


def test_fluid_pool_work_matches_analytic_fluid_model():
    app, deployment = small_world(replicas=8)
    demand = west_heavy_demand()
    sim = MeshSimulation(app, deployment, seed=42, fidelity="fluid")
    sim.run(demand, 5.0)
    prediction = evaluate_rules(app, deployment, demand, RuleSet())
    # one kernel: the tick and the steady state offer the same work
    assert prediction.pool_work == sim.fluid.last_solution.pool_offered


# --------------------------------------------------- devtools integration


def test_check_fluid_tick_rejects_backwards_time():
    check_fluid_tick(1.0, 1.0)
    check_fluid_tick(1.0, 2.0)
    with pytest.raises(InvariantViolation, match="monotonicity"):
        check_fluid_tick(2.0, 1.0)


def test_check_routing_matrix_rejects_bad_rows():
    check_routing_matrix("svc", "default", [[0.5, 0.5], [0.0, 1.0]])
    with pytest.raises(InvariantViolation, match="sums to"):
        check_routing_matrix("svc", "default", [[0.5, 0.4]])
    with pytest.raises(InvariantViolation, match="invalid weight"):
        check_routing_matrix("svc", "default", [[1.5, -0.5]])


def test_check_fluid_rates_rejects_negative_and_nan():
    check_fluid_rates("default", [0.0, 1.5])
    with pytest.raises(InvariantViolation):
        check_fluid_rates("default", [1.0, -0.1])
    with pytest.raises(InvariantViolation):
        check_fluid_rates("default", [float("nan")])


def test_d02_wall_clock_lint_covers_fluid_tick_loop():
    from repro.devtools.lint import Linter
    source = ("import time\n"
              "def tick():\n"
              "    return time.time()\n")
    findings = Linter().lint_source(
        source, "src/repro/sim/fluid/substrate.py")
    assert any(f.rule == "D02" for f in findings)


def test_a04_layering_pins_fluid_below_obs_and_chaos():
    from repro.devtools.flow.contracts import LayerSpec
    rules = {rule.package: rule for rule in LayerSpec.default().rules}
    assert "repro.sim.fluid" in rules
    forbidden = rules["repro.sim.fluid"].forbid
    assert "repro.obs" in forbidden and "repro.chaos" in forbidden


def test_fluid_package_has_no_eager_obs_or_chaos_imports():
    """Static check: no fluid module imports obs/chaos at module level."""
    import ast
    from pathlib import Path
    import repro.sim.fluid as fluid_pkg
    package_dir = Path(fluid_pkg.__file__).parent
    for path in sorted(package_dir.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:                  # top level only: eager
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            for name in names:
                assert not name.startswith(("repro.obs", "repro.chaos")), (
                    f"{path.name} eagerly imports {name}")


# ------------------------------------------------------------------- CLI


def test_cli_run_emits_fidelity_in_json(capsys):
    from repro.cli import main
    code = main(["run", "--scenario", "constant", "--fidelity", "fluid",
                 "--rps", "200", "--duration", "5", "--epoch", "2.5",
                 "--json"])
    assert code == 0
    document = json.loads(capsys.readouterr().out)
    assert document["fidelity"] == "fluid"
    assert document["sampled_latency"]["count"] == 0
    assert document["offered_requests"] == 2000.0


def test_cli_run_hybrid_reports_percentiles(capsys):
    from repro.cli import main
    code = main(["run", "--scenario", "diurnal", "--fidelity", "hybrid",
                 "--duration", "10", "--json"])
    assert code == 0
    document = json.loads(capsys.readouterr().out)
    assert document["fidelity"] == "hybrid"
    assert document["sampled_latency"]["count"] > 0
    assert document["sampled_latency"]["p95"] > 0
