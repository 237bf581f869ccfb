"""Tests for the Waterfall baseline (Traffic Director / ServiceRouter)."""

import pytest

from repro.baselines.base import PolicyContext
from repro.baselines.waterfall import (WaterfallConfig, WaterfallPolicy,
                                       _topological_order, cascade_loads,
                                       waterfall_split)
from repro.experiments import scenarios
from repro.sim import (AppSpec, CallEdge, DemandMatrix, DeploymentSpec,
                       TrafficClassSpec, anomaly_detection_app, fanout_app,
                       linear_chain_app, social_network_app, two_class_app,
                       gcp_four_region_latency, two_region_latency)
from repro.sim.request import RequestAttributes
from repro.sim.topology import ClusterSpec


class TestSplit:
    def proximity(self, clusters):
        # alphabetic proximity stub: everything equidistant
        return {src: [c for c in clusters] for src in clusters}

    def test_under_capacity_all_local(self):
        split = waterfall_split(
            loads={"a": 100.0, "b": 50.0},
            capacities={"a": 200.0, "b": 200.0},
            deployed=["a", "b"],
            proximity={"a": ["b", "a"], "b": ["a", "b"]})
        assert split["a"] == {"a": 1.0}
        assert split["b"] == {"b": 1.0}

    def test_excess_spills_to_nearest_spare(self):
        split = waterfall_split(
            loads={"a": 300.0, "b": 50.0},
            capacities={"a": 200.0, "b": 200.0},
            deployed=["a", "b"],
            proximity={"a": ["b"], "b": ["a"]})
        assert split["a"]["a"] == pytest.approx(200 / 300)
        assert split["a"]["b"] == pytest.approx(100 / 300)

    def test_no_spare_overloads_locally(self):
        split = waterfall_split(
            loads={"a": 300.0, "b": 190.0},
            capacities={"a": 200.0, "b": 200.0},
            deployed=["a", "b"],
            proximity={"a": ["b"], "b": ["a"]})
        # only 10 rps of spare at b; the rest stays local despite overload
        assert split["a"]["b"] == pytest.approx(10 / 300)
        assert split["a"]["a"] == pytest.approx(290 / 300)

    def test_undeployed_source_fails_over_entirely(self):
        split = waterfall_split(
            loads={"x": 100.0},
            capacities={"a": 500.0, "b": 500.0},
            deployed=["a", "b"],
            proximity={"x": ["a", "b"]})
        assert split["x"] == {"a": 1.0}

    def test_undeployed_source_no_spare_dumps_nearest(self):
        split = waterfall_split(
            loads={"x": 100.0, "a": 600.0},
            capacities={"a": 500.0},
            deployed=["a"],
            proximity={"x": ["a"], "a": []})
        assert split["x"] == {"a": 1.0}

    def test_uncoordinated_double_booking(self):
        # two overloaded sources each see the same spare at c
        split = waterfall_split(
            loads={"a": 300.0, "b": 300.0, "c": 0.0},
            capacities={"a": 200.0, "b": 200.0, "c": 150.0},
            deployed=["a", "b", "c"],
            proximity={"a": ["c", "b"], "b": ["c", "a"], "c": []},
            coordinated=False)
        # both dump their full 100 excess on c: 200 total into 150 spare
        assert split["a"]["c"] == pytest.approx(100 / 300)
        assert split["b"]["c"] == pytest.approx(100 / 300)

    def test_coordinated_respects_shared_spare(self):
        split = waterfall_split(
            loads={"a": 300.0, "b": 300.0, "c": 0.0},
            capacities={"a": 200.0, "b": 200.0, "c": 150.0},
            deployed=["a", "b", "c"],
            proximity={"a": ["c", "b"], "b": ["c", "a"], "c": []},
            coordinated=True)
        sent_to_c = (split["a"].get("c", 0) * 300
                     + split["b"].get("c", 0) * 300)
        assert sent_to_c == pytest.approx(150.0)

    def test_empty_deployment_rejected(self):
        with pytest.raises(ValueError):
            waterfall_split({}, {}, [], {})


class TestConfig:
    def test_capacity_from_deployment(self):
        app = linear_chain_app(exec_time=0.010)
        deployment = DeploymentSpec.uniform(
            app.services(), ["west", "east"], replicas=5,
            latency=two_region_latency(25.0))
        config = WaterfallConfig.from_deployment(app, deployment,
                                                 threshold_rho=0.8)
        # 0.8 * 5 replicas / 10ms = 400 rps
        assert config.capacity("S1", "west") == pytest.approx(400.0)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            WaterfallConfig({("S", "west"): -1.0})

    def test_threshold_validation(self):
        app = linear_chain_app()
        deployment = DeploymentSpec.uniform(
            app.services(), ["west", "east"], replicas=5,
            latency=two_region_latency(25.0))
        with pytest.raises(ValueError):
            WaterfallConfig.from_deployment(app, deployment, threshold_rho=0)


class TestCascade:
    def test_chain_load_propagates(self):
        app = linear_chain_app(n_services=3, exec_time=0.010)
        deployment = DeploymentSpec.uniform(
            app.services(), ["west", "east"], replicas=5,
            latency=two_region_latency(25.0))
        demand = DemandMatrix({("default", "west"): 300.0})
        config = WaterfallConfig.from_deployment(app, deployment, 0.8)
        split, offered = cascade_loads(app, deployment, demand, config)
        # all under threshold: everything local and each service sees 300
        for service in ("S1", "S2", "S3"):
            assert offered[service]["west"] == pytest.approx(300.0)
            assert split[service]["west"] == {"west": 1.0}

    def test_spill_at_parent_moves_child_origin(self):
        app = linear_chain_app(n_services=2, exec_time=0.010)
        deployment = DeploymentSpec.uniform(
            app.services(), ["west", "east"], replicas=5,
            latency=two_region_latency(25.0))
        demand = DemandMatrix({("default", "west"): 500.0})
        config = WaterfallConfig.from_deployment(app, deployment, 0.8)
        split, offered = cascade_loads(app, deployment, demand, config)
        # S1 spills 100 east; S2 calls then originate 400 west, 100 east
        assert offered["S2"]["west"] == pytest.approx(400.0)
        assert offered["S2"]["east"] == pytest.approx(100.0)

    def test_missing_service_fails_over(self):
        app = linear_chain_app(n_services=2, exec_time=0.010)
        deployment = DeploymentSpec(
            clusters=[ClusterSpec("west", {"S1": 5}),
                      ClusterSpec("east", {"S1": 5, "S2": 5})],
            latency=two_region_latency(25.0))
        demand = DemandMatrix({("default", "west"): 100.0})
        config = WaterfallConfig.from_deployment(app, deployment, 0.8)
        split, _ = cascade_loads(app, deployment, demand, config)
        assert split["S2"]["west"] == {"east": 1.0}

    def test_class_blind_same_split_for_all_classes(self):
        app = two_class_app()
        deployment = DeploymentSpec.uniform(
            app.services(), ["west", "east"], replicas=8,
            latency=two_region_latency(25.0))
        demand = DemandMatrix({("L", "west"): 400.0, ("H", "west"): 150.0})
        config = WaterfallConfig.from_deployment(app, deployment, 0.8)
        policy = WaterfallPolicy(config)
        ctx = PolicyContext(app, deployment, demand)
        rules = policy.compute_rules(ctx)
        rule = rules.rule_for("S1", "*", "west")
        assert rule is not None   # one wildcard rule, not per-class rules
        assert rules.rule_for("S1", "L", "west") is None

    def test_gcp_greedy_dogpiles_ut(self):
        # the §4.2 pathology: OR and IOW both spill to UT, nothing to SC
        app = linear_chain_app(n_services=3, exec_time=0.010)
        deployment = DeploymentSpec.uniform(
            app.services(), ["OR", "UT", "IOW", "SC"], replicas=5,
            latency=gcp_four_region_latency())
        demand = DemandMatrix({("default", "OR"): 590.0,
                               ("default", "IOW"): 590.0,
                               ("default", "UT"): 100.0,
                               ("default", "SC"): 100.0})
        config = WaterfallConfig.from_deployment(app, deployment, 0.8)
        split, _ = cascade_loads(app, deployment, demand, config,
                                 coordinated=False)
        for src in ("OR", "IOW"):
            assert split["S1"][src].get("UT", 0) > 0
            assert split["S1"][src].get("SC", 0) == 0


class TestPolicy:
    def test_adaptive_recomputes_from_reports(self):
        from repro.mesh.telemetry import ClusterEpochReport
        app = linear_chain_app(exec_time=0.010)
        deployment = DeploymentSpec.uniform(
            app.services(), ["west", "east"], replicas=5,
            latency=two_region_latency(25.0))
        config = WaterfallConfig.from_deployment(app, deployment, 0.8)
        policy = WaterfallPolicy(config, adaptive=True)
        ctx = PolicyContext(app, deployment,
                            DemandMatrix({("default", "west"): 100.0}))
        report = ClusterEpochReport(cluster="west", start_time=0.0,
                                    duration=5.0,
                                    ingress_counts={"default": 2500})
        rules = policy.on_epoch([report], ctx)
        # observed 500 rps > 400 threshold: the refreshed rules spill
        assert rules is not None
        assert rules.rule_for("S1", "*", "west").weight_map().get(
            "east", 0) > 0

    def test_static_policy_ignores_epochs(self):
        app = linear_chain_app()
        deployment = DeploymentSpec.uniform(
            app.services(), ["west", "east"], replicas=5,
            latency=two_region_latency(25.0))
        config = WaterfallConfig.from_deployment(app, deployment, 0.8)
        policy = WaterfallPolicy(config, adaptive=False)
        ctx = PolicyContext(app, deployment, DemandMatrix())
        assert policy.on_epoch([], ctx) is None


ONE = (1.0).hex()


def hex_split(split):
    return {service: {src: {dst: f.hex() for dst, f in dsts.items()}
                      for src, dsts in by_src.items()}
            for service, by_src in split.items()}


class TestTopologicalOrder:
    """The cascade adds child loads in this order, so a different valid
    order can change float sums. The literal lists are the orders
    networkx's ``topological_sort`` gave before it was replaced."""

    FROZEN = {
        "linear_chain": (lambda: linear_chain_app(), ["S1", "S2", "S3"]),
        "linear_chain_1": (lambda: linear_chain_app(n_services=1), ["S1"]),
        "linear_chain_5": (lambda: linear_chain_app(n_services=5),
                           ["S1", "S2", "S3", "S4", "S5"]),
        "anomaly_detection": (anomaly_detection_app, ["FR", "MP", "DB"]),
        "two_class": (two_class_app, ["S1", "S2"]),
        "two_class_4": (lambda: two_class_app(n_services=4),
                        ["S1", "S2", "S3", "S4"]),
        "social_network": (social_network_app,
                           ["FE", "CP", "MD", "TL", "PS", "US"]),
        "fanout": (fanout_app, ["FE", "B1", "B2", "B3"]),
        "fanout_5": (lambda: fanout_app(width=5),
                     ["FE", "B1", "B2", "B3", "B4", "B5"]),
        "fig6a": (lambda: scenarios.fig6a_how_much().scenario.app,
                  ["S1", "S2", "S3"]),
        "fig6b": (lambda: scenarios.fig6b_which_cluster().scenario.app,
                  ["S1", "S2", "S3"]),
        "fig6c": (lambda: scenarios.fig6c_multihop().scenario.app,
                  ["FR", "MP", "DB"]),
        "fig6d": (lambda: scenarios.fig6d_traffic_classes().scenario.app,
                  ["S1", "S2"]),
        "fig3": (lambda: scenarios.fig3_threshold_scenario(150.0).app,
                 ["S1", "S2", "S3"]),
        "fig4": (lambda: scenarios.fig4_offload_threshold_problem(
            5.0, 100.0).app, ["S1", "S2", "S3"]),
    }

    @pytest.mark.parametrize("name", FROZEN)
    def test_frozen_order(self, name):
        build, order = self.FROZEN[name]
        assert _topological_order(build()) == order

    def test_cycle_across_classes_rejected(self):
        # each class is a valid tree; their union A->B->A is not a DAG
        def one_edge(name, caller, callee):
            return TrafficClassSpec(
                name=name, attributes=RequestAttributes.make(caller),
                root_service=caller, edges=[CallEdge(caller, callee)])
        app = AppSpec(name="cyclic", classes={
            "x": one_edge("x", "A", "B"), "y": one_edge("y", "B", "A")})
        with pytest.raises(ValueError, match="cycle"):
            _topological_order(app)
        deployment = DeploymentSpec.uniform(
            app.services(), ["west"], replicas=1,
            latency=two_region_latency(25.0))
        with pytest.raises(ValueError, match="cycle"):
            cascade_loads(app, deployment, DemandMatrix(),
                          WaterfallConfig({}))


class TestFrozenSplits:
    """``cascade_loads`` splits float.hex-equal to the networkx-ordered
    cascade they were frozen from."""

    def test_fig6b(self):
        setup = scenarios.fig6b_which_cluster()
        scenario = setup.scenario
        split, _ = cascade_loads(scenario.app, scenario.deployment,
                                 scenario.demand, setup.waterfall.config)
        spill = {"OR": "0x1.5b1e5f75270d0p-1", "UT": "0x1.49c34115b1e5fp-2"}
        assert hex_split(split) == {
            "S1": {"OR": spill, "UT": {"UT": ONE},
                   "IOW": {"IOW": spill["OR"], "UT": spill["UT"]},
                   "SC": {"SC": ONE}},
            "S2": {"OR": {"OR": ONE},
                   "UT": {"UT": "0x1.aaaaaaaaaaaabp-1",
                          "SC": "0x1.5555555555555p-3"},
                   "IOW": {"IOW": ONE}, "SC": {"SC": ONE}},
            "S3": {src: {src: ONE} for src in ("OR", "UT", "IOW", "SC")},
        }

    # S1's split at West for each (load, threshold); everything else local
    FIG3_WEST_S1 = {
        (350.0, 250.0): {"west": "0x1.6db6db6db6db7p-1",
                         "east": "0x1.2492492492492p-2"},
        (420.0, 250.0): {"west": "0x1.4924924924925p-1",
                         "east": "0x1.6db6db6db6db7p-2"},
        (470.0, 250.0): {"west": "0x1.5c9882b931057p-1",
                         "east": "0x1.46cefa8d9df52p-2"},
    }

    def test_fig3_sweep(self):
        for west_rps in scenarios.FIG3_WEST_LOADS:
            scenario = scenarios.fig3_threshold_scenario(west_rps)
            for threshold in (scenarios.FIG3_CONSERVATIVE_RPS,
                              scenarios.FIG3_AGGRESSIVE_RPS):
                policy = scenarios.waterfall_with_absolute_threshold(
                    scenario.app, scenario.deployment, threshold)
                split, _ = cascade_loads(scenario.app, scenario.deployment,
                                         scenario.demand, policy.config)
                expected = {service: {src: {src: ONE}
                                      for src in ("west", "east")}
                            for service in ("S1", "S2", "S3")}
                expected["S1"]["west"] = self.FIG3_WEST_S1.get(
                    (west_rps, threshold), {"west": ONE})
                assert hex_split(split) == expected, (west_rps, threshold)

    def test_social_network_shared_children(self):
        # TL, PS and US each have two callers across the classes, so their
        # loads sum both classes' cascades
        app = social_network_app()
        deployment = DeploymentSpec.uniform(
            app.services(), ["OR", "UT", "IOW", "SC"], replicas=4,
            latency=gcp_four_region_latency())
        demand = DemandMatrix({("read", "OR"): 700.0,
                               ("compose", "OR"): 230.0,
                               ("read", "IOW"): 410.0,
                               ("compose", "UT"): 90.0})
        config = WaterfallConfig.from_deployment(app, deployment, 0.8)
        split, offered = cascade_loads(app, deployment, demand, config)
        moved = {service: {src: dsts for src, dsts in by_src.items()
                           if dsts != {src: ONE}}
                 for service, by_src in hex_split(split).items()}
        assert {s: m for s, m in moved.items() if m} == {
            "TL": {"OR": {"OR": "0x1.611a7b9611a7cp-1",
                          "UT": "0x1.3dcb08d3dcb09p-2"}},
            "PS": {"OR": {"OR": "0x1.fed1086f855c1p-1",
                          "UT": "0x1.2ef7907aa3e85p-9"}},
        }
        leaves = {"OR": "0x1.64611a7b9611bp+9", "UT": "0x1.333dcb08d3dcbp+8",
                  "IOW": "0x1.9a00000000000p+8"}
        for service in ("PS", "US"):
            assert {c: v.hex() for c, v in offered[service].items()
                    if v} == leaves
