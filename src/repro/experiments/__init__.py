"""Experiment scenarios and harness reproducing the paper's evaluation."""

from .harness import Scenario, compare_policies, predict_policy, run_policy
from .parallel import SweepExecutor, SweepUnit, resolve_workers, run_unit
from .scenarios import (ControlSetup, FigureSetup, chaos_outage_setup,
                        diurnal_control_setup, fig3_threshold_scenario,
                        fig3_threshold_sweep, fig4_offload_sweep,
                        fig4_offload_threshold_problem, fig6a_adaptive_setup,
                        fig6a_how_much, fig6b_which_cluster, fig6c_multihop,
                        fig6d_traffic_classes, slo_burnrate_setup,
                        waterfall_with_absolute_threshold)

__all__ = [
    "Scenario", "compare_policies", "predict_policy", "run_policy",
    "SweepExecutor", "SweepUnit", "resolve_workers", "run_unit",
    "ControlSetup", "FigureSetup", "chaos_outage_setup",
    "diurnal_control_setup", "fig3_threshold_scenario",
    "fig3_threshold_sweep", "fig4_offload_sweep",
    "fig4_offload_threshold_problem", "fig6a_adaptive_setup",
    "fig6a_how_much", "fig6b_which_cluster", "fig6c_multihop",
    "fig6d_traffic_classes", "slo_burnrate_setup",
    "waterfall_with_absolute_threshold",
]
