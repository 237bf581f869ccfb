"""SLATE control plane: Global Controller, Cluster Controller, rollout."""

from ...forecasting import HoltForecaster
from .cluster_controller import ClusterController, FallbackPolicy
from .global_controller import GlobalController, GlobalControllerConfig
from .policy import SlatePolicy
from .rollout import IncrementalRollout, RolloutConfig

__all__ = [
    "ClusterController", "FallbackPolicy",
    "HoltForecaster",
    "GlobalController", "GlobalControllerConfig",
    "SlatePolicy",
    "IncrementalRollout", "RolloutConfig",
]
