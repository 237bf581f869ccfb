"""The Global Controller's request-routing optimizer (§3.3)."""

from .cache import model_fingerprint
from .groups import ClassGroups
from .model import INGRESS_EDGE, LinearModel, build_model, class_edges
from .paths import build_path_model, candidate_paths
from .piecewise import Segment, linearize_convex
from .problem import ClassWorkload, TEProblem
from .result import OptimizationResult, finalize_result
from .solve import HighsLP, SolverError, highs_solve, solve, solve_model
from .warm import EpochSolver, warm_solve

__all__ = [
    "model_fingerprint",
    "ClassGroups",
    "INGRESS_EDGE", "LinearModel", "build_model", "class_edges",
    "build_path_model", "candidate_paths",
    "Segment", "linearize_convex",
    "ClassWorkload", "TEProblem",
    "OptimizationResult", "finalize_result",
    "HighsLP", "SolverError", "highs_solve", "solve", "solve_model",
    "EpochSolver", "warm_solve",
]
