"""The Global Controller's request-routing optimizer (§3.3)."""

from .cache import DEFAULT_CACHE_SIZE, SolverCache, model_fingerprint
from .model import INGRESS_EDGE, LinearModel, build_model, class_edges
from .paths import build_path_model, candidate_paths
from .piecewise import Segment, linearize_convex
from .problem import ClassWorkload, TEProblem
from .result import OptimizationResult, finalize_result
from .solve import SolverError, highs_solve, solve, solve_model
from .vectorized import StructureCache
from .warm import EpochSolver, warm_solve

__all__ = [
    "DEFAULT_CACHE_SIZE", "SolverCache", "model_fingerprint",
    "INGRESS_EDGE", "LinearModel", "build_model", "class_edges",
    "build_path_model", "candidate_paths",
    "Segment", "linearize_convex",
    "ClassWorkload", "TEProblem",
    "OptimizationResult", "finalize_result",
    "SolverError", "highs_solve", "solve", "solve_model",
    "StructureCache",
    "EpochSolver", "warm_solve",
]
