"""The Global Controller's request-routing optimizer (§3.3)."""

from .cache import DEFAULT_CACHE_SIZE, SolverCache, model_fingerprint
from .contraction import (ContractedSolution, contract_problem,
                          group_clusters, solve_contracted)
from .model import (INGRESS_EDGE, LinearModel, build_model, build_model_loop,
                    class_edges)
from .paths import build_path_model, candidate_paths
from .piecewise import Segment, linearize_convex
from .problem import ClassWorkload, TEProblem
from .result import OptimizationResult, finalize_result
from .solve import SolverError, highs_solve, solve, solve_model
from .vectorized import StructureCache, build_model_vectorized
from .warm import EpochSolver, warm_solve

__all__ = [
    "DEFAULT_CACHE_SIZE", "SolverCache", "model_fingerprint",
    "ContractedSolution", "contract_problem", "group_clusters",
    "solve_contracted",
    "INGRESS_EDGE", "LinearModel", "build_model", "build_model_loop",
    "class_edges",
    "build_path_model", "candidate_paths",
    "Segment", "linearize_convex",
    "ClassWorkload", "TEProblem",
    "OptimizationResult", "finalize_result",
    "SolverError", "highs_solve", "solve", "solve_model",
    "StructureCache", "build_model_vectorized",
    "EpochSolver", "warm_solve",
]
