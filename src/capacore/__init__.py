"""Strong coresets for capacitated k-clustering on integer grids.

Offline, dynamic-streaming and simulated-distributed construction of
(eta, eps)-coresets, plus reconstruction of near-feasible capacitated
assignments from the coreset, validated against exact small-instance
oracles.
"""

from .common import INFEASIBLE, Fail, is_fail, is_infeasible
from .geometry import Point, GridHierarchy, dist_pow
from .params import derive as derive_params
from .coreset import build_auto, build_for_o, WeightedCoreset
from .streaming import StreamEngine
from .distributed import run_protocol

__version__ = "0.1.0"

__all__ = [
    "Fail", "INFEASIBLE", "is_fail", "is_infeasible",
    "Point", "GridHierarchy", "dist_pow",
    "derive_params", "build_auto", "build_for_o", "WeightedCoreset",
    "StreamEngine", "run_protocol", "__version__",
]
