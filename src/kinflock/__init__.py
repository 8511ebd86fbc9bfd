"""Kinetic and agent-based flocking solvers with cut-off interaction."""

from .phase import AgentState, Ensemble, HeadingState, LocalMoments
from .spatial import SpatialIndex, build_index, query_radius

__all__ = [
    "AgentState",
    "Ensemble",
    "HeadingState",
    "LocalMoments",
    "SpatialIndex",
    "build_index",
    "query_radius",
]

__version__ = "0.1.0"
