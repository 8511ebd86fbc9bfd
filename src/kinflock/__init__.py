"""Kinetic and agent-based flocking solvers with cut-off interaction."""

from .phase import AgentState, Ensemble, HeadingState
from .spatial import SpatialIndex

__all__ = [
    "AgentState",
    "Ensemble",
    "HeadingState",
    "SpatialIndex",
]

__version__ = "0.1.0"
