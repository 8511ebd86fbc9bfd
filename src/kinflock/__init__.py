"""Kinetic and agent-based flocking solvers with cut-off interaction."""

from .phase import AgentState, Ensemble, HeadingState

__all__ = [
    "AgentState",
    "Ensemble",
    "HeadingState",
]

__version__ = "0.1.0"
