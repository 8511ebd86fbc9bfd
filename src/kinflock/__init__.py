"""Kinetic and agent-based flocking solvers with cut-off interaction.

`import kinflock` loads no numpy: the state class below is imported from
`kinflock.phase` on first access, so `kinflock.cli` can choose the BLAS
thread count before numpy starts.
"""

__all__ = ["Ensemble"]

__version__ = "0.1.0"


def __getattr__(name):
    if name in __all__:
        from . import phase
        return getattr(phase, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
