"""Phase-space data types shared by the agent and kinetic solvers.

An Ensemble stores weighted phase-space particles in struct-of-arrays form:
each particle carries a mass, the pointwise density value transported along
its characteristic, and the phase-space volume element it represents.  The
product density_value * phase_volume equals the (constant) mass; both
factors are updated by reciprocal exponentials so the identity is exact.
`march` is the time loop that every solver runs its steps through.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError

MASS_IDENTITY_RTOL = 1e-12


def _as_points(arr, dim, name):
    a = np.asarray(arr, dtype=float)
    if a.ndim == 1:
        a = a.reshape(-1, 1) if dim == 1 else a.reshape(0, dim)
    if a.size == 0:
        a = a.reshape(0, dim)
    if a.ndim != 2 or a.shape[1] != dim:
        raise InvalidInputError(f"{name}: expected (N, {dim}) array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name}: non-finite entries")
    return a


def march(state, step, n_steps, stride):
    """(snapshots, steps): `state` and the state after every `stride`-th
    step and after the last of `n_steps`.  `step(state, k)` returns the
    state after step k as a new object, so snapshots are the states
    themselves."""
    snapshots, steps = [state], [0]
    for k in range(1, n_steps + 1):
        state = step(state, k)
        if k % stride == 0 or k == n_steps:
            snapshots.append(state)
            steps.append(k)
    return snapshots, steps


@dataclass
class AgentState:
    """Positions and velocities of N discrete agents."""

    t: float
    dim: int
    positions: np.ndarray  # (N, dim)
    velocities: np.ndarray  # (N, dim)

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise InvalidInputError(f"dim must be 1, 2 or 3, got {self.dim}")
        self.positions = _as_points(self.positions, self.dim, "positions")
        self.velocities = _as_points(self.velocities, self.dim, "velocities")
        if len(self.positions) != len(self.velocities):
            raise InvalidInputError("positions and velocities must have equal length")

    @property
    def n(self):
        return len(self.positions)


def wrap_angle(theta):
    """Normalize angles into (-pi, pi]."""
    theta = np.asarray(theta, dtype=float)
    out = -np.mod(-theta + np.pi, 2.0 * np.pi) + np.pi
    return out


@dataclass
class HeadingState:
    """Planar constant-speed agents with headings, for the discrete
    heading-alignment model."""

    t: int
    positions: np.ndarray  # (N, 2)
    headings: np.ndarray  # (N,), in (-pi, pi]
    speed: float

    def __post_init__(self):
        self.positions = _as_points(self.positions, 2, "positions")
        self.headings = np.asarray(self.headings, dtype=float).reshape(-1)
        if len(self.headings) != len(self.positions):
            raise InvalidInputError("positions and headings must have equal length")
        if not np.all(np.isfinite(self.headings)):
            raise InvalidInputError("headings: non-finite entries")
        if not (self.speed > 0):
            raise InvalidInputError("speed must be strictly positive")
        self.headings = wrap_angle(self.headings)

    @property
    def n(self):
        return len(self.positions)


@dataclass
class Ensemble:
    """Weighted-particle discretization of a phase-space density.

    Arrays: x (N, dim), v (N, dim), mass (N,), density_value (N,),
    phase_volume (N,).  Mass is constant along trajectories; density values
    grow by e^{lam*dim*dt} per step while phase volumes shrink by the
    reciprocal factor.
    """

    t: float
    dim: int
    lam: float
    radius: float
    x: np.ndarray
    v: np.ndarray
    mass: np.ndarray
    density_value: np.ndarray
    phase_volume: np.ndarray
    initial_support_bound: float = 0.0
    initial_sup_density: float = field(default=0.0)

    def __post_init__(self):
        if not (self.lam > 0):
            raise InvalidInputError("lam must be positive")
        if not (self.radius > 0):
            raise InvalidInputError("radius must be positive")
        self.x = _as_points(self.x, self.dim, "x")
        self.v = _as_points(self.v, self.dim, "v")
        n = len(self.x)
        for name in ("mass", "density_value", "phase_volume"):
            a = np.asarray(getattr(self, name), dtype=float).reshape(-1)
            if len(a) != n:
                raise InvalidInputError(f"{name}: length mismatch")
            if not np.all(np.isfinite(a)):
                raise InvalidInputError(f"{name}: non-finite entries")
            setattr(self, name, a)
        if np.any(self.mass < 0) or np.any(self.density_value < 0):
            raise InvalidInputError("mass and density_value must be non-negative")
        if np.any(self.phase_volume <= 0):
            raise InvalidInputError("phase_volume must be strictly positive")
        if self.initial_sup_density == 0.0 and n:
            self.initial_sup_density = float(self.density_value.max())

    @property
    def n(self):
        return len(self.x)

    @property
    def total_mass(self):
        return float(self.mass.sum())

    @property
    def max_speed(self):
        """Current velocity support radius M(t)."""
        if self.n == 0:
            return 0.0
        return float(np.sqrt((self.v ** 2).sum(axis=1)).max())

    def copy(self):
        """An independent copy, through `stepped` at the same time."""
        return self.stepped(self.t, self.x.copy(), self.v.copy())

    def stepped(self, t, x, v):
        """The ensemble at time t with new (N, dim) positions and velocities.
        Density values grow by e^{lam*dim*(t - self.t)} and phase volumes
        shrink by the same factor; mass and the scalars carry over.  The new
        arrays get the value checks of __post_init__, in its order and with
        its messages."""
        grow = np.exp(self.lam * self.dim * (t - self.t))
        density_value = self.density_value * grow
        phase_volume = self.phase_volume / grow
        for name, a in (("x", x), ("v", v), ("density_value", density_value),
                        ("phase_volume", phase_volume)):
            if not np.isfinite(a).all():
                raise InvalidInputError(f"{name}: non-finite entries")
        if (density_value < 0).any():
            raise InvalidInputError("mass and density_value must be non-negative")
        if (phase_volume <= 0).any():
            raise InvalidInputError("phase_volume must be strictly positive")
        out = object.__new__(Ensemble)
        out.__dict__.update(self.__dict__, t=t, x=x, v=v, mass=self.mass.copy(),
                            density_value=density_value, phase_volume=phase_volume)
        return out

    def check_mass_identity(self):
        """mass == density_value * phase_volume up to relative 1e-12."""
        prod = self.density_value * self.phase_volume
        scale = np.maximum(np.abs(self.mass), 1e-300)
        return bool(np.all(np.abs(prod - self.mass) <= MASS_IDENTITY_RTOL * scale))
