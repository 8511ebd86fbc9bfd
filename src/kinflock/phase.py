"""Phase-space data types shared by the agent and kinetic solvers.

An Ensemble stores weighted phase-space particles in struct-of-arrays form:
each particle carries a mass, the pointwise density value transported along
its characteristic, and the phase-space volume element it represents.  The
product density_value * phase_volume equals the (constant) mass: both are
the values the ensemble was built with, times and over the one growth
factor e^{lam*dim*(t - t0)}, computed when they are read.  The horizon
rule (`Ensemble.reaches`) marks where that factor leaves the double range.
Agents are an Ensemble of unit masses that carries no density, and so has
no horizon.  Every solver takes its step count and times from `march`, and
every characteristic step (particle or grid) is `exact_step`.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError


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


def exact_step(x, v, E, lam, dt):
    """(x, v) after time dt along dX/dt = V, dV/dt = lam*(E - V) with the
    field E frozen: v relaxes to E by e^{-lam*dt}.  A negative dt traces the
    characteristic backward; the arrays, lam among them, broadcast against
    each other."""
    decay = np.exp(-lam * dt)
    dv = v - E
    return x + E * dt + dv * (1.0 - decay) / lam, E + dv * decay


def march(state, step, T, dt, stride):
    """(snapshots, steps): `state` and the state after every `stride`-th
    step and after the last of the round(T/dt) steps.  `step(state, k, t)`
    returns a new state for step k at time t = state.t + k*dt.  t comes
    from k, not from a running sum, whose rounding would break the 1e-12
    growth laws within 1e4 steps.  Snapshots are the states themselves."""
    if not (T > 0 and dt > 0):
        raise InvalidInputError("T and dt must be positive")
    n_steps = max(1, int(round(T / dt)))
    snapshots, steps = [state], [0]
    t0 = state.t
    for k in range(1, n_steps + 1):
        state = step(state, k, t0 + k * dt)
        if k % stride == 0 or k == n_steps:
            snapshots.append(state)
            steps.append(k)
    return snapshots, steps


class Ensemble:
    """Weighted-particle discretization of a phase-space density.

    Arrays: x (N, dim), v (N, dim), mass (N,), density_value (N,),
    phase_volume (N,).  Mass is constant along trajectories.  The ensemble
    keeps the density values and phase volumes it was built with
    (density0, volume0) and the time t0 it was built at; at time t they
    read density0 * e^g and volume0 / e^g with g = lam*dim*(t - t0), the
    exact growth along every characteristic.  mass, density0 and volume0
    are read-only and shared by every ensemble `stepped` returns.  An
    ensemble built without density values and phase volumes, the agents'
    unit masses, keeps None for both and has no horizon.
    """

    def __init__(self, t, dim, lam, radius, x, v, mass, density_value=None, phase_volume=None,
                 initial_support_bound=0.0):
        if not (lam > 0):
            raise InvalidInputError("lam must be positive")
        if not (radius > 0):
            raise InvalidInputError("radius must be positive")
        self.t, self.t0, self.dim, self.lam, self.radius = t, t, dim, lam, radius
        self.initial_support_bound = initial_support_bound
        self.x = _as_points(x, dim, "x")
        self.v = _as_points(v, dim, "v")
        self.density0 = self.volume0 = None
        given = [("mass", mass)]
        if density_value is not None or phase_volume is not None:
            given += [("density_value", density_value), ("phase_volume", phase_volume)]
        for (name, a), attr in zip(given, ("mass", "density0", "volume0")):
            # a view, so that making it read-only leaves the caller's array as it is
            a = np.asarray(a, dtype=float).reshape(-1).view()
            if len(a) != len(self.x):
                raise InvalidInputError(f"{name}: length mismatch")
            if not np.all(np.isfinite(a)):
                raise InvalidInputError(f"{name}: non-finite entries")
            a.flags.writeable = False
            setattr(self, attr, a)
        if np.any(self.mass < 0):
            raise InvalidInputError("mass must be non-negative")
        if self.density0 is not None:
            if np.any(self.density0 < 0):
                raise InvalidInputError("density_value must be non-negative")
            if np.any(self.volume0 <= 0):
                raise InvalidInputError("phase_volume must be strictly positive")
            # the extremes the horizon rule tests; an empty ensemble only
            # needs e^g itself to be finite
            self._density_max = float(self.density0.max(initial=0.0))
            self._volume_min = float(self.volume0.min(initial=np.inf))

    @property
    def n(self):
        return len(self.x)

    @property
    def total_mass(self):
        return float(self.mass.sum())

    @property
    def max_speed(self):
        """Current velocity support radius M(t), 0 without particles."""
        return float(np.sqrt((self.v ** 2).sum(axis=1)).max(initial=0.0))

    def growth(self, t):
        """e^{lam*dim*(t - t0)}: the factor by which density values have
        grown, and phase volumes shrunk, at time t."""
        return np.exp(self.lam * self.dim * (t - self.t0))

    @property
    def density_value(self):
        return self.density0 * self.growth(self.t)

    @property
    def phase_volume(self):
        return self.volume0 / self.growth(self.t)

    def reaches(self, t):
        """The horizon rule: whether at time t every density value is still
        a finite double and every phase volume still positive.  Past that
        point a density value overflows to inf or a phase volume rounds to
        0.  The growth only increases with t, so the rule at a run's last
        time holds at every earlier step.  Without density it always holds."""
        if self.density0 is None:
            return True
        with np.errstate(over="ignore", invalid="ignore"):
            grow = self.growth(t)
            return bool(self._density_max * grow < np.inf and self._volume_min / grow > 0)

    def stepped(self, t, x, v):
        """The ensemble at time t with new (N, dim) positions and velocities;
        everything else is shared, so the result depends on t, not on the
        steps before it.  x and v get the value checks of __init__ with its
        messages, and t the horizon rule."""
        for name, a in (("x", x), ("v", v)):
            if not np.isfinite(a).all():
                raise InvalidInputError(f"{name}: non-finite entries")
        if not self.reaches(t):
            raise InvalidInputError(
                f"t={t!r} is past the horizon: e^(lam*dim*(t - t0)) takes a "
                "density value past the largest double or a phase volume to 0")
        out = object.__new__(Ensemble)
        out.__dict__.update(self.__dict__, t=t, x=x, v=v)
        return out

