"""Discrete agent models: heading alignment (Vicsek) and velocity
alignment with the strict cut-off interaction |x_j - x_i| < r.

All right-hand sides are pure functions of the state and run on
correctly rounded neighbourhood sums.  The `cs` model normalizes by the
number of agents N, the locally normalized `mt` and `cutoff_cs` models by
the neighbor count N_i, which always includes i itself, so it never
divides by zero.  The `exponential` integrator is `phase.exact_step` with
the local mean velocity as the field.
"""

from __future__ import annotations

import numpy as np

from .errors import IntegrationBlowupError, InvalidInputError
from .phase import AgentState, HeadingState, exact_step, wrap_angle
from .spatial import neighborhood_sums


def vicsek_step(state: HeadingState, r, noise_amplitude, rng):
    """One discrete update: advance positions with the current headings,
    then align each heading to the summed direction vector of the radius-r
    neighborhood (self included), plus uniform angular noise.

    A degenerate zero mean vector leaves the heading unchanged.
    """
    if noise_amplitude < 0:
        raise InvalidInputError("noise_amplitude must be >= 0")
    if not (r > 0):
        raise InvalidInputError("r must be positive")
    n = state.n
    new_pos = state.positions + state.speed * np.column_stack(
        [np.cos(state.headings), np.sin(state.headings)]
    )
    new_head = state.headings.copy()
    if n:
        count, sc, ss = neighborhood_sums(
            state.positions, state.positions, r,
            np.column_stack([np.ones(n), np.cos(state.headings), np.sin(state.headings)])).T
        # a numerically undefined mean direction keeps the heading
        defined = sc * sc + ss * ss > (count * 1e-14) ** 2
        new_head[defined] = np.arctan2(ss[defined], sc[defined])
        if noise_amplitude > 0:
            new_head += rng.uniform(-noise_amplitude / 2, noise_amplitude / 2, size=n)
    return HeadingState(state.t + 1, new_pos, wrap_angle(new_head), state.speed)


def cutoff_cs_rhs(state: AgentState, lam, r, local=True):
    """Accelerations a_i = (lam/N_i) sum_{|x_j-x_i|<r} (v_j - v_i), where
    N_i counts the strict-radius neighborhood including i itself: the mean
    of v over the ball minus v_i, the `mt` model with the strict cut-off.
    local=False normalizes by the number of agents N instead, the `cs`
    model with the strict cut-off: (lam/N) (S_i - N_i v_i) for the ball's
    velocity sum S_i."""
    if not (r > 0):
        raise InvalidInputError("r must be positive")
    v = state.velocities
    sums = neighborhood_sums(state.positions, state.positions, r,
                             np.column_stack([np.ones(state.n), v]))
    if local:
        return lam * (sums[:, 1:] / sums[:, :1] - v)
    return lam / max(state.n, 1) * (sums[:, 1:] - sums[:, :1] * v)


def integrate_agents(state: AgentState, rhs, dt, scheme="rk4", lam=None):
    """Advance one step with the given acceleration function.

    Schemes: "explicit_euler", "rk4", and "exponential".  The exponential
    scheme rewrites a_i = lam*(ubar_i - v_i) and applies `exact_step` with
    the field ubar, so per-agent speeds stay inside the convex hull of
    {v_j}; it is exact whenever the local mean ubar is constant in time.
    The new state is at time state.t + dt; runs take times from `march`.
    """
    if not (dt > 0):
        raise InvalidInputError("dt must be positive")
    x, v = state.positions, state.velocities
    if scheme == "explicit_euler":
        a = rhs(state)
        new_x = x + dt * v
        new_v = v + dt * a
    elif scheme == "rk4":
        def deriv(xs, vs):
            s = AgentState(state.t, state.dim, xs, vs)
            return vs, rhs(s)
        k1x, k1v = deriv(x, v)
        k2x, k2v = deriv(x + 0.5 * dt * k1x, v + 0.5 * dt * k1v)
        k3x, k3v = deriv(x + 0.5 * dt * k2x, v + 0.5 * dt * k2v)
        k4x, k4v = deriv(x + dt * k3x, v + dt * k3v)
        new_x = x + (dt / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        new_v = v + (dt / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
    elif scheme == "exponential":
        if lam is None or not (lam > 0):
            raise InvalidInputError("exponential scheme needs lam > 0")
        new_x, new_v = exact_step(x, v, v + rhs(state) / lam, lam, dt)
    else:
        raise InvalidInputError(f"unknown scheme {scheme!r}")
    if not (np.all(np.isfinite(new_x)) and np.all(np.isfinite(new_v))):
        raise IntegrationBlowupError(f"non-finite state after step at t={state.t}")
    return AgentState(state.t + dt, state.dim, new_x, new_v)
