"""Fixed-point construction for the regularized nonlinear field.

The candidate velocity fields live on a uniform space-time grid with
multilinear interpolation and nearest-value clamping outside the box; both
operations are sup-norm non-expansive, so grid fields bounded by M0 stay
bounded by M0.  The map applies the linear characteristic solver driven by
the input field and reads off the regularized moment quotient j/(delta+rho)
at every node.  A (optionally damped) Picard iteration searches for a fixed
point; convergence is reported, never assumed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, InvariantViolationError
from .kinetic import _flow, mean_field
from .phase import Ensemble

BOUND_SLACK = 1e-12


@dataclass
class FieldGrid:
    """Space-time sampled velocity field with multilinear interpolation.

    values has shape (K+1, n_1, ..., n_d, d): time-major nodes, vector
    components last.  Queries outside the box are clamped to the nearest
    node, preserving both the sup bound and the Lipschitz property.
    """

    times: np.ndarray
    axes: tuple
    values: np.ndarray
    bound: float

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.axes = tuple(np.asarray(a, dtype=float) for a in self.axes)
        self.values = np.asarray(self.values, dtype=float)
        d = len(self.axes)
        expected = (len(self.times),) + tuple(len(a) for a in self.axes) + (d,)
        if self.values.shape != expected:
            raise InvalidInputError(
                f"values shape {self.values.shape} != expected {expected}")

    @property
    def dim(self):
        return len(self.axes)

    @property
    def node_points(self):
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([g.ravel() for g in mesh], axis=1)

    def sup_norm(self):
        """Maximum Euclidean field magnitude over all nodes."""
        if self.values.size == 0:
            return 0.0
        return float(np.sqrt((self.values ** 2).sum(axis=-1)).max())

    def evaluate(self, t, X):
        """Interpolated field at time t and points X (N, d): the 2^(d+1)
        corners of each clamped query's node cell, weighted by prod(1-y or y);
        an axis with a single node contributes it with weight 1.  t is one
        time for every row, whose cell and weights are found once, or an
        (N,) array of times, one per row; each row is computed on its own,
        so both give the same bits."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise InvalidInputError(f"points have shape {X.shape}, expected (N, {self.dim})")
        t = np.asarray(t, dtype=float)
        if t.shape not in ((), (len(X),)):
            raise InvalidInputError(f"times have shape {t.shape}, expected () or ({len(X)},)")
        corners = []
        for nodes, q in zip((self.times,) + self.axes, (t, *X.T)):
            if len(nodes) == 1:
                corners.append([(0, 1.0)])
                continue
            q = np.minimum(np.maximum(q, nodes[0]), nodes[-1])
            i = np.minimum(np.maximum(nodes.searchsorted(q, "right") - 1, 0), len(nodes) - 2)
            y = (q - nodes[i]) / (nodes[i + 1] - nodes[i])
            corners.append([(i, 1.0 - y), (i + 1, y)])
        out = np.zeros((len(X), self.dim))
        for corner in itertools.product(*corners):
            weight = np.ones(len(X))
            for _, w in corner:
                weight = weight * w
            out = out + self.values[tuple(i for i, _ in corner)] * weight[:, None]
        return out

    def copy_with_values(self, values):
        return FieldGrid(self.times.copy(), self.axes, np.asarray(values, float), self.bound)

    @staticmethod
    def zero(times, axes, bound):
        d = len(axes)
        shape = (len(times),) + tuple(len(a) for a in axes) + (d,)
        return FieldGrid(np.asarray(times, float), tuple(axes), np.zeros(shape), bound)


def default_field_box(f0: Ensemble, T):
    """Spatial box covering the initial support inflated by M0*T per side,
    so characteristics never leave the interpolation region."""
    m0 = f0.initial_support_bound
    if f0.n:
        lo = f0.x.min(axis=0) - m0 * T
        hi = f0.x.max(axis=0) + m0 * T
    else:
        lo = np.full(f0.dim, -1.0)
        hi = np.full(f0.dim, 1.0)
    return lo, hi


def apply_F(E: FieldGrid, f0: Ensemble, r, delta, kept=None):
    """One application of the fixed-point map: solve the linear transport
    problem driven by E, then evaluate j/(delta + rho) at every node.  Each
    step runs from one time node to the next under the earlier node's field.

    Level k of F[E] depends only on E's levels before k: `evaluate` at a
    node time weights the next level by exactly 0.  A damping-1 Picard
    iteration passes `kept = [s, ens]`, where E = F[E'] agrees with E' on
    levels 0..s-2 and ens is the ensemble at level s-1 under E': levels
    0..s-1 of F[E] are then E's own, and stepping restarts from ens.  The
    call leaves `kept` at [s + 1, its ensemble at level s].

    The output inherits E's grid and satisfies the same sup bound.
    """
    if not (delta > 0):
        raise InvalidInputError("delta must be positive")
    if E.sup_norm() > E.bound + BOUND_SLACK:
        raise InvalidInputError(
            f"input field violates its sup bound: {E.sup_norm():.17g} > {E.bound:.17g}")
    s, ens = kept or (0, f0)
    nodes = E.node_points
    out = E.values.copy()  # levels from s on are overwritten below
    for k in range(s, len(E.times)):
        if k:
            t_k, t_next = E.times[k - 1], E.times[k]
            ens = f0.stepped(t_next, *_flow(ens, E.evaluate(t_k, ens.x), t_next - t_k))
        if kept and k == s:
            kept[:] = [s + 1, ens]
        out[k] = mean_field(ens.x, ens.v, ens.mass, nodes, r, delta).reshape(out[k].shape)
    result = E.copy_with_values(out)
    if result.sup_norm() > E.bound + BOUND_SLACK:
        raise InvariantViolationError(
            f"map output exceeds the sup bound: {result.sup_norm():.17g}")
    return result


@dataclass
class PicardResult:
    field: FieldGrid
    residuals: list = field(default_factory=list)
    converged: bool = False
    iterations: int = 0


def picard_solve(f0: Ensemble, r, delta, T, n_time_nodes, n_space_nodes,
                 tol, max_iter, damping=1.0):
    """Iterate E <- (1-theta) E + theta F[E] from the zero field until the
    discrete sup-norm update falls below tol.

    `apply_F` checks every iterate, and the map's output, against the sup
    bound M0 (which holds by construction).  Non-convergence is reported
    via the result, not raised.
    """
    if not (tol > 0 and max_iter >= 1):
        raise InvalidInputError("tol must be > 0 and max_iter >= 1")
    if not (0 < damping <= 1):
        raise InvalidInputError("damping must be in (0, 1]")
    m0 = f0.initial_support_bound
    lo, hi = default_field_box(f0, T)
    times = np.linspace(0.0, T, n_time_nodes)
    axes = tuple(np.linspace(lo[k], hi[k], n_space_nodes) for k in range(f0.dim))
    E = FieldGrid.zero(times, axes, m0)
    result = PicardResult(E)
    kept = [0, f0] if damping == 1 else None  # damping 1 skips settled levels
    for it in range(1, max_iter + 1):
        F = apply_F(E, f0, r, delta, kept)
        residual = float(np.sqrt(((F.values - E.values) ** 2).sum(axis=-1)).max())
        new_vals = (1.0 - damping) * E.values + damping * F.values
        E = E.copy_with_values(new_vals)
        result.residuals.append(residual)
        result.iterations = it
        result.field = E
        if residual < tol:
            result.converged = True
            break
    return result


def lipschitz_modulus(grid: FieldGrid, sample_pairs, rng):
    """Empirical spatial and temporal Lipschitz moduli of the interpolated
    field, from random finite differences inside the box.

    Pair i draws, in this order, a time t, points x1 and x2, a point x and
    two times; one (sample_pairs, 3 + 3d) draw scaled as lo + (hi - lo)*u
    is the same stream as these draws made with `rng.uniform` one pair at a
    time, and all 4*sample_pairs field values come from one `evaluate`.
    Each ratio is the one `np.linalg.norm` of a single pair gives: a
    matmul of (n, 1, d) by (n, d, 1) takes every row's dot product through
    the dot kernel that `np.linalg.norm` uses, with its rounding.
    """
    d = grid.dim
    lo = np.array([a[0] for a in grid.axes])
    hi = np.array([a[-1] for a in grid.axes])
    t0, t1 = grid.times[0], grid.times[-1]
    u = rng.random((sample_pairs, 3 + 3 * d))
    t = t0 + (t1 - t0) * u[:, 0]
    x1, x2, x = (lo + (hi - lo) * u[:, 1 + k * d:1 + (k + 1) * d] for k in range(3))
    ta, tb = np.sort(t0 + (t1 - t0) * u[:, 1 + 3 * d:], axis=1).T
    values = grid.evaluate(np.concatenate([t, t, tb, ta]), np.concatenate([x2, x1, x, x]))
    e2, e1, eb, ea = np.split(values, 4)

    def norms(a):
        return np.sqrt(np.matmul(a[:, None, :], a[:, :, None])[:, 0, 0])

    dx, dt = norms(x2 - x1), tb - ta
    sx, st = dx > 1e-12, dt > 1e-12
    spatial = (norms(e2 - e1)[sx] / dx[sx]).max(initial=0.0)
    temporal = (norms(eb - ea)[st] / dt[st]).max(initial=0.0)
    return float(spatial), float(temporal)
