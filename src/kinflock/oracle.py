"""Semi-Lagrangian grid solver for the linear transport problem in a 1D
(two-dimensional phase space) setting.

This is the independent cross-check for the particle solver: each step
interpolates bilinearly (monotone, max-principle preserving) at the feet
of the exact frozen-field characteristics traced backward from every cell
center, `phase.exact_step` with a negative time step, and multiplies by
the growth factor e^{lam*dt}.  `phase.march` gives each step its time.
lam = 0 (pure transport) is admitted here as a sanity case only.

The field is E(x): it does not change with t.  So the feet and their
bilinear stencil (four corner indices and weights per cell) are the same
on every step, and `run_oracle` builds them once, before its first step.
Applying a stencil sums the four corners in a fixed order from zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import lp_norm
from .errors import InvalidInputError, ResolutionError
from .phase import exact_step, march


@dataclass
class PhaseGrid:
    """Cell-centered uniform grid over [x_min, x_max] x [-v_max, v_max]."""

    x_nodes: np.ndarray  # (n_x,) cell centers
    v_nodes: np.ndarray  # (n_v,) cell centers
    values: np.ndarray  # (n_x, n_v), non-negative
    t: float
    lam: float

    def __post_init__(self):
        self.x_nodes = np.asarray(self.x_nodes, dtype=float)
        self.v_nodes = np.asarray(self.v_nodes, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (len(self.x_nodes), len(self.v_nodes)):
            raise InvalidInputError("values shape must be (n_x, n_v)")
        if np.any(self.values < 0):
            raise InvalidInputError("grid values must be non-negative")
        if self.lam < 0:
            raise InvalidInputError("lam must be >= 0")

    @property
    def dx(self):
        return float(self.x_nodes[1] - self.x_nodes[0])

    @property
    def dv(self):
        return float(self.v_nodes[1] - self.v_nodes[0])

    @property
    def cell_area(self):
        return self.dx * self.dv

    def total_mass(self):
        return float(self.values.sum() * self.cell_area)

    @staticmethod
    def from_function(f0, x_min, x_max, n_x, v_max, n_v, lam):
        """Build a grid sampling f0(x, v) at cell centers."""
        xe = np.linspace(x_min, x_max, n_x + 1)
        ve = np.linspace(-v_max, v_max, n_v + 1)
        xc = 0.5 * (xe[:-1] + xe[1:])
        vc = 0.5 * (ve[:-1] + ve[1:])
        X, V = np.meshgrid(xc, vc, indexing="ij")
        vals = np.asarray(f0(X, V), dtype=float)
        return PhaseGrid(xc, vc, vals, 0.0, lam)


def _bilinear_stencil(grid: PhaseGrid, xq, vq):
    """The four bilinear corners of each query point, in the order
    (i, j), (i+1, j), (i, j+1), (i+1, j+1): flat indices into the cell
    values with one zero cell appended (index n_x*n_v), and weights, each
    of shape (4, n) for n query points.  A corner off the cell-center
    lattice indexes the zero cell with weight 0, so it adds +0.0 whatever
    the other cells hold."""
    x0, v0 = grid.x_nodes[0], grid.v_nodes[0]
    dx, dv = grid.dx, grid.dv
    n_x, n_v = grid.values.shape
    gx = (np.ravel(xq) - x0) / dx
    gv = (np.ravel(vq) - v0) / dv
    i = np.floor(gx).astype(np.int64)
    j = np.floor(gv).astype(np.int64)
    fx = gx - i
    fv = gv - j
    corners = [(i, j, (1 - fx) * (1 - fv)), (i + 1, j, fx * (1 - fv)),
               (i, j + 1, (1 - fx) * fv), (i + 1, j + 1, fx * fv)]
    index = np.empty((4, gx.size), dtype=np.intp)
    weight = np.empty((4, gx.size))
    for k, (ii, jj, w) in enumerate(corners):
        ok = (ii >= 0) & (ii < n_x) & (jj >= 0) & (jj < n_v)
        index[k] = np.where(ok, ii * n_v + jj, n_x * n_v)
        weight[k] = np.where(ok, w, 0.0)
    return index, weight


def _apply_stencil(stencil, values):
    """Sum the weighted corner values of each query point, corner by
    corner from zero."""
    index, weight = stencil
    cells = np.append(values.ravel(), 0.0)
    out = np.zeros(index.shape[1])
    for k in range(4):
        out += weight[k] * cells[index[k]]
    return out


def backward_stencil(grid: PhaseGrid, E, dt):
    """The `_bilinear_stencil` of the feet of the backward characteristics
    of length dt from every cell center under the spatial field E, a
    callable x_array -> array evaluated once at the x nodes.  The feet
    depend only on the nodes, lam, dt and E, so one stencil serves every
    step of a run."""
    if not (dt > 0):
        raise InvalidInputError("dt must be positive")
    Ex = np.asarray(E(grid.x_nodes), dtype=float)
    if Ex.shape != grid.x_nodes.shape:
        raise InvalidInputError("field evaluator must return one value per x node")
    X, V = np.meshgrid(grid.x_nodes, grid.v_nodes, indexing="ij")
    if grid.lam == 0.0:
        x_back, v_back = X - V * dt, V
    else:
        x_back, v_back = exact_step(X, V, Ex[:, None], grid.lam, -dt)
    return _bilinear_stencil(grid, x_back, v_back)


def semi_lagrangian_step(grid: PhaseGrid, stencil, dt, boundary_tol=1e-6):
    """One backward-characteristic step of length dt on the
    `backward_stencil` of the grid's nodes, lam and dt.

    Feet landing outside the grid contribute zero; if a non-negligible
    fraction of the solution sits on the boundary ring, the resolution is
    declared insufficient.
    """
    lam = grid.lam
    factor = 1.0 if lam == 0.0 else np.exp(lam * dt)  # e^{lam*d*dt} with d = 1
    new_vals = factor * _apply_stencil(stencil, grid.values).reshape(grid.values.shape)
    new_grid = PhaseGrid(grid.x_nodes, grid.v_nodes, new_vals, grid.t + dt, lam)
    peak = new_vals.max() if new_vals.size else 0.0
    if peak > 0:
        ring = max(new_vals[0].max(), new_vals[-1].max(),
                   new_vals[:, 0].max(), new_vals[:, -1].max())
        if ring > boundary_tol * peak:
            raise ResolutionError(
                f"support reached the grid boundary (ring/peak = {ring / peak:.3e})")
    return new_grid


def run_oracle(grid0: PhaseGrid, E, T, dt, snapshot_stride=1):
    """Step the grid to time T on `march`'s clock under the field E(x),
    collecting snapshots; the feet and their stencil are traced once."""
    stencil = backward_stencil(grid0, E, dt)

    def step(grid, k, t):
        grid = semi_lagrangian_step(grid, stencil, dt)
        grid.t = t
        return grid

    return march(grid0, step, T, dt, snapshot_stride)


def oracle_lp_norm(grid: PhaseGrid, p):
    """Midpoint-quadrature L^p norm of the grid density, finite where the
    values to the power p overflow (`diagnostics.lp_norm`)."""
    if p < 1:
        raise InvalidInputError("p must be >= 1")
    return lp_norm(grid.values, p, lambda fp: fp.sum() * grid.cell_area)
