"""Semi-Lagrangian grid solver for the linear transport problem in a 1D
(two-dimensional phase space) setting.

This is the independent cross-check for the particle solver: each step
traces the exact frozen-field characteristic backward from every cell
center, `phase.exact_step` with a negative time step, interpolates
bilinearly (monotone, max-principle preserving), and multiplies by the
growth factor e^{lam*dt}.  `phase.march` gives each step its time.
lam = 0 (pure transport) is admitted here as a sanity case only.

The feet and their bilinear stencil (four corner indices and weights per
cell) depend only on the nodes, lam, dt and the field values at the x
nodes.  A step reuses the previous step's stencil when all of those are
equal, so a run under a field that does not change with t (every field
the config offers) traces its feet once; the field is still evaluated on
every step.  Applying a stencil sums the four corners in a fixed order
from zero, so a reused stencil gives the same bits as a fresh one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, ResolutionError
from .phase import exact_step, march
from .spatial import neighborhood_sums


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


def bilinear_sample(grid: PhaseGrid, xq, vq):
    """Bilinear interpolation of grid.values at query points, zero outside
    the cell-center lattice."""
    out = _apply_stencil(_bilinear_stencil(grid, xq, vq), grid.values)
    return out.reshape(np.shape(xq))


# (key, stencil) of the last step: node arrays, lam, dt and the field
# values at the x nodes, compared by value, so a field that changes with t
# gets a new stencil and a run under a fixed field builds one.
_last_stencil = None


def semi_lagrangian_step(grid: PhaseGrid, E, dt, boundary_tol=1e-6):
    """One backward-characteristic step under the spatial field E(t, x).

    E is a callable (t, x_array) -> array, evaluated on every step.  Feet
    landing outside the grid contribute zero; if a non-negligible fraction
    of the solution sits on the boundary ring, the resolution is declared
    insufficient.
    """
    global _last_stencil
    if not (dt > 0):
        raise InvalidInputError("dt must be positive")
    Ex = np.asarray(E(grid.t, grid.x_nodes), dtype=float)
    if Ex.shape != grid.x_nodes.shape:
        raise InvalidInputError("field evaluator must return one value per x node")
    lam = grid.lam
    key = (grid.x_nodes.tobytes(), grid.v_nodes.tobytes(), float(lam), float(dt),
           Ex.tobytes())
    if _last_stencil is not None and _last_stencil[0] == key:
        stencil = _last_stencil[1]
    else:
        X, V = np.meshgrid(grid.x_nodes, grid.v_nodes, indexing="ij")
        if lam == 0.0:
            x_back, v_back = X - V * dt, V
        else:
            x_back, v_back = exact_step(X, V, Ex[:, None], lam, -dt)
        stencil = _bilinear_stencil(grid, x_back, v_back)
        _last_stencil = (key, stencil)
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
    """Step the grid to time T on `march`'s clock, collecting snapshots."""
    def step(grid, k, t):
        grid = semi_lagrangian_step(grid, E, dt)
        grid.t = t
        return grid

    return march(grid0, step, T, dt, snapshot_stride)


def oracle_lp_norm(grid: PhaseGrid, p):
    """Midpoint-quadrature L^p norm of the grid density."""
    if p < 1:
        raise InvalidInputError("p must be >= 1")
    return float((np.power(grid.values, p).sum() * grid.cell_area) ** (1.0 / p))


def oracle_moments(grid: PhaseGrid, centers, r):
    """(rho_r, j_r) of the grid density at spatial probe points: neighbourhood
    sums over the x cells in the strict radius-r ball, quadrature in v."""
    centers = np.asarray(centers, dtype=float).reshape(-1)
    rho_x = grid.values.sum(axis=1) * grid.dv  # spatial density per x cell
    j_x = (grid.values * grid.v_nodes[None, :]).sum(axis=1) * grid.dv
    sums = neighborhood_sums(grid.x_nodes, centers, r, np.column_stack([rho_x, j_x]))
    return sums[:, 0] * grid.dx, sums[:, 1] * grid.dx


def quadrature_pushforward(grid: PhaseGrid, phi):
    """Quadrature of f(t) * phi over the phase grid."""
    X, V = np.meshgrid(grid.x_nodes, grid.v_nodes, indexing="ij")
    return float((grid.values * phi(X, V)).sum() * grid.cell_area)
