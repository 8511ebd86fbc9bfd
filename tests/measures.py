"""Readings of particles, agents and grids that only the tests take: the
reference neighbour scan, the mass identity of an ensemble, the growth and
volume law deviations of a trajectory, pushforward sums and quadratures,
grid moments and the moment distance of agents and a kinetic ensemble."""

import numpy as np

from kinflock.diagnostics import law_deviation
from kinflock.kinetic import moments_at_points
from kinflock.spatial import neighborhood_sums

MASS_IDENTITY_RTOL = 1e-12


def brute_force_radius(positions, center, r):
    """Reference O(N) scan: the indices j with sum((x_j - c)**2) < r*r."""
    positions = np.asarray(positions, dtype=float)
    if positions.ndim == 1:
        positions = positions.reshape(-1, 1)
    if len(positions) == 0:
        return np.empty(0, dtype=np.int64)
    center = np.asarray(center, dtype=float).reshape(-1)
    d2 = ((positions - center) ** 2).sum(axis=1)
    return np.nonzero(d2 < r * r)[0].astype(np.int64)


def check_mass_identity(ens):
    """mass == density_value * phase_volume up to relative 1e-12."""
    prod = ens.density_value * ens.phase_volume
    scale = np.maximum(np.abs(ens.mass), 1e-300)
    return bool(np.all(np.abs(prod - ens.mass) <= MASS_IDENTITY_RTOL * scale))


def law_deviations(trajectory):
    """The per-snapshot `law_deviation`s of the growth and the volume law
    against the first snapshot, as `kinflock run` records them."""
    first = trajectory[0]
    growth, volume = [], []
    for snap in trajectory:
        g = snap.lam * snap.dim * (snap.t - first.t)
        growth.append(law_deviation(snap.density_value, first.density_value * np.exp(g)))
        volume.append(law_deviation(snap.phase_volume, first.phase_volume * np.exp(-g)))
    return growth, volume


def pushforward_sum(ens, phi):
    """sum_i w_i phi(x_i, v_i); the particle-side reading of the
    measure-preservation identity."""
    if ens.n == 0:
        return 0.0
    return float((ens.mass * phi(ens.x, ens.v)).sum())


def quadrature_pushforward(grid, phi):
    """Quadrature of f(t) * phi over the phase grid."""
    X, V = np.meshgrid(grid.x_nodes, grid.v_nodes, indexing="ij")
    return float((grid.values * phi(X, V)).sum() * grid.cell_area)


def oracle_moments(grid, centers, r):
    """(rho_r, j_r) of the grid density at spatial probe points: neighbourhood
    sums over the x cells in the strict radius-r ball, quadrature in v."""
    centers = np.asarray(centers, dtype=float).reshape(-1)
    rho_x = grid.values.sum(axis=1) * grid.dv  # spatial density per x cell
    j_x = (grid.values * grid.v_nodes[None, :]).sum(axis=1) * grid.dv
    sums = neighborhood_sums(grid.x_nodes, centers, r, np.column_stack([rho_x, j_x]))
    return sums[:, 0] * grid.dx, sums[:, 1] * grid.dx


def meanfield_distance(agents, kinetic, probe_points, r):
    """L1-over-probe-grid distance between mass-normalized (rho_r, j_r)
    moment fields of the empirical agent measure and the kinetic ensemble."""
    probe_points = np.atleast_2d(np.asarray(probe_points, dtype=float))
    rho_a, j_a = moments_at_points(agents.positions, agents.velocities,
                                   np.full(agents.n, 1.0 / max(agents.n, 1)), probe_points, r)
    rho_k, j_k = moments_at_points(kinetic.x, kinetic.v, kinetic.mass, probe_points, r)
    mk = kinetic.total_mass
    if mk > 0:
        rho_k = rho_k / mk
        j_k = j_k / mk
    diff = np.abs(rho_a - rho_k) + np.abs(j_a - j_k).sum(axis=1)
    return float(diff.mean())
