"""Workload configs for the kinflock benchmark.

Each function maps the workload seed to a scenario config.  The seed is
also passed to `kinflock run --seed`; only agents_cutoff_2d draws its
input at random, the other three inputs are deterministic lattices.

Step counts are chosen so that the last two snapshots are one step apart
(n_steps = k*stride + 1): the checks recompute that last step.
"""

from __future__ import annotations


def _t_final(n_steps, dt):
    return round(n_steps * dt, 12)


def kinetic_dense_1d(seed):
    # Lattice spacing 4/24 = 1/6 divides r = 0.5 but is not a binary
    # fraction, so particles sit exactly r apart and the strict test
    # |x_j - x| < r is decided by rounding, as in kinetic_two_bump.
    dt, n_steps = 0.01, 21
    return {
        "mode": "kinetic", "dim": 1, "lam": 1.0, "radius": 0.5, "delta": 0.001,
        "t_final": _t_final(n_steps, dt), "dt": dt, "snapshot_stride": 10,
        "initial": {
            "kind": "two_bump",
            "x_bounds": [[-2.0, 2.0]], "v_bounds": [[-1.0, 1.0]],
            "amplitude": 1.0, "x_sigma": 0.3, "v_sigma": 0.2,
            "x_centers": [[-0.7], [0.7]], "v_centers": [[0.4], [-0.4]],
            "sampling": {"kind": "tensor_grid", "n_x": 24, "n_v": 72},
        },
    }


def agents_cutoff_2d(seed):
    dt, n_steps = 0.05, 5
    n = 1500
    return {
        "mode": "agents", "model": "cutoff_cs", "dim": 2, "lam": 1.0,
        "radius": 0.3, "t_final": _t_final(n_steps, dt), "dt": dt,
        "n_agents": n, "integrator": "exponential", "snapshot_stride": 4,
        "initial": {
            "kind": "product_gaussian_truncated",
            "x_bounds": [[-1.0, 1.0], [-1.0, 1.0]],
            "v_bounds": [[-1.0, 1.0], [-1.0, 1.0]],
            "x_sigma": 0.5, "v_sigma": 0.5,
            "sampling": {"kind": "monte_carlo", "n": n},
        },
    }


def oracle_grid_io(seed):
    # dt = 0.1 as in oracle_l2: the grid's mass error grows with the step
    # count, and the program's own 1e-3 mass check fails on a 256^2 grid
    # at dt = 0.02.
    dt, n_steps = 0.1, 5
    return {
        "mode": "oracle", "dim": 1, "lam": 1.0, "radius": 0.5,
        "t_final": _t_final(n_steps, dt), "dt": dt, "snapshot_stride": 1,
        "initial": {
            "kind": "product_gaussian_truncated",
            "x_bounds": [[-3.0, 3.0]], "v_bounds": [[-3.0, 3.0]],
            "amplitude": 1.0, "x_sigma": 0.5, "v_sigma": 0.5,
        },
        "oracle": {"n_x": 256, "n_v": 256, "x_min": -3.0, "x_max": 3.0,
                   "v_max": 3.0, "field": {"kind": "zero"}},
        "diagnostics": {"lp_exponents": [1, 2, 4]},
    }


def picard_1d(seed):
    # Many particles, few field nodes, and a coarse cross-check dt, so the
    # Picard iteration (moments at nodes) outweighs the cross-check
    # (moments at particles).
    dt, n_steps = 0.2, 2
    return {
        "mode": "picard", "dim": 1, "lam": 1.0, "radius": 0.6, "delta": 0.1,
        "t_final": _t_final(n_steps, dt), "dt": dt,
        "initial": {
            "kind": "product_gaussian_truncated",
            "x_bounds": [[-1.0, 1.0]], "v_bounds": [[-1.0, 1.0]],
            "amplitude": 1.0, "x_sigma": 0.3, "v_sigma": 0.3,
            "sampling": {"kind": "tensor_grid", "n_x": 40, "n_v": 40},
        },
        "picard": {"tol": 1e-9, "max_iter": 40, "damping": 1.0,
                   "n_time_nodes": 21, "n_space_nodes": 81, "cross_check": True},
    }


WORKLOADS = {
    "kinetic_dense_1d": kinetic_dense_1d,
    "agents_cutoff_2d": agents_cutoff_2d,
    "oracle_grid_io": oracle_grid_io,
    "picard_1d": picard_1d,
}
