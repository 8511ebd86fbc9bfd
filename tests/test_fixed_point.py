import itertools

import numpy as np
import pytest

from kinflock import kinetic
from kinflock.errors import InvalidInputError
from kinflock.fixed_point import (FieldGrid, apply_F, default_field_box,
                                  lipschitz_modulus, picard_solve)
from kinflock.phase import Ensemble


def symmetric_pair(lam=1.0, r=3.0):
    return Ensemble(
        t=0.0, dim=1, lam=lam, radius=r,
        x=[[0.0], [0.0]], v=[[1.0], [-1.0]],
        mass=[0.5, 0.5], density_value=[1.0, 1.0], phase_volume=[0.5, 0.5],
        initial_support_bound=1.0)


def small_cloud(n=40, seed=0, m0=1.0):
    rng = np.random.default_rng(seed)
    v = rng.uniform(-m0, m0, (n, 1)) * 0.9
    return Ensemble(0.0, 1, 1.0, 0.5, rng.uniform(-0.5, 0.5, (n, 1)), v,
                    np.full(n, 1.0 / n), np.ones(n), np.full(n, 1.0 / n),
                    initial_support_bound=m0)


class TestFieldGrid:
    def test_shape_validation(self):
        with pytest.raises(InvalidInputError):
            FieldGrid(np.array([0.0, 1.0]), (np.array([0.0, 1.0]),),
                      np.zeros((2, 3, 1)), bound=1.0)

    def test_zero_field(self):
        E = FieldGrid.zero(np.linspace(0, 1, 5), (np.linspace(-1, 1, 7),), 1.0)
        assert E.sup_norm() == 0.0
        assert np.allclose(E.evaluate(0.3, [[0.2]]), 0.0)

    def test_exact_at_nodes_and_linear_between(self):
        times = np.array([0.0, 1.0])
        xs = np.linspace(-1, 1, 9)
        vals = np.zeros((2, 9, 1))
        vals[0, :, 0] = xs
        vals[1, :, 0] = 2 * xs
        E = FieldGrid(times, (xs,), vals, bound=2.0)
        # the nodal data is itself linear, so interpolation is exact
        for t, x in [(0.0, 0.37), (1.0, -0.61), (0.5, 0.2)]:
            want = (1 + t) * x
            assert E.evaluate(t, [[x]])[0, 0] == pytest.approx(want, abs=1e-14)

    def test_clamping_outside_box(self):
        times = np.array([0.0, 1.0])
        xs = np.linspace(-1, 1, 5)
        vals = np.tile(xs[None, :, None], (2, 1, 1))
        E = FieldGrid(times, (xs,), vals, bound=1.0)
        assert E.evaluate(0.5, [[10.0]])[0, 0] == pytest.approx(1.0)
        assert E.evaluate(0.5, [[-10.0]])[0, 0] == pytest.approx(-1.0)
        assert E.evaluate(-5.0, [[0.5]])[0, 0] == pytest.approx(0.5)

    def test_sup_norm_euclidean_2d(self):
        times = np.array([0.0])
        axes = (np.array([0.0]), np.array([0.0]))
        vals = np.array([3.0, 4.0]).reshape(1, 1, 1, 2)
        E = FieldGrid(times, axes, vals, bound=10.0)
        assert E.sup_norm() == pytest.approx(5.0)
        assert np.allclose(E.evaluate(0.0, [[9.0, 9.0]]), [3.0, 4.0])

    def test_interpolation_is_sup_nonexpansive(self):
        rng = np.random.default_rng(1)
        times = np.linspace(0, 1, 4)
        xs = np.linspace(-1, 1, 6)
        vals = rng.uniform(-1, 1, (4, 6, 1))
        E = FieldGrid(times, (xs,), vals, bound=1.0)
        q = rng.uniform(-2, 2, (500, 1))
        t = rng.uniform(-0.5, 1.5, 500)
        out = np.concatenate([E.evaluate(tk, qk[None]) for tk, qk in zip(t, q)])
        assert np.abs(out).max() <= E.sup_norm() + 1e-14


def _random_grid(rng, dim, n_nodes):
    """A random field on a grid whose axes have the given node counts (the
    first is time); an axis of one node is a single point."""
    times = np.sort(rng.uniform(-1.0, 1.0, n_nodes[0]))
    axes = tuple(np.sort(rng.uniform(-2.0, 2.0, n)) for n in n_nodes[1:])
    vals = rng.uniform(-1.0, 1.0, tuple(n_nodes) + (dim,))
    return FieldGrid(times, axes, vals, bound=2.0)


GRID_SHAPES = [(4, 7), (1, 5), (3, 1), (5, 4, 6), (2, 1, 3), (1, 1, 1),
               (3, 4, 2, 5), (2, 1, 3, 1)]


@pytest.mark.parametrize("n_nodes", GRID_SHAPES)
def test_evaluate_with_a_time_per_row_equals_scalar_calls(n_nodes):
    rng = np.random.default_rng(len(n_nodes) * 10 + sum(n_nodes))
    dim = len(n_nodes) - 1
    E = _random_grid(rng, dim, n_nodes)
    t = rng.uniform(-1.5, 1.5, 60)  # times and points reach outside the box
    X = rng.uniform(-3.0, 3.0, (60, dim))
    t[:3] = E.times[0], E.times[-1], E.times[0]  # and some rows exactly on nodes
    X[:3] = [a[0] for a in E.axes]
    rows = np.concatenate([E.evaluate(tk, xk[None]) for tk, xk in zip(t, X)])
    assert E.evaluate(t, X).tobytes() == rows.tobytes()
    assert E.evaluate(t[0], X).tobytes() == E.evaluate(np.full(60, t[0]), X).tobytes()


def _evaluate_broadcast(grid, t, X):
    """The former FieldGrid.evaluate: a scalar t broadcast to one time per
    row, every axis clamped with np.clip."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    t = np.broadcast_to(np.asarray(t, dtype=float), (len(X),))
    coords = [t] + [X[:, k] for k in range(grid.dim)]
    corners = []
    for nodes, q in zip((grid.times,) + grid.axes, coords):
        q = np.clip(q, nodes[0], nodes[-1])
        if len(nodes) == 1:
            corners.append([(np.zeros(len(q), dtype=np.intp), 1.0)])
            continue
        i = np.clip(np.searchsorted(nodes, q, side="right") - 1, 0, len(nodes) - 2)
        y = (q - nodes[i]) / (nodes[i + 1] - nodes[i])
        corners.append([(i, 1.0 - y), (i + 1, y)])
    out = np.zeros((len(X), grid.dim))
    for corner in itertools.product(*corners):
        weight = np.ones(len(X))
        for _, w in corner:
            weight = weight * w
        out = out + grid.values[tuple(i for i, _ in corner)] * weight[:, None]
    return out


@pytest.mark.parametrize("n_nodes", GRID_SHAPES)
def test_evaluate_equals_the_broadcast_evaluate(n_nodes):
    # scalar times at a node, between nodes, before t0 and after T, and
    # per-row times, at points inside and outside the box: same bits
    rng = np.random.default_rng(100 + len(n_nodes) * 10 + sum(n_nodes))
    dim = len(n_nodes) - 1
    E = _random_grid(rng, dim, n_nodes)
    X = rng.uniform(-3.0, 3.0, (80, dim))
    X[:4] = [a[0] for a in E.axes]
    X[4:8] = [a[-1] for a in E.axes]
    t0, t1 = E.times[0], E.times[-1]
    scalars = [t0, t1, E.times[len(E.times) // 2], 0.5 * (t0 + t1), t0 - 0.7, t1 + 0.7,
               np.nextafter(t0, -np.inf), np.nextafter(t1, np.inf)]
    if len(E.times) > 1:
        scalars.append(0.25 * E.times[0] + 0.75 * E.times[1])
    for t in scalars:
        assert E.evaluate(t, X).tobytes() == _evaluate_broadcast(E, t, X).tobytes(), t
    per_row = rng.uniform(t0 - 1.0, t1 + 1.0, len(X))
    per_row[:len(E.times)] = E.times[:len(X)]
    assert E.evaluate(per_row, X).tobytes() == _evaluate_broadcast(E, per_row, X).tobytes()
    empty = np.zeros((0, dim))
    assert E.evaluate(t0, empty).shape == (0, dim)


@pytest.mark.parametrize("n_nodes, X", [
    ((3, 6), [[0.2, 99.0]]), ((3, 4, 5), [[0.2, 0.1, 99.0]]), ((3, 4, 5), [[0.2], [0.3]]),
    ((3, 4, 5), []), ((3, 4, 5), [0.2]), ((3, 4, 5), [[[0.2]]])])
def test_evaluate_rejects_points_that_are_not_n_by_dim(n_nodes, X):
    # extra columns were ignored and missing ones raised IndexError
    E = _random_grid(np.random.default_rng(3), len(n_nodes) - 1, n_nodes)
    with pytest.raises(InvalidInputError, match="points have shape"):
        E.evaluate(0.5, X)


@pytest.mark.parametrize("t", [np.zeros(2), np.zeros(4), np.zeros((3, 1)), np.zeros((1, 3))])
def test_evaluate_rejects_times_that_are_not_scalar_or_one_per_row(t):
    E = _random_grid(np.random.default_rng(5), 1, (3, 6))
    with pytest.raises(InvalidInputError, match="times have shape"):
        E.evaluate(t, np.zeros((3, 1)))


def _lipschitz_modulus_per_pair(grid, sample_pairs, rng):
    """The former lipschitz_modulus, one pair and two evaluations at a time."""
    lo = np.array([a[0] for a in grid.axes])
    hi = np.array([a[-1] for a in grid.axes])
    t0, t1 = grid.times[0], grid.times[-1]
    spatial = 0.0
    temporal = 0.0
    for _ in range(sample_pairs):
        t = rng.uniform(t0, t1)
        x1 = rng.uniform(lo, hi)
        x2 = rng.uniform(lo, hi)
        dx = np.linalg.norm(x2 - x1)
        if dx > 1e-12:
            dE = np.linalg.norm(grid.evaluate(t, x2[None]) - grid.evaluate(t, x1[None]))
            spatial = max(spatial, dE / dx)
        x = rng.uniform(lo, hi)
        ta, tb = sorted(rng.uniform(t0, t1, size=2))
        if tb - ta > 1e-12:
            dE = np.linalg.norm(grid.evaluate(tb, x[None]) - grid.evaluate(ta, x[None]))
            temporal = max(temporal, dE / (tb - ta))
    return spatial, temporal


@pytest.mark.parametrize("sample_pairs", [0, 1, 200, 500])
@pytest.mark.parametrize("n_nodes", GRID_SHAPES)
def test_lipschitz_modulus_equals_the_per_pair_loop(n_nodes, sample_pairs):
    E = _random_grid(np.random.default_rng(sum(n_nodes)), len(n_nodes) - 1, n_nodes)
    want = _lipschitz_modulus_per_pair(E, sample_pairs, np.random.default_rng(5))
    got = lipschitz_modulus(E, sample_pairs, np.random.default_rng(5))
    assert np.array(got).tobytes() == np.array(want).tobytes()
    if sample_pairs and any(a.size > 1 for a in E.axes):
        assert got[0] > 0


def test_default_field_box_covers_reachable_set():
    ens = small_cloud()
    lo, hi = default_field_box(ens, T=2.0)
    assert lo[0] <= ens.x.min() - 2.0 + 1e-12
    assert hi[0] >= ens.x.max() + 2.0 - 1e-12


class TestApplyF:
    def test_requires_positive_delta(self):
        E = FieldGrid.zero([0.0, 1.0], (np.linspace(-1, 1, 3),), 1.0)
        with pytest.raises(InvalidInputError):
            apply_F(E, symmetric_pair(), 3.0, 0.0)

    def test_rejects_out_of_bound_input(self):
        E = FieldGrid.zero([0.0, 1.0], (np.linspace(-1, 1, 3),), 0.5)
        E.values[:] = 2.0
        with pytest.raises(InvalidInputError):
            apply_F(E, symmetric_pair(), 3.0, 0.1)

    def test_empty_initial_data_maps_to_zero(self):
        empty = Ensemble(0.0, 1, 1.0, 1.0, np.zeros((0, 1)), np.zeros((0, 1)),
                         np.zeros(0), np.zeros(0), np.zeros(0),
                         initial_support_bound=1.0)
        E = FieldGrid.zero([0.0, 0.5], (np.linspace(-1, 1, 5),), 1.0)
        out = apply_F(E, empty, 1.0, 0.1)
        assert out.sup_norm() == 0.0

    def test_node_values_match_regularized_quotient_at_t0(self):
        # with the zero driving field the t = 0 row is just
        # j_r/(delta + rho_r) of the initial data
        ens = symmetric_pair()
        delta = 0.25
        xs = np.linspace(-1, 1, 5)
        E = FieldGrid.zero([0.0, 1.0], (xs,), 1.0)
        out = apply_F(E, ens, 3.0, delta)
        # both particles sit at x = 0 with opposite velocities: j = 0
        assert np.allclose(out.values[0], 0.0, atol=1e-15)

    def test_single_particle_quotient(self):
        ens = Ensemble(0.0, 1, 1.0, 2.0, [[0.0]], [[0.8]], [0.3], [1.0], [0.3],
                       initial_support_bound=1.0)
        delta = 0.1
        xs = np.array([0.0])
        E = FieldGrid.zero([0.0], (xs,), 1.0)
        out = apply_F(E, ens, 2.0, delta)
        want = 0.3 * 0.8 / (delta + 0.3)
        assert out.values[0, 0, 0] == pytest.approx(want, abs=1e-15)

    def test_output_bounded_by_m0(self):
        ens = small_cloud(seed=3)
        xs = np.linspace(-3, 3, 11)
        E = FieldGrid.zero(np.linspace(0, 0.5, 6), (xs,), ens.initial_support_bound)
        out = apply_F(E, ens, 0.5, 1e-3)
        assert out.sup_norm() <= ens.initial_support_bound + 1e-12


class TestPicard:
    def test_flocked_data_fixed_point_is_scaled_mean(self):
        # all particles share one velocity v*; the map output is
        # rho/(delta+rho) v* everywhere on the support, and iteration
        # converges quickly
        n = 20
        rng = np.random.default_rng(4)
        v_star = 0.5
        ens = Ensemble(0.0, 1, 1.0, 5.0, rng.uniform(-0.5, 0.5, (n, 1)),
                       np.full((n, 1), v_star), np.full(n, 1.0 / n), np.ones(n),
                       np.full(n, 1.0 / n), initial_support_bound=0.5)
        delta = 0.5
        res = picard_solve(ens, r=5.0, delta=delta, T=0.5,
                           n_time_nodes=6, n_space_nodes=9, tol=1e-10, max_iter=50)
        assert res.converged
        # with r = 5 every node sees the whole unit mass, so at t = 0 the
        # field is rho/(delta+rho) v*; at later times the velocities have
        # relaxed toward the (smaller) field, so the rows shrink
        want = 1.0 / (delta + 1.0) * v_star
        assert np.allclose(res.field.values[0], want, atol=1e-9)
        row_sup = np.sqrt((res.field.values ** 2).sum(axis=-1)).max(axis=1)
        assert np.all(np.diff(row_sup) <= 1e-12)
        assert np.all(res.field.values > 0)

    def test_residuals_decrease_and_bound_holds(self):
        ens = small_cloud(seed=5)
        res = picard_solve(ens, r=0.5, delta=0.1, T=0.4,
                           n_time_nodes=9, n_space_nodes=17, tol=1e-8, max_iter=60)
        assert res.converged
        assert res.residuals[-1] < 1e-8
        assert res.field.sup_norm() <= ens.initial_support_bound + 1e-12
        # overall trend: the last residual is far below the first
        assert res.residuals[-1] < 1e-3 * res.residuals[0]

    def test_damping_reaches_same_fixed_point(self):
        ens = small_cloud(seed=6)
        kw = dict(r=0.5, delta=0.2, T=0.3, n_time_nodes=7,
                  n_space_nodes=13, tol=1e-10, max_iter=100)
        a = picard_solve(ens, **kw)
        b = picard_solve(ens, damping=0.5, **kw)
        assert a.converged and b.converged
        assert np.allclose(a.field.values, b.field.values, atol=1e-8)

    @pytest.mark.parametrize("damping", [1.0, 0.5])
    def test_only_damping_one_skips_settled_levels_bit_for_bit(self, monkeypatch, damping):
        # level k of F[E] depends only on E's levels before k, so with
        # damping 1 iteration j computes levels j-1 onward from a kept
        # ensemble; a damped iteration recomputes every level
        ens, n = small_cloud(seed=8), 9
        calls = []

        def counted(*args, real=kinetic.neighborhood_sums):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(kinetic, "neighborhood_sums", counted)
        res = picard_solve(ens, r=0.5, delta=0.1, T=0.4, n_time_nodes=n,
                           n_space_nodes=17, tol=1e-300, max_iter=n + 2, damping=damping)
        if damping == 1.0:
            assert res.converged and res.residuals[-1] == 0.0
            assert len(calls) == sum(n - i for i in range(res.iterations))
        else:
            assert len(calls) == n * res.iterations
        E, residuals = FieldGrid.zero(res.field.times, res.field.axes, 1.0), []
        for _ in range(res.iterations):
            F = apply_F(E, ens, 0.5, 0.1)
            residuals.append(float(np.sqrt(((F.values - E.values) ** 2).sum(axis=-1)).max()))
            E = E.copy_with_values((1.0 - damping) * E.values + damping * F.values)
        assert residuals == res.residuals
        assert E.values.tobytes() == res.field.values.tobytes()

    def test_invalid_arguments(self):
        ens = small_cloud()
        with pytest.raises(InvalidInputError):
            picard_solve(ens, 0.5, 0.1, 0.3, 5, 5, tol=0.0, max_iter=10)
        with pytest.raises(InvalidInputError):
            picard_solve(ens, 0.5, 0.1, 0.3, 5, 5, tol=1e-6, max_iter=10,
                         damping=1.5)

    def test_nonconvergence_reported_not_raised(self):
        ens = small_cloud(seed=7)
        res = picard_solve(ens, 0.5, 0.05, 0.4, 9, 17, tol=1e-15, max_iter=2)
        assert not res.converged
        assert res.iterations == 2


def test_lipschitz_modulus_of_known_linear_field():
    times = np.array([0.0, 1.0])
    xs = np.linspace(-1, 1, 21)
    vals = np.zeros((2, 21, 1))
    vals[0, :, 0] = 0.5 * xs
    vals[1, :, 0] = 0.5 * xs
    E = FieldGrid(times, (xs,), vals, bound=1.0)
    spatial, temporal = lipschitz_modulus(E, sample_pairs=500,
                                          rng=np.random.default_rng(8))
    assert spatial == pytest.approx(0.5, rel=1e-6)
    assert temporal <= 1e-10
