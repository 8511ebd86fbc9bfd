import numpy as np
import pytest

from kinflock import oracle
from kinflock.errors import InvalidInputError, ResolutionError
from kinflock.oracle import (PhaseGrid, _apply_stencil, _bilinear_stencil, backward_stencil,
                             oracle_lp_norm, run_oracle, semi_lagrangian_step)
from kinflock.phase import exact_step
from measures import oracle_moments, quadrature_pushforward


def gaussian_grid(n=96, sigma=0.4, x_half=3.0, v_max=3.0, lam=1.0):
    f0 = lambda x, v: np.exp(-(x ** 2 + v ** 2) / (2 * sigma ** 2))
    return PhaseGrid.from_function(f0, -x_half, x_half, n, v_max, n, lam)


def bilinear_sample(grid, xq, vq):
    """The grid's bilinear interpolation at the query points, zero outside
    the cell-center lattice, as a step applies it."""
    return _apply_stencil(_bilinear_stencil(grid, xq, vq), grid.values).reshape(np.shape(xq))


def step(grid, E, dt, **kwargs):
    """One step under E(x) on the stencil `run_oracle` would build."""
    return semi_lagrangian_step(grid, backward_stencil(grid, E, dt), dt, **kwargs)


def bilinear_reference(grid, xq, vq):
    """Reference: bilinear interpolation corner by corner, skipping the
    corners off the lattice, as the oracle computed it before it kept a
    stencil."""
    x0, v0 = grid.x_nodes[0], grid.v_nodes[0]
    dx, dv = grid.dx, grid.dv
    n_x, n_v = grid.values.shape
    gx = (xq - x0) / dx
    gv = (vq - v0) / dv
    i = np.floor(gx).astype(np.int64)
    j = np.floor(gv).astype(np.int64)
    fx = gx - i
    fv = gv - j
    out = np.zeros_like(gx)

    def corner(ii, jj, w):
        ok = (ii >= 0) & (ii < n_x) & (jj >= 0) & (jj < n_v)
        if np.any(ok):
            out[ok] += w[ok] * grid.values[ii[ok], jj[ok]]

    corner(i, j, (1 - fx) * (1 - fv))
    corner(i + 1, j, fx * (1 - fv))
    corner(i, j + 1, (1 - fx) * fv)
    corner(i + 1, j + 1, fx * fv)
    return out


def step_reference(grid, E, dt):
    """Reference: the values after one backward-characteristic step, with
    the feet traced and the corners weighted afresh."""
    X, V = np.meshgrid(grid.x_nodes, grid.v_nodes, indexing="ij")
    Eg = np.asarray(E(grid.x_nodes), dtype=float)[:, None]
    if grid.lam == 0.0:
        return bilinear_reference(grid, X - V * dt, V)
    x_back, v_back = exact_step(X, V, Eg, grid.lam, -dt)
    return np.exp(grid.lam * dt) * bilinear_reference(grid, x_back, v_back)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


FIELDS = {
    "zero": lambda x: np.zeros_like(x),
    "constant": lambda x: np.full_like(x, 0.5),
    "tanh": lambda x: 0.5 * np.tanh(x / 1.0),
}


class TestPhaseGrid:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            PhaseGrid(np.arange(3.0), np.arange(4.0), np.zeros((3, 3)), 0.0, 1.0)
        with pytest.raises(InvalidInputError):
            PhaseGrid(np.arange(3.0), np.arange(3.0), -np.ones((3, 3)), 0.0, 1.0)
        with pytest.raises(InvalidInputError):
            PhaseGrid(np.arange(3.0), np.arange(3.0), np.ones((3, 3)), 0.0, -1.0)

    def test_mass_of_indicator(self):
        f0 = lambda x, v: ((np.abs(x) < 1) & (np.abs(v) < 1)).astype(float)
        g = PhaseGrid.from_function(f0, -2, 2, 200, 2, 200, 1.0)
        assert g.total_mass() == pytest.approx(4.0, rel=1e-12)


class TestBilinearSample:
    def test_exact_at_nodes(self):
        g = gaussian_grid(32)
        X, V = np.meshgrid(g.x_nodes, g.v_nodes, indexing="ij")
        got = bilinear_sample(g, X, V)
        assert np.allclose(got, g.values, atol=1e-13)

    def test_linear_function_reproduced(self):
        g = PhaseGrid.from_function(lambda x, v: 2 + x + 0.5 * v, 0, 1, 16, 1, 16, 0.0)
        xq = np.array([0.33, 0.6])
        vq = np.array([-0.4, 0.1])
        assert np.allclose(bilinear_sample(g, xq, vq), 2 + xq + 0.5 * vq, atol=1e-13)

    def test_zero_outside(self):
        g = gaussian_grid(16)
        assert bilinear_sample(g, np.array([100.0]), np.array([0.0]))[0] == 0.0

    def test_max_principle(self):
        rng = np.random.default_rng(0)
        g = gaussian_grid(24)
        xq = rng.uniform(-4, 4, 300)
        vq = rng.uniform(-4, 4, 300)
        out = bilinear_sample(g, xq, vq)
        assert out.min() >= 0.0
        assert out.max() <= g.values.max() + 1e-15


class TestSemiLagrangianStep:
    def test_pure_transport_shifts_in_x(self):
        # lam = 0: f(t, x, v) = f0(x - vt, v); one step on a linear-in-x
        # profile is exact wherever the foot stays inside the grid
        g = PhaseGrid.from_function(lambda x, v: 10 + x + 0 * v, -8, 8, 64, 1, 8, 0.0)
        out = step(g, lambda x: 0 * x, 0.25, boundary_tol=np.inf)
        X, V = np.meshgrid(g.x_nodes, g.v_nodes, indexing="ij")
        interior = np.abs(X - V * 0.25) < 7.5
        assert np.allclose(out.values[interior], (10 + X - V * 0.25)[interior],
                           atol=1e-12)

    def test_growth_factor_at_still_point(self):
        # a state concentrated near (0, 0) with E = 0 stays put; the value
        # at the center cell grows by e^{lam dt} each step
        n = 129  # odd so a cell center sits at the origin
        g = gaussian_grid(n=n, sigma=0.5)
        i = n // 2
        assert g.x_nodes[i] == pytest.approx(0.0, abs=1e-12)
        before = g.values[i, i]
        out = step(g, lambda x: 0 * x, 0.1)
        assert out.values[i, i] == pytest.approx(before * np.exp(0.1), rel=1e-10)

    def test_mass_growth_rate(self):
        # d/dt mass = 0 physically, but the quadrature mass of the grid
        # solution tracks it to discretization error
        g = gaussian_grid(n=192, sigma=0.5)
        m0 = g.total_mass()
        snaps, _ = run_oracle(g, lambda x: 0 * x, T=0.5, dt=0.1)
        drift = abs(snaps[-1].total_mass() - m0) / m0
        assert drift < 1e-3

    def test_boundary_detection(self):
        # a wide state slams into the boundary and should be flagged
        g = PhaseGrid.from_function(lambda x, v: np.exp(-(x ** 2 + v ** 2) / 8),
                                    -2, 2, 32, 2, 32, 1.0)
        with pytest.raises(ResolutionError):
            for _ in range(50):
                g = step(g, lambda x: 0 * x, 0.1)

    def test_field_shape_checked(self):
        g = gaussian_grid(16)
        with pytest.raises(InvalidInputError):
            backward_stencil(g, lambda x: np.zeros(3), 0.1)
        with pytest.raises(InvalidInputError):
            backward_stencil(g, lambda x: 0 * x, 0.0)


class TestStencilReuse:
    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("lam", [0.0, 1.0])
    @pytest.mark.parametrize("inf_cell", [False, True])
    def test_steps_match_the_per_corner_reference(self, field, lam, inf_cell):
        # v_max = 4 and dt = 0.3 put many feet off the grid.  An inf in
        # cell (0, 0), the first flat index, must not reach the cells whose
        # corners are off the lattice; one in the middle spreads.
        g = PhaseGrid.from_function(lambda x, v: np.exp(-(x ** 2 + v ** 2)),
                                    -2, 2, 40, 4, 36, lam)
        if inf_cell:
            g.values[0, 0] = g.values[20, 18] = np.inf
        E = FIELDS[field]
        stencil = backward_stencil(g, E, 0.3)  # one stencil for every step, as in run_oracle
        for _ in range(3):
            want = step_reference(g, E, 0.3)
            g = semi_lagrangian_step(g, stencil, 0.3, boundary_tol=np.inf)
            assert same_bits(g.values, want)
        assert (g.values == 0).sum() > 100
        assert np.isinf(g.values).sum() > 1 if inf_cell else np.isfinite(g.values).all()

    def test_a_run_under_a_fixed_field_builds_one_stencil(self, monkeypatch):
        calls = []
        build = oracle._bilinear_stencil
        monkeypatch.setattr(oracle, "_bilinear_stencil",
                            lambda *a: calls.append(1) or build(*a))
        g = gaussian_grid(n=48)
        snaps, _ = run_oracle(g, FIELDS["tanh"], T=0.5, dt=0.1)
        assert len(snaps) == 6 and len(calls) == 1


class TestNorms:
    def test_lp_norm_of_indicator(self):
        f0 = lambda x, v: ((np.abs(x) < 1) & (np.abs(v) < 1)).astype(float)
        g = PhaseGrid.from_function(f0, -2, 2, 400, 2, 400, 1.0)
        for p in (1.0, 2.0, 4.0):
            assert oracle_lp_norm(g, p) == pytest.approx(4.0 ** (1 / p), rel=1e-12)

    def test_norm_is_finite_where_the_values_to_the_p_overflow(self):
        # four unit cells at 1e80: 1e80**4 overflows, the L^4 norm
        # (4 * 1e320)**(1/4) = sqrt(2) * 1e80 does not; where nothing
        # overflows the norm is the plain quadrature, bit for bit
        g = PhaseGrid(np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.full((2, 2), 1e80), 0.0, 1.0)
        assert oracle_lp_norm(g, 4) == pytest.approx(np.sqrt(2.0) * 1e80, rel=1e-15)
        assert oracle_lp_norm(g, 2) == 2e80
        g = gaussian_grid(32)
        for p in (1, 2, 2.5, 4.0):
            assert oracle_lp_norm(g, p) == float(
                (np.power(g.values, p).sum() * g.cell_area) ** (1.0 / p))

    def test_p_below_one_rejected(self):
        with pytest.raises(InvalidInputError):
            oracle_lp_norm(gaussian_grid(8), 0.5)

    def test_lp_growth_law_linear_solver(self):
        # ||f(t)||_p = e^{lam d (p-1)/p t} ||f0||_p with d = 1
        g = gaussian_grid(n=256, sigma=0.5)
        T, dt = 0.5, 0.1
        snaps, steps = run_oracle(g, lambda x: 0 * x, T, dt)
        for p in (1.0, 2.0, 4.0):
            n0 = oracle_lp_norm(snaps[0], p)
            nT = oracle_lp_norm(snaps[-1], p)
            want = np.exp(1.0 * (p - 1) / p * T)
            assert nT / n0 == pytest.approx(want, rel=2e-2)


class TestMomentsAndPushforward:
    def test_moments_of_separable_state(self):
        # f = 1 on [-1,1]^2: rho(x) = 2 on the support, j = 0 by symmetry
        f0 = lambda x, v: ((np.abs(x) < 1) & (np.abs(v) < 1)).astype(float)
        g = PhaseGrid.from_function(f0, -2, 2, 400, 2, 400, 1.0)
        rho, j = oracle_moments(g, [0.0], r=0.5)
        # rho_r integrates the spatial density over the radius-r ball
        assert rho[0] == pytest.approx(2.0 * 1.0, rel=1e-2)
        assert abs(j[0]) < 1e-12

    def test_strict_radius(self):
        g = PhaseGrid(np.array([0.0, 1.0]), np.array([-0.5, 0.5]),
                      np.ones((2, 2)), 0.0, 1.0)
        rho_strict, _ = oracle_moments(g, [0.0], r=1.0)
        rho_wide, _ = oracle_moments(g, [0.0], r=1.0 + 1e-9)
        assert rho_wide > rho_strict

    def test_pushforward_of_one_is_mass(self):
        g = gaussian_grid(64)
        got = quadrature_pushforward(g, lambda x, v: np.ones_like(x))
        assert got == pytest.approx(g.total_mass(), rel=1e-13)

    def test_pushforward_moment_example(self):
        f0 = lambda x, v: ((np.abs(x) < 1) & (np.abs(v) < 1)).astype(float)
        g = PhaseGrid.from_function(f0, -2, 2, 200, 2, 200, 1.0)
        got = quadrature_pushforward(g, lambda x, v: x ** 2)
        assert got == pytest.approx(2.0 * 2.0 / 3.0, rel=1e-4)
