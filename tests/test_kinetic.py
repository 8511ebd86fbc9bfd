import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from kinflock import diagnostics as diag
from kinflock.errors import InvalidInputError, InvariantViolationError
from kinflock.kinetic import (InitialDistributionSpec, has_mass, mean_field,
                              moments_at_points, run_linear, run_self_consistent,
                              sample_initial, _grid_eval, _total_mass)
from kinflock.phase import Ensemble, exact_step, march


def unit_square_spec(n_x=32, n_v=32):
    return InitialDistributionSpec(
        kind="box_indicator", dim=1,
        x_bounds=[[0.0, 1.0]], v_bounds=[[0.0, 1.0]],
        amplitude=1.0, sampling=("tensor_grid", n_x, n_v))


def two_particle_ensemble(lam=1.0, r=3.0):
    """Equal-mass pair at the origin with opposite unit velocities."""
    return Ensemble(
        t=0.0, dim=1, lam=lam, radius=r,
        x=[[0.0], [0.0]], v=[[1.0], [-1.0]],
        mass=[0.5, 0.5], density_value=[1.0, 1.0], phase_volume=[0.5, 0.5],
        initial_support_bound=1.0)


class TestSampling:
    def test_unit_square_tensor_grid(self):
        ens = sample_initial(unit_square_spec(), lam=1.0, radius=0.5)
        assert ens.n == 1024
        assert ens.total_mass == pytest.approx(1.0, abs=1e-12)
        assert ens.check_mass_identity()

    def test_zero_density_empty_ensemble(self):
        spec = unit_square_spec()
        spec.amplitude = 0.0
        ens = sample_initial(spec, lam=1.0, radius=0.5)
        assert ens.n == 0
        assert ens.total_mass == 0.0

    def test_two_bump_monte_carlo_moments(self):
        spec = InitialDistributionSpec(
            kind="two_bump", dim=1,
            x_bounds=[[-2.0, 2.0]], v_bounds=[[-1.5, 1.5]],
            x_centers=[[-0.5], [0.5]], v_centers=[[0.5], [-0.5]],
            x_sigma=0.3, v_sigma=0.2,
            sampling=("monte_carlo", 10_000, 7))
        ens = sample_initial(spec, lam=1.0, radius=0.5)
        assert ens.n == 10_000
        assert ens.total_mass == pytest.approx(_total_mass(spec), rel=1e-12)
        # analytic mean velocity is 0 by the symmetry of the bumps; the
        # velocity second moment comes from independent quadrature
        from kinflock.kinetic import _grid_eval
        vals, cellvol = _grid_eval(spec, 400)
        # axes order: x then v for d=1
        spec2 = spec
        axes_v = np.linspace(*spec2.v_bounds[0], 401)
        total = vals.sum() * cellvol
        grid_pts = np.stack(np.meshgrid(
            np.linspace(*spec2.x_bounds[0], 400, endpoint=False) + np.diff(spec2.x_bounds[0]) / 800,
            np.linspace(*spec2.v_bounds[0], 400, endpoint=False) + np.diff(spec2.v_bounds[0]) / 800,
            indexing="ij"), axis=-1).reshape(-1, 2)
        dens = spec2.density(grid_pts[:, :1], grid_pts[:, 1:])
        var_v = float((dens * grid_pts[:, 1] ** 2).sum() / dens.sum())
        sample_mean = (ens.mass * ens.v[:, 0]).sum() / ens.total_mass
        se = np.sqrt(var_v / ens.n)
        assert abs(sample_mean) <= 3 * se

    @pytest.mark.parametrize("n_bumps", [1, 2, 3, 4])
    def test_monte_carlo_envelope_covers_every_overlapping_bump(self, n_bumps):
        # n coincident bumps peak at n * amplitude; an envelope below that
        # accepts every point where f0 exceeds it and widens the sample
        # (x variance 0.066 for 3 bumps and 0.072 for 4 with an envelope of 2)
        spec = InitialDistributionSpec(
            kind="two_bump", dim=1, x_bounds=[[-1.5, 1.5]], v_bounds=[[-1.5, 1.5]],
            x_centers=np.zeros((n_bumps, 1)), v_centers=np.zeros((n_bumps, 1)),
            sampling=("monte_carlo", 50_000, 3))
        ens = sample_initial(spec, lam=1.0, radius=0.5)
        # the box is 6 sigma wide on each side, so the variance is sigma**2
        # = 0.0625; the standard error of each sample variance is 4e-4
        assert ens.x.var() == pytest.approx(0.0625, abs=1.6e-3)
        assert ens.v.var() == pytest.approx(0.0625, abs=1.6e-3)

    def test_support_bound_from_bounds(self):
        spec = unit_square_spec()
        assert spec.support_bound == pytest.approx(1.0)


# (x_centers, v_centers) per kind, in 3D; a d-dimensional spec keeps the
# first d coordinates
CENTRES = {
    "box_indicator": ([], []),
    "product_gaussian_truncated": ([[0.3, 0.9, 0.1]], [[0.2, -0.1, -0.5]]),
    "two_bump": ([[-0.2, 0.4, 0.0], [0.6, 1.1, -0.3]],
                 [[0.3, 0.0, 0.2], [-0.4, -0.3, -1.0]]),
}
KINDS = tuple(CENTRES)


def mesh_spec(kind, d):
    """Unequal boxes per axis, off-centre Gaussians, amplitude != 1."""
    xc, vc = ([c[:d] for c in centres] or None for centres in CENTRES[kind])
    return InitialDistributionSpec(
        kind=kind, dim=d, amplitude=1.3, x_sigma=0.4, v_sigma=0.3,
        x_bounds=[[-1.0, 2.0], [0.0, 1.5], [-0.5, 0.5]][:d],
        v_bounds=[[-1.0, 1.0], [-0.7, 0.3], [-2.0, 1.0]][:d],
        x_centers=xc, v_centers=vc)


def full_mesh_eval(spec, n, rows=1 << 16):
    """The full-mesh quadrature: every point of the n^{2d} phase mesh as a
    row (x..., v...), x-cells major, evaluated row-wise, in blocks of rows
    so that large meshes stay small in memory."""
    d = spec.dim
    axes, cellvol = [], 1.0
    for lo, hi in np.concatenate([spec.x_bounds, spec.v_bounds]):
        edges = np.linspace(lo, hi, n + 1)
        axes.append(0.5 * (edges[:-1] + edges[1:]))
        cellvol *= (hi - lo) / n
    vals = []
    for start in range(0, n ** (2 * d), rows):
        idx = np.unravel_index(np.arange(start, min(start + rows, n ** (2 * d))),
                               (n,) * (2 * d))
        pts = np.stack([axes[k][idx[k]] for k in range(2 * d)], axis=1)
        vals.append(spec.density(pts[:, :d], pts[:, d:]))
    return np.concatenate(vals), cellvol


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestInitialMesh:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("d, n", [(d, n) for d in (1, 2, 3) for n in (1, 7, 13)]
                             + [(1, None), (2, None)])
    def test_outer_product_mesh_matches_full_mesh(self, kind, d, n):
        spec = mesh_spec(kind, d)
        vals, cellvol = _grid_eval(spec, n)
        ref, ref_cellvol = full_mesh_eval(spec, {1: 512, 2: 32}[d] if n is None else n)
        assert same_bits(vals, ref)
        assert cellvol == ref_cellvol
        assert _total_mass(spec, n) == float(ref.sum() * ref_cellvol)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_density_broadcasts_over_leading_axes(self, kind, d):
        spec = mesh_spec(kind, d)
        rng = np.random.default_rng(d)
        # boxes widened by half a unit, so some points fall outside
        x = rng.uniform(spec.x_bounds[:, 0] - 0.5, spec.x_bounds[:, 1] + 0.5, (9, d))
        v = rng.uniform(spec.v_bounds[:, 0] - 0.5, spec.v_bounds[:, 1] + 0.5, (11, d))
        outer = spec.density(x[:, None, :], v[None, :, :])
        rows = spec.density(np.repeat(x, len(v), axis=0), np.tile(v, (len(x), 1)))
        assert outer.shape == (9, 11)
        assert same_bits(outer, rows.reshape(9, 11))
        assert (outer == 0).any() and (outer > 0).any()

    @pytest.mark.parametrize("kind, d", [("product_gaussian_truncated", 2), ("two_bump", 2),
                                         ("product_gaussian_truncated", 3), ("two_bump", 3)])
    def test_total_mass_memory_stays_small(self, kind, d):
        # the full (10^6, 2d) point mesh peaked at 97-145 MB
        spec = mesh_spec(kind, d)
        tracemalloc.start()
        try:
            _total_mass(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6


def box_spec(amplitude, x_bounds=((0.0, 100.0),)):
    return InitialDistributionSpec(kind="box_indicator", dim=1, amplitude=amplitude,
                                   x_bounds=x_bounds, v_bounds=[[0.0, 100.0]])


class TestHasMass:
    @pytest.mark.parametrize("spec, mass", [
        (mesh_spec("two_bump", 1), True),
        (mesh_spec("product_gaussian_truncated", 2), True),
        (mesh_spec("box_indicator", 3), True),
        (box_spec(0.0), False),
        (box_spec(1.0, x_bounds=[[0.5, 0.5]]), False),  # no cell volume
        # the bumps' exp underflows to 0 everywhere on the boxes
        (InitialDistributionSpec(kind="two_bump", dim=2, x_bounds=[[-1, 1], [-1, 1]],
                                 v_bounds=[[-1, 1], [-1, 1]], x_centers=[[60.0, 0.0]],
                                 v_centers=[[0.0, 0.0]]), False),
        # every value * cellvol underflows, but their sum does not
        (box_spec(5e-324), True),
    ], ids=["two_bump-1d", "gaussian-2d", "box-3d", "amplitude-0", "empty-box",
            "underflow", "subnormal"])
    def test_decides_as_the_quadrature(self, spec, mass):
        assert has_mass(spec) is mass
        assert (_total_mass(spec) != 0.0) is mass
        vals, cellvol = _grid_eval(spec)
        if spec.amplitude == 5e-324:  # only the full sum can tell
            assert vals.max() * cellvol == 0.0


class TestEnsembleSteps:
    @pytest.mark.parametrize("field, value, message", [
        ("x", np.inf, "x: non-finite"), ("v", np.nan, "v: non-finite")])
    def test_stepped_checks_new_arrays(self, field, value, message):
        ens = two_particle_ensemble()
        new = {"x": ens.x.copy(), "v": ens.v.copy()}
        new[field][0] = value
        with pytest.raises(InvalidInputError, match=message):
            ens.stepped(1.0, **new)

    @pytest.mark.parametrize("density, volume, t_in, t_past", [
        (1.0, 1.0, 709.0, 710.0),  # e^t itself overflows past t = 709.78
        (1e300, 1.0, 18.0, 20.0),  # 1e300 * e^t overflows first
        (1.0, 1e-300, 53.0, 56.0),  # 1e-300 / e^t rounds to 0 first
    ], ids=["factor-overflows", "density-overflows", "volume-rounds-to-0"])
    def test_stepped_enforces_the_horizon_rule(self, density, volume, t_in, t_past):
        ens = Ensemble(0.0, 1, 1.0, 3.0, [[0.0]], [[1.0]], [density * volume], [density],
                       [volume], initial_support_bound=1.0)
        inside = ens.stepped(t_in, ens.x, ens.v)
        assert np.isfinite(inside.density_value).all() and (inside.phase_volume > 0).all()
        with pytest.raises(InvalidInputError, match=f"t={t_past!r} is past the horizon"):
            ens.stepped(t_past, ens.x, ens.v)
        # the rule holds exactly where the arithmetic leaves the double range
        with np.errstate(over="ignore", invalid="ignore"):
            for t in np.linspace(t_in, t_past, 1001):
                grow = np.exp(t)
                fits = np.isfinite(density * grow) and volume / grow > 0
                assert ens.reaches(t) is bool(fits)

    def test_stepped_does_not_depend_on_the_path(self):
        ens = two_particle_ensemble(lam=0.5)
        x, v = ens.x + 1.0, ens.v * 0.5
        direct = ens.stepped(1.0, x, v)
        for via in (0.25, 0.3, 2.0):
            out = ens.stepped(via, ens.x, ens.v).stepped(1.0, x, v)
            assert out.t == direct.t == 1.0
            for name in ("x", "v", "mass", "density_value", "phase_volume"):
                assert np.array_equal(getattr(out, name), getattr(direct, name))
        assert np.array_equal(direct.density_value, ens.density_value * np.exp(0.5))
        assert np.array_equal(direct.phase_volume, ens.phase_volume / np.exp(0.5))

    def test_stepped_moves_only_x_and_v(self):
        n = 100_000
        ens = Ensemble(0.0, 1, 1.0, 1.0, np.zeros((n, 1)), np.zeros((n, 1)),
                       np.ones(n), np.ones(n), np.ones(n), initial_support_bound=1.0)
        x, v = ens.x + 1.0, ens.v + 0.5
        tracemalloc.start()
        try:
            out = ens.stepped(0.5, x, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n  # less than one float per particle: the finiteness masks only
        assert out.x is x and out.v is v
        assert out.mass is ens.mass and out.density0 is ens.density0
        assert out.volume0 is ens.volume0

    def test_built_arrays_are_read_only(self):
        ens = two_particle_ensemble()
        for a in (ens.mass, ens.density0, ens.volume0):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = -1.0

    def test_support_bound_violation_aborts_at_step_one(self):
        # the pair's speeds decay from 1 to e^{-lam*dt}, above a declared M0 = 0.5
        ens = two_particle_ensemble()
        ens.initial_support_bound = 0.5
        with pytest.raises(InvariantViolationError,
                           match="velocity support bound violated") as info:
            run_self_consistent(ens, T=0.5, dt=0.05)
        assert info.value.step == 1 and info.value.index == 0

    @pytest.mark.parametrize("solver", ["linear", "self_consistent"])
    def test_one_stepped_call_per_step(self, solver, monkeypatch):
        calls = []
        stepped = Ensemble.stepped

        def counted(self, *args):
            calls.append(args[0])
            return stepped(self, *args)

        ens = two_particle_ensemble()
        monkeypatch.setattr(Ensemble, "stepped", counted)
        if solver == "linear":
            run_linear(ens, lambda t, X: np.zeros_like(X), T=1.0, dt=0.1)
        else:
            run_self_consistent(ens, T=1.0, dt=0.1)
        # one call per step, none at the start: march starts from `ens` itself
        assert calls == [0.1 * k for k in range(1, 11)]

    @pytest.mark.parametrize("solver", ["linear", "self_consistent"])
    def test_density_overflow_aborts_the_run(self, solver):
        # e^{lam*d*t} overflows past t = 709.78: the step to t = 710 stops
        # the run with the horizon rule's message and no overflow warning
        ens = Ensemble(0.0, 1, 1.0, 0.5, [[0.0]], [[0.5]], [1.0], [1.0], [1.0],
                       initial_support_bound=0.5)
        with pytest.raises(InvalidInputError, match="t=710.0 is past the horizon"):
            if solver == "linear":
                run_linear(ens, lambda t, X: np.zeros_like(X), T=800.0, dt=1.0,
                           snapshot_stride=100)
            else:
                run_self_consistent(ens, T=800.0, dt=1.0, snapshot_stride=100)

    def test_growth_laws_hold_over_1e5_steps(self):
        ens = two_particle_ensemble()
        res = run_linear(ens, lambda t, X: np.zeros_like(X), T=100.0, dt=1e-3,
                         snapshot_stride=10_000)
        assert res.snapshot_steps[-1] == 100_000
        assert diag.check_density_growth(res.snapshots).value <= 1e-12
        assert diag.check_volume_law(res.snapshots).value <= 1e-12
        assert all(snap.check_mass_identity() for snap in res.snapshots)


class TestMomentsAndFields:
    def test_empty_neighborhood(self):
        ens = sample_initial(unit_square_spec(8, 8), 1.0, 0.5)
        rho, j = moments_at_points(ens, [100.0], 0.5)
        assert rho.tolist() == [0.0] and j.tolist() == [[0.0]]
        assert mean_field(ens, [100.0], 0.5).tolist() == [[0.0]]

    def test_single_particle_moment(self):
        ens = Ensemble(0.0, 2, 1.0, 1.0, [[0.0, 0.0]], [[2.0, 0.0]],
                       [0.5], [1.0], [0.5], initial_support_bound=2.0)
        rho, j = moments_at_points(ens, [0.1, 0.0], 1.0)
        assert rho[0] == pytest.approx(0.5)
        assert np.allclose(j, [[1.0, 0.0]])
        assert np.allclose(mean_field(ens, [0.1, 0.0], 1.0), [[2.0, 0.0]])

    def test_two_equal_mass_particles_average(self):
        ens = Ensemble(0.0, 1, 1.0, 1.0, [[0.0], [0.1]], [[1.0], [3.0]],
                       [0.2, 0.2], [1.0, 1.0], [0.2, 0.2], initial_support_bound=3.0)
        u = mean_field(ens, [0.05], 1.0)
        assert np.allclose(u, [[2.0]])

    def test_moments_match_brute_force(self):
        rng = np.random.default_rng(9)
        n = 1000
        ens = Ensemble(0.0, 2, 1.0, 0.3,
                       rng.uniform(0, 1, (n, 2)), rng.normal(size=(n, 2)),
                       rng.uniform(0, 1, n), np.ones(n), rng.uniform(0.5, 1.5, n),
                       initial_support_bound=10.0)
        for _ in range(20):
            c = rng.uniform(0, 1, 2)
            r = rng.uniform(0.05, 0.4)
            rho, j = moments_at_points(ens, c, r)
            sel = ((ens.x - c) ** 2).sum(axis=1) < r * r
            assert rho[0] == pytest.approx(math.fsum(ens.mass[sel]), abs=1e-14)
            assert np.allclose(j[0], (ens.mass[sel, None] * ens.v[sel]).sum(axis=0),
                               atol=1e-14)

    def test_delta_field_single_particle(self):
        w, delta = 0.3, 0.1
        ens = Ensemble(0.0, 1, 1.0, 1.0, [[0.0]], [[2.0]],
                       [w], [1.0], [w], initial_support_bound=2.0)
        u = mean_field(ens, [0.0], 1.0, delta)
        assert np.allclose(u, [[w / (delta + w) * 2.0]])

    def test_delta_sweep_algebraic_identity(self):
        rng = np.random.default_rng(10)
        n = 20
        ens = Ensemble(0.0, 1, 1.0, 0.5,
                       rng.uniform(-0.2, 0.2, (n, 1)), rng.uniform(-1, 1, (n, 1)),
                       rng.uniform(0.01, 0.1, n), np.ones(n), rng.uniform(0.01, 0.1, n),
                       initial_support_bound=1.0)
        x = [0.0]
        rho, j = moments_at_points(ens, x, 0.5)
        u = mean_field(ens, x, 0.5)
        for delta in (1e-1, 1e-2, 1e-3):
            ud = mean_field(ens, x, 0.5, delta)
            expected_gap = delta * j / (rho * (delta + rho))[:, None]
            assert np.allclose(u - ud, expected_gap, atol=1e-14)
            assert np.linalg.norm(ud) <= np.linalg.norm(u) + 1e-15

    def test_delta_rejects_negative(self):
        ens = two_particle_ensemble()
        with pytest.raises(InvalidInputError, match="delta"):
            mean_field(ens, [0.0], 1.0, -0.1)


def kinetic_reference(x, v, E, lam, dt):
    """Reference: the closed form as kinetic._flow wrote it out."""
    decay = np.exp(-lam * dt)
    dv = v - E
    return x + E * dt + dv * (1.0 - decay) / lam, E + dv * decay


def agents_reference(x, v, a, lam, dt):
    """Reference: the closed form as the agents' exponential scheme wrote it out."""
    ubar = v + a / lam
    decay = np.exp(-lam * dt)
    new_v = ubar + (v - ubar) * decay
    new_x = x + ubar * dt + (v - ubar) * (1.0 - decay) / lam
    return new_x, new_v


def oracle_reference(X, V, Eg, lam, dt):
    """Reference: the backward foot as oracle.semi_lagrangian_step wrote it out."""
    growth = np.exp(lam * dt)
    v_back = Eg + (V - Eg) * growth
    x_back = X - Eg * dt - (V - Eg) * (growth - 1.0) / lam
    return x_back, v_back


def one_step(ens, field, dt):
    """The ensemble after one step of `run_linear` under `field`."""
    return run_linear(ens, field, T=dt, dt=dt).snapshots[-1]


class TestCharacteristics:
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(5))
    def test_exact_step_is_each_old_closed_form(self, seed, dim, sign):
        rng = np.random.default_rng(seed)
        n = 40
        lam = rng.uniform(0.05, 4.0)
        dt = sign * 10.0 ** rng.uniform(-4, 0)
        x, v, E, a = (rng.normal(scale=3.0, size=(n, dim)) for _ in range(4))
        for got, want in ((exact_step(x, v, E, lam, dt), kinetic_reference(x, v, E, lam, dt)),
                          (exact_step(x, v, v + a / lam, lam, dt),
                           agents_reference(x, v, a, lam, dt))):
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        # the oracle's (n_x, 1) field against its (n_x, n_v) node arrays
        X, V = np.meshgrid(rng.normal(size=n), rng.normal(size=n + 3), indexing="ij")
        Eg = rng.normal(size=(n, 1))
        got = exact_step(X, V, Eg, lam, -dt)
        want = oracle_reference(X, V, Eg, lam, dt)
        assert got[0].shape == X.shape
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_closed_form_single_step(self):
        ens = Ensemble(0.0, 1, 1.0, 1.0, [[0.0]], [[1.0]], [1.0], [1.0], [1.0],
                       initial_support_bound=1.0)
        out = one_step(ens, lambda t, X: np.zeros_like(X), 0.5)
        assert out.v[0, 0] == pytest.approx(np.exp(-0.5), abs=1e-15)
        assert out.x[0, 0] == pytest.approx(1.0 - np.exp(-0.5), abs=1e-15)

    def test_mass_exactly_conserved(self):
        rng = np.random.default_rng(11)
        n = 50
        ens = Ensemble(0.0, 2, 1.3, 1.0,
                       rng.normal(size=(n, 2)), rng.uniform(-1, 1, (n, 2)),
                       rng.uniform(0, 1, n), np.ones(n), rng.uniform(0.5, 1.5, n),
                       initial_support_bound=2.0)
        ens.mass = ens.density_value * ens.phase_volume
        out = one_step(ens, lambda t, X: 0.1 * np.ones_like(X), 0.2)
        assert np.array_equal(out.mass, ens.mass)
        assert out.check_mass_identity()

    def test_density_and_volume_factors_2d(self):
        # lam*d*dt = 0.1 with d = 2
        ens = Ensemble(0.0, 2, 1.0, 1.0, [[0.0, 0.0]], [[0.5, 0.0]],
                       [1.0], [2.0], [0.5], initial_support_bound=1.0)
        out = one_step(ens, lambda t, X: np.zeros_like(X), 0.1)
        assert out.density_value[0] / ens.density_value[0] == pytest.approx(np.exp(0.2), rel=1e-15)
        assert out.phase_volume[0] / ens.phase_volume[0] == pytest.approx(np.exp(-0.2), rel=1e-15)

    def test_constant_field_step_is_dt_independent(self):
        E_val = 0.3

        def field(t, X):
            return np.full_like(X, E_val)

        def run(dt):
            ens = Ensemble(0.0, 1, 2.0, 1.0, [[0.2]], [[-0.7]], [1.0], [1.0], [1.0],
                           initial_support_bound=1.0)
            ens = run_linear(ens, field, T=1.0, dt=dt).snapshots[-1]
            return ens.x[0, 0], ens.v[0, 0]

        lam = 2.0
        v_exact = E_val + (-0.7 - E_val) * np.exp(-lam)
        x_exact = 0.2 + E_val + (-0.7 - E_val) * (1 - np.exp(-lam)) / lam
        for dt in (1.0, 0.5, 0.125, 0.01):
            x, v = run(dt)
            assert v == pytest.approx(v_exact, abs=1e-12)
            assert x == pytest.approx(x_exact, abs=1e-12)

    def test_nonfinite_field_reported(self):
        ens = two_particle_ensemble()
        with pytest.raises(InvariantViolationError):
            one_step(ens, lambda t, X: np.full_like(X, np.nan), 0.1)


class TestSelfConsistent:
    def test_flocking_state_invariant(self):
        rng = np.random.default_rng(12)
        n = 30
        v_star = np.array([0.5])
        ens = Ensemble(0.0, 1, 1.0, 0.5,
                       rng.uniform(0, 1, (n, 1)), np.tile(v_star, (n, 1)),
                       np.full(n, 1.0 / n), np.ones(n), np.full(n, 1.0 / n),
                       initial_support_bound=0.5)
        result = run_self_consistent(ens, T=0.5, dt=0.05, delta=0.0)
        final = result.snapshots[-1]
        assert np.allclose(final.v, v_star, atol=1e-14)
        assert np.allclose(final.x, ens.x + 0.5 * v_star, atol=1e-12)

    def test_symmetric_pair_exponential_decay(self):
        ens = two_particle_ensemble(lam=1.0, r=3.0)
        result = run_self_consistent(ens, T=1.0, dt=0.001, delta=0.0)
        final = result.snapshots[-1]
        assert final.v[0, 0] == pytest.approx(np.exp(-1.0), abs=1e-12)
        assert final.v[1, 0] == pytest.approx(-np.exp(-1.0), abs=1e-12)
        # separation stays below the interaction radius
        assert abs(final.x[0, 0] - final.x[1, 0]) < 3.0

    def test_symmetric_pair_with_delta_same_decay(self):
        ens = two_particle_ensemble()
        result = run_self_consistent(ens, T=1.0, dt=0.001, delta=0.5)
        final = result.snapshots[-1]
        assert final.v[0, 0] == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_support_never_exceeds_bound(self):
        spec = unit_square_spec(12, 12)
        for delta in (0.0, 1e-3, 1e-1):
            ens = sample_initial(spec, lam=1.0, radius=0.4)
            result = run_self_consistent(ens, T=0.5, dt=0.05, delta=delta)
            for snap in result.snapshots:
                assert snap.max_speed <= ens.initial_support_bound + 1e-9

    def test_empty_ensemble_runs(self):
        spec = unit_square_spec()
        spec.amplitude = 0.0
        ens = sample_initial(spec, 1.0, 0.5)
        result = run_self_consistent(ens, T=0.1, dt=0.05, delta=0.0)
        assert result.snapshots[-1].n == 0

    def test_thread_count_does_not_change_results(self):
        spec = unit_square_spec(16, 16)
        ens = sample_initial(spec, lam=1.0, radius=0.4)
        # the library runs single-threaded; `kinflock run --threads K` is
        # covered by criterion 12, so here two runs must agree bit for bit
        a = run_self_consistent(ens, T=0.2, dt=0.05, delta=1e-2)
        b = run_self_consistent(ens, T=0.2, dt=0.05, delta=1e-2)
        assert np.array_equal(a.snapshots[-1].x, b.snapshots[-1].x)
        assert np.array_equal(a.snapshots[-1].v, b.snapshots[-1].v)


@pytest.mark.parametrize("n_steps, stride, want", [
    (10, 3, [0, 3, 6, 9, 10]), (4, 10, [0, 4]), (3, 1, [0, 1, 2, 3])])
def test_march_snapshots_every_stride_and_the_last(n_steps, stride, want):
    state = SimpleNamespace(t=0.5, k=0)
    snaps, steps = march(state, lambda s, k, t: SimpleNamespace(t=t, k=s.k + k),
                         n_steps * 0.1, 0.1, stride)
    assert steps == want
    assert snaps[0] is state
    assert [s.k for s in snaps] == [k * (k + 1) // 2 for k in want]
    # the clock is the start time plus the step count times dt, not a sum
    assert [s.t for s in snaps] == [0.5 + k * 0.1 for k in want]


@pytest.mark.parametrize("T, dt", [(0.0, 0.1), (1.0, 0.0), (-1.0, 0.1)])
def test_march_rejects_non_positive_horizon_or_step(T, dt):
    with pytest.raises(InvalidInputError, match="T and dt must be positive"):
        march(SimpleNamespace(t=0.0), lambda s, k, t: s, T, dt, 1)


def test_run_linear_matches_self_consistent_for_flocked_state():
    # with all particles at one velocity the self-consistent field is that
    # velocity; driving the linear solver with it reproduces the run
    rng = np.random.default_rng(13)
    n = 10
    ens = Ensemble(0.0, 1, 1.0, 1.0, rng.uniform(0, 1, (n, 1)),
                   np.full((n, 1), 0.25), np.full(n, 0.1), np.ones(n), np.full(n, 0.1),
                   initial_support_bound=0.25)
    a = run_self_consistent(ens, T=0.3, dt=0.05, delta=0.0)
    b = run_linear(ens, lambda t, X: np.full_like(X, 0.25), T=0.3, dt=0.05)
    assert np.allclose(a.snapshots[-1].x, b.snapshots[-1].x, atol=1e-13)
    assert np.allclose(a.snapshots[-1].v, b.snapshots[-1].v, atol=1e-13)


@pytest.mark.parametrize("T, dt", [(100.0, 0.01), (300.0, 0.1)])
@pytest.mark.parametrize("solver", ["linear", "self_consistent"])
def test_long_run_keeps_exact_growth_laws(solver, T, dt):
    # Accumulating t += dt drifts t by 1.4e-11 over 1e4 steps of 0.01, and
    # multiplying by e^{lam*d*dt} 3000 times compounds its rounding to
    # 1e-11; both broke the 1e-12 growth and volume laws.
    ens = Ensemble(0.0, 1, 1.0, 0.5, [[0.0]], [[0.5]], [1.0], [1.0], [1.0],
                   initial_support_bound=0.5)
    if solver == "linear":
        res = run_linear(ens, lambda t, X: np.zeros_like(X), T=T, dt=dt,
                         snapshot_stride=1000)
    else:
        res = run_self_consistent(ens, T=T, dt=dt, snapshot_stride=1000)
    assert res.snapshots[-1].t == pytest.approx(T, rel=1e-15)
    assert diag.check_density_growth(res.snapshots).passed
    assert diag.check_volume_law(res.snapshots).passed
    assert all(s.check_mass_identity() for s in res.snapshots)
