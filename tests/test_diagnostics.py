import copy
import dataclasses

import numpy as np
import pytest

from kinflock import diagnostics
from kinflock.diagnostics import (DiagnosticsReport, check_density_growth,
                                  check_lp_law, check_mass, check_oracle_sup,
                                  check_particle_lp_inequality, check_pushforward,
                                  _diameter, check_support, check_volume_law,
                                  fit_lp_exponent, flocking_metrics,
                                  meanfield_distance, particle_lp_norm,
                                  pushforward_sum)
from kinflock.errors import InvalidInputError
from kinflock.kinetic import run_linear, run_self_consistent
from kinflock.oracle import PhaseGrid, oracle_lp_norm, run_oracle
from kinflock.phase import AgentState, Ensemble


def make_ensemble(t=0.0, lam=1.0, dim=1, n=4, seed=0):
    rng = np.random.default_rng(seed)
    vol = rng.uniform(0.1, 0.3, n)
    dens = rng.uniform(0.5, 2.0, n)
    return Ensemble(t, dim, lam, 1.0, rng.normal(size=(n, dim)),
                    rng.uniform(-1, 1, (n, dim)), dens * vol, dens, vol,
                    initial_support_bound=2.0)


def evolved_copy(ens, t, density_error=0.0):
    """The ensemble built at time t with the exact linear-law density values
    (off by the relative density_error) and phase volumes: only the
    bookkeeping columns evolve."""
    factor = np.exp(ens.lam * ens.dim * t)
    return Ensemble(t, ens.dim, ens.lam, ens.radius, ens.x, ens.v, ens.mass,
                    ens.density_value * factor * (1 + density_error),
                    ens.phase_volume / factor,
                    initial_support_bound=ens.initial_support_bound)


# the per-snapshot series a run records, read off snapshots
def masses(trajectory):
    return [snap.total_mass for snap in trajectory]


def times(trajectory):
    return [snap.t for snap in trajectory]


def grid_norms(trajectory, p_list):
    return {p: [oracle_lp_norm(g, p) for g in trajectory] for p in p_list}


class TestMassAndSupport:
    def test_constant_mass_passes(self):
        ens = make_ensemble()
        res = check_mass(masses([ens, evolved_copy(ens, 1.0)]))
        assert res.passed and res.value == 0.0
        # with m0 == 0 the drift is absolute
        res = check_mass([0.0, 0.0, 0.0])
        assert res.passed and res.value == 0.0

    def test_drifting_mass_fails(self):
        a = make_ensemble()
        b = copy.deepcopy(a)
        b.mass = a.mass * 1.001
        res = check_mass(masses([a, b]), tol=1e-6)
        assert not res.passed
        assert res.value == pytest.approx(1e-3, rel=1e-10)
        res = check_mass([0.0, 1e-7, -2e-6], tol=1e-6)
        assert not res.passed and res.value == 2e-6

    def test_single_snapshot_rejected(self):
        with pytest.raises(InvalidInputError):
            check_mass(masses([make_ensemble()]))

    def test_grid_snapshots_accepted(self):
        g = PhaseGrid(np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                      np.ones((2, 2)), 0.0, 1.0)
        res = check_mass([g.total_mass(), copy.deepcopy(g).total_mass()])
        assert res.passed

    def test_support_check(self):
        ens = make_ensemble()
        ok = check_support([ens.max_speed], m0=ens.max_speed)
        assert ok.passed and ok.name == "velocity_support_bound"
        bad = check_support([ens.max_speed], m0=ens.max_speed * 0.5)
        assert not bad.passed
        # the agents' max principle: the peak over every snapshot, the
        # first included, against the first snapshot's speed
        speeds = [0.5, 0.7, 0.6]
        agent = check_support(speeds, speeds[0], 1e-9, "agent_speed_max_principle")
        assert agent.name == "agent_speed_max_principle"
        assert not agent.passed and agent.value == 0.7 and agent.tolerance == 0.5 + 1e-9
        assert check_support([0.7, 0.5], 0.7, 1e-9, "agent_speed_max_principle").passed


class TestGrowthLaws:
    def test_exact_evolution_passes(self):
        ens = make_ensemble(lam=0.7, dim=2)
        traj = [ens, evolved_copy(ens, 0.5), evolved_copy(ens, 1.0)]
        assert check_density_growth(traj).passed
        assert check_volume_law(traj).passed

    def test_perturbed_density_fails(self):
        ens = make_ensemble()
        bad = evolved_copy(ens, 1.0, density_error=1e-6)
        assert not check_density_growth([ens, bad]).passed
        assert check_volume_law([ens, bad]).passed

    def test_solver_trajectory_passes(self):
        ens = make_ensemble(n=20, seed=1)
        res = run_self_consistent(ens, T=0.5, dt=0.01, delta=0.1)
        assert check_density_growth(res.snapshots).passed
        assert check_volume_law(res.snapshots).passed
        assert check_mass(masses(res.snapshots)).passed


class TestOracleChecks:
    def setup_method(self):
        f0 = lambda x, v: np.exp(-(x ** 2 + v ** 2) / 0.5)
        self.g = PhaseGrid.from_function(f0, -3, 3, 192, 3, 192, 1.0)

    def test_sup_growth_bound(self):
        snaps, _ = run_oracle(self.g, lambda t, x: 0 * x, T=0.3, dt=0.1)
        sups = [float(g.values.max()) for g in snaps]
        assert check_oracle_sup(times(snaps), sups, lam=1.0).passed
        # a max value above ||f0||_inf e^{lam t} fails by its excess
        bad = check_oracle_sup([0.0, 1.0], [1.0, 1.01 * np.e], lam=1.0)
        assert not bad.passed and bad.value == pytest.approx(0.01, rel=1e-12)

    def test_fit_exponent_of_analytic_sequence(self):
        # scale the values by e^{0.25 t}: the p = 1 slope is exactly 0.25
        snaps = []
        for t in (0.0, 0.5, 1.0, 1.5):
            g = copy.deepcopy(self.g)
            g.t = t
            g.values = self.g.values * np.exp(0.25 * t)
            snaps.append(g)
        norms = grid_norms(snaps, [1.0])[1.0]
        assert fit_lp_exponent(times(snaps), norms) == pytest.approx(0.25, abs=1e-12)

    def test_lp_law_linear_run(self):
        snaps, _ = run_oracle(self.g, lambda t, x: 0 * x, T=0.5, dt=0.1)
        results = check_lp_law(times(snaps), grid_norms(snaps, [1.0, 2.0]), [1.0, 2.0], lam=1.0)
        assert all(r.passed for r in results)
        by_name = {r.name: r for r in results}
        assert by_name["lp_law_p2.0"].detail["target"] == pytest.approx(0.5)

    def test_lp_law_fits_the_recorded_norms(self):
        # norms keyed by int p serve a float or repeated p of p_list, and
        # each slope is the fit of exactly those norms
        snaps, _ = run_oracle(self.g, lambda t, x: 0 * x, T=0.5, dt=0.1)
        ts, norms = times(snaps), grid_norms(snaps, [1, 2])
        results = check_lp_law(ts, norms, [1.0, 2.0, 2], lam=1.0)
        assert [r.name for r in results] == ["lp_law_p1.0", "lp_law_p2.0", "lp_law_p2"]
        assert results[1] == dataclasses.replace(results[2], name="lp_law_p2.0")
        for r, p in zip(results, (1, 2, 2)):
            assert r.detail["slope"] == fit_lp_exponent(ts, norms[p])


class TestParticleLp:
    def test_norm_of_uniform_partition(self):
        # f = 2 on a partition of total volume 0.5
        n = 10
        ens = Ensemble(0.0, 1, 1.0, 1.0, np.zeros((n, 1)), np.zeros((n, 1)),
                       np.full(n, 0.1), np.full(n, 2.0), np.full(n, 0.05),
                       initial_support_bound=1.0)
        assert particle_lp_norm(ens, 1) == pytest.approx(1.0)
        assert particle_lp_norm(ens, 2) == pytest.approx(np.sqrt(2.0))

    def test_norm_is_finite_where_f_to_the_p_overflows(self):
        # f = 2**300 on two cells of volume 2**-300: f**4 overflows, the
        # norm (2 * 2**-300 * 2**1200)**(1/4) = 2**225.25 does not
        ens = Ensemble(0.0, 1, 1.0, 1.0, np.zeros((2, 1)), np.zeros((2, 1)),
                       np.ones(2), np.full(2, 2.0 ** 300), np.full(2, 2.0 ** -300),
                       initial_support_bound=1.0)
        assert particle_lp_norm(ens, 2) == pytest.approx(2.0 ** 150.5, rel=1e-15)
        assert particle_lp_norm(ens, 4) == pytest.approx(2.0 ** 225.25, rel=1e-15)

    def test_linear_trajectory_saturates_equality(self):
        ens = make_ensemble(n=30, seed=2)
        res = run_linear(ens, lambda t, X: np.zeros_like(X), T=1.0, dt=0.1)
        p_list = [1.0, 2.0, 4.0]
        norms = {p: [particle_lp_norm(s, p) for s in res.snapshots] for p in p_list}
        results = check_particle_lp_inequality(times(res.snapshots), norms, p_list,
                                               ens.lam, ens.dim)
        assert all(r.passed for r in results)
        # the reconstructed norms track the equality law, so the measured
        # slack is at rounding level rather than merely non-positive
        assert all(abs(r.value) < 1e-12 for r in results)
        # ||f(1)||_2 one percent above e^{lam*d*(p-1)/p} ||f0||_2 fails
        [bad] = check_particle_lp_inequality([0.0, 1.0], {2: [1.0, 1.01 * np.exp(0.5)]},
                                             [2], lam=1.0, d=1)
        assert bad.name == "lp_inequality_p2" and not bad.passed
        assert bad.value == pytest.approx(0.01, rel=1e-12)


class TestPushforward:
    def test_sum_of_ones_is_mass(self):
        ens = make_ensemble()
        got = pushforward_sum(ens, lambda x, v: np.ones(len(x)))
        assert got == pytest.approx(ens.total_mass, rel=1e-14)

    def test_matched_moments_pass(self):
        ens = make_ensemble()
        g = PhaseGrid.from_function(lambda x, v: np.ones_like(x), 0, 1, 50, 1, 50, 1.0)
        phis = [("one", lambda x, v: np.ones(len(x)), lambda x, v: np.ones_like(x))]
        # particle mass differs from grid mass here, so expect a fail at
        # tight tolerance and a pass at a huge one
        tight = check_pushforward(ens, g, phis, rel_tol=1e-12)
        loose = check_pushforward(ens, g, phis, rel_tol=10.0)
        assert not tight[0].passed
        assert loose[0].passed


class TestOrderParameters:
    def test_flocked_ensemble_zero_variance(self):
        n = 5
        ens = Ensemble(0.0, 2, 1.0, 1.0, np.random.default_rng(3).normal(size=(n, 2)),
                       np.tile([1.0, 2.0], (n, 1)), np.full(n, 0.2), np.ones(n),
                       np.full(n, 0.2), initial_support_bound=3.0)
        var, vdiam, xdiam = flocking_metrics(ens)
        assert var == 0.0 and vdiam == 0.0 and xdiam > 0.0

    def test_agent_state_two_points(self):
        state = AgentState(0.0, 1, np.array([[0.0], [3.0]]), np.array([[1.0], [-1.0]]))
        var, vdiam, xdiam = flocking_metrics(state)
        assert var == pytest.approx(1.0)
        assert vdiam == pytest.approx(2.0)
        assert xdiam == pytest.approx(3.0)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 6, 7, 8, 19])
    def test_diameter_matches_broadcast_formula_bit_for_bit(self, dim, n):
        def broadcast_diameter(pts, chunk):
            best = 0.0
            for a in range(0, len(pts), chunk):
                pa = pts[a:a + chunk]
                d2 = ((pa[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
                best = max(best, float(d2.max()))
            return float(np.sqrt(best))

        rng = np.random.default_rng(10 * dim + n)
        scales = 10.0 ** rng.integers(-6, 7, dim)
        pts = rng.standard_normal((n, dim)) * scales
        ends = np.concatenate([pts.argmin(axis=0), pts.argmax(axis=0)])
        clouds = [
            pts,
            np.repeat(pts[:1], n, axis=0),  # all points equal
            np.vstack([pts, pts[ends], pts[ends]]),  # duplicated extremes
            pts * 1e-150,  # d2 near the bottom of the normal range
            pts * 1e-160,  # d2 subnormal
            pts * 1e160,  # d2 overflows to inf
        ]
        angle = rng.uniform(0, 2 * np.pi, n)
        if dim == 1:
            # the 1/6-spaced tensor-grid nodes of kinetic_dense_1d, n copies each
            clouds.append(np.repeat(-2.0 + (np.arange(24) + 0.5) / 6.0, n)[:, None])
        elif dim == 2:  # a circle prunes nothing; collinear points
            clouds.append(np.column_stack([np.cos(angle), np.sin(angle)]))
            clouds.append(np.outer(rng.uniform(-3, 3, n), [0.6, -0.8]) + [1.0, 2.0])
        else:  # a sphere prunes nothing
            z = rng.uniform(-1, 1, n)
            rho = np.sqrt(1 - z * z)
            clouds.append(np.column_stack([rho * np.cos(angle), rho * np.sin(angle), z]))
        with np.errstate(over="ignore", under="ignore"):
            for cloud in clouds:
                for chunk in (7, 512):  # n below, equal to and above the chunk
                    assert _diameter(cloud, chunk) == broadcast_diameter(cloud, chunk)
            assert _diameter(pts * 1e160, 512) == (np.inf if n > 1 else 0.0)

    def test_diameter_keeps_only_the_extremes_in_1d(self, monkeypatch):
        # 1D: only the two extreme values can reach a longest pair, so the
        # pair scan sees them alone (a 20000-point scan would take seconds)
        scanned = []

        def counting_max_d2(pa, pts, max_d2=diagnostics._max_d2):
            scanned.append(len(pts))
            return max_d2(pa, pts)

        monkeypatch.setattr(diagnostics, "_max_d2", counting_max_d2)
        pts = np.random.default_rng(3).standard_normal((20000, 1))
        assert _diameter(pts) == pts.max() - pts.min()
        assert scanned == [2, 2]  # the lower bound, then the scan


class TestMeanfieldDistance:
    def test_identical_clouds_zero(self):
        rng = np.random.default_rng(5)
        n = 50
        x = rng.uniform(0, 1, (n, 1))
        v = rng.normal(size=(n, 1))
        agents = AgentState(0.0, 1, x, v)
        ens = Ensemble(0.0, 1, 1.0, 0.3, x, v, np.full(n, 1.0 / n), np.ones(n),
                       np.full(n, 1.0 / n), initial_support_bound=10.0)
        probes = np.linspace(0, 1, 9)[:, None]
        assert meanfield_distance(agents, ens, probes, 0.3) == pytest.approx(0.0, abs=1e-15)

    def test_normalization_ignores_total_mass(self):
        rng = np.random.default_rng(6)
        n = 50
        x = rng.uniform(0, 1, (n, 1))
        v = rng.normal(size=(n, 1))
        agents = AgentState(0.0, 1, x, v)
        heavy = Ensemble(0.0, 1, 1.0, 0.3, x, v, np.full(n, 7.0 / n), np.ones(n),
                         np.full(n, 7.0 / n), initial_support_bound=10.0)
        probes = np.linspace(0, 1, 9)[:, None]
        assert meanfield_distance(agents, heavy, probes, 0.3) == pytest.approx(0.0, abs=1e-14)

    def test_disjoint_clouds_positive(self):
        agents = AgentState(0.0, 1, np.zeros((10, 1)), np.ones((10, 1)))
        ens = Ensemble(0.0, 1, 1.0, 0.3, np.full((10, 1), 5.0), np.ones((10, 1)),
                       np.full(10, 0.1), np.ones(10), np.full(10, 0.1),
                       initial_support_bound=10.0)
        d = meanfield_distance(agents, ens, [[0.0], [5.0]], 0.3)
        assert d > 0.5


def test_report_aggregation():
    report = DiagnosticsReport(metadata={"mode": "test"})
    report.add_check(check_mass(masses([make_ensemble(), make_ensemble()])))
    assert report.all_passed
    d = report.to_dict()
    assert d["metadata"]["mode"] == "test"
    assert d["assertions"][0]["name"] == "mass_conservation"
    report.add_check(check_support([make_ensemble().max_speed], m0=0.0))
    assert not report.all_passed
