import tracemalloc

import numpy as np
import pytest

from kinflock.agents import cutoff_cs_rhs, integrate_agents, vicsek_step
from kinflock.config import validate_config
from kinflock.errors import IntegrationBlowupError, InvalidInputError
from kinflock.phase import AgentState, HeadingState
from kinflock.runner import agent_rhs
from kinflock.spatial import brute_force_radius


def make_state(x, v, dim=1):
    return AgentState(0.0, dim, np.asarray(x, float), np.asarray(v, float))


def configured_rhs(model, r=1.0, lam=1.0, dim=2):
    """The right-hand side that `kinflock run` uses for an agents config."""
    return agent_rhs(validate_config({
        "mode": "agents", "model": model, "dim": dim, "lam": lam, "radius": r,
        "dt": 0.1, "t_final": 0.1,
        "initial": {"kind": "box_indicator", "x_bounds": [[0.0, 1.0]] * dim,
                    "v_bounds": [[-1.0, 1.0]] * dim}}))


class TestVicsek:
    def test_shared_heading_is_fixed_point(self):
        rng = np.random.default_rng(0)
        pos = rng.uniform(0, 1, size=(10, 2))
        state = HeadingState(0, pos, np.full(10, 0.7), speed=0.1)
        out = vicsek_step(state, r=2.0, noise_amplitude=0.0, rng=rng)
        assert np.allclose(out.headings, 0.7, atol=1e-12)

    def test_single_agent_advances(self):
        rng = np.random.default_rng(0)
        theta = 0.3
        state = HeadingState(0, np.zeros((1, 2)), np.array([theta]), speed=0.5)
        out = vicsek_step(state, r=1.0, noise_amplitude=0.0, rng=rng)
        assert out.headings[0] == pytest.approx(theta, abs=1e-14)
        assert out.positions[0, 0] == pytest.approx(0.5 * np.cos(theta), abs=1e-14)
        assert out.positions[0, 1] == pytest.approx(0.5 * np.sin(theta), abs=1e-14)

    def test_two_agents_average_to_quarter_pi(self):
        rng = np.random.default_rng(0)
        state = HeadingState(0, np.zeros((2, 2)), np.array([np.pi / 2, 0.0]), speed=0.1)
        out = vicsek_step(state, r=1.0, noise_amplitude=0.0, rng=rng)
        assert np.allclose(out.headings, np.pi / 4, atol=1e-14)

    def test_negative_noise_rejected(self):
        rng = np.random.default_rng(0)
        state = HeadingState(0, np.zeros((1, 2)), np.array([0.0]), speed=0.1)
        with pytest.raises(InvalidInputError):
            vicsek_step(state, r=1.0, noise_amplitude=-0.1, rng=rng)

    def test_degenerate_mean_keeps_heading(self):
        # two opposite headings sum to the zero vector
        rng = np.random.default_rng(0)
        state = HeadingState(0, np.zeros((2, 2)), np.array([0.0, np.pi]), speed=0.1)
        out = vicsek_step(state, r=1.0, noise_amplitude=0.0, rng=rng)
        assert np.allclose(out.headings, [0.0, np.pi], atol=1e-12)


class TestMeanFieldRhs:
    """The cs model: the strict cut-off normalized by the number of agents
    (local=False)."""

    def test_equal_velocities_no_acceleration(self):
        state = make_state([[0.0], [1.0], [2.0]], [[0.5], [0.5], [0.5]])
        assert np.all(cutoff_cs_rhs(state, 1.0, r=1.5, local=False) == 0.0)

    def test_two_body_example(self):
        state = make_state([[0.0], [0.5]], [[0.0], [2.0]])
        acc = configured_rhs("cs", r=1.0, dim=1)(state)
        assert np.allclose(acc, [[1.0], [-1.0]], atol=1e-15)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(1)
        n, lam, r = 7, 0.8, 1.0
        x = rng.normal(size=(n, 2))
        v = rng.normal(size=(n, 2))
        acc = cutoff_cs_rhs(AgentState(0.0, 2, x, v), lam, r, local=False)
        # brute-force double loop over the pairs strictly inside the radius
        want = np.zeros((n, 2))
        for i in range(n):
            for j in range(n):
                if ((x[j] - x[i]) ** 2).sum() < r * r:
                    want[i] += v[j] - v[i]
        want *= lam / n
        pairs = sum(len(brute_force_radius(x, c, r)) - 1 for c in x)
        assert 0 < pairs < n * (n - 1)  # some pairs interact, some do not
        assert np.allclose(acc, want, atol=1e-14)

    def test_momentum_conserved(self):
        # the neighbour relation is symmetric, so the pair terms cancel
        rng = np.random.default_rng(2)
        state = AgentState(0.0, 2, rng.normal(size=(60, 2)), rng.normal(size=(60, 2)))
        acc = cutoff_cs_rhs(state, 1.3, 0.5, local=False)
        assert np.any(acc != 0.0)
        assert np.all(np.abs(acc.sum(axis=0)) <= 1e-13)

    def test_galilean_and_translation_equivariance(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, size=(20, 2))
        v = rng.normal(size=(20, 2))
        base = cutoff_cs_rhs(AgentState(0.0, 2, x, v), 1.0, 0.3, local=False)
        boosted = cutoff_cs_rhs(AgentState(0.0, 2, x, v + np.array([3.0, -1.0])),
                                1.0, 0.3, local=False)
        shifted = cutoff_cs_rhs(AgentState(0.0, 2, x + np.array([5.0, 5.0]), v),
                                1.0, 0.3, local=False)
        assert np.allclose(base, boosted, atol=1e-13)
        assert np.allclose(base, shifted, atol=1e-12)


class TestCutoffRhs:
    def test_far_pair_decoupled(self):
        state = make_state([[0.0], [10.0]], [[0.0], [2.0]])
        assert np.allclose(cutoff_cs_rhs(state, 1.0, r=1.0), 0.0)

    def test_close_pair(self):
        state = make_state([[0.0], [0.5]], [[0.0], [2.0]])
        acc = cutoff_cs_rhs(state, 1.0, r=1.0)
        assert np.allclose(acc, [[1.0], [-1.0]], atol=1e-15)

    def test_matches_brute_force_200_agents(self):
        rng = np.random.default_rng(4)
        n, lam, r = 200, 1.2, 0.2
        x = rng.uniform(0, 1, size=(n, 2))
        v = rng.normal(size=(n, 2))
        state = AgentState(0.0, 2, x, v)
        acc = cutoff_cs_rhs(state, lam, r)
        want = np.zeros((n, 2))
        for i in range(n):
            nbr = np.nonzero(((x - x[i]) ** 2).sum(axis=1) < r * r)[0]
            want[i] = lam / len(nbr) * (v[nbr] - v[i]).sum(axis=0)
        assert np.allclose(acc, want, atol=1e-14)

    def test_equivariances(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 1, size=(20, 2))
        v = rng.normal(size=(20, 2))
        base = cutoff_cs_rhs(AgentState(0.0, 2, x, v), 1.0, 0.3)
        boosted = cutoff_cs_rhs(AgentState(0.0, 2, x, v + 2.0), 1.0, 0.3)
        shifted = cutoff_cs_rhs(AgentState(0.0, 2, x + 7.0, v), 1.0, 0.3)
        assert np.allclose(base, boosted, atol=1e-13)
        assert np.allclose(base, shifted, atol=1e-12)


class TestMtRhs:
    def test_pair_in_one_ball_relaxes_to_its_mean(self):
        state = make_state([[0.0], [0.5]], [[0.0], [2.0]])
        acc = configured_rhs("mt", r=1.0, dim=1)(state)
        assert np.allclose(acc, [[1.0], [-1.0]], atol=1e-15)

    def test_indicator_reduces_to_cutoff_when_all_close(self):
        # every agent lies in every ball, so each agent relaxes towards the
        # mean velocity of all of them
        rng = np.random.default_rng(6)
        x = rng.uniform(0, 0.1, size=(8, 2))
        v = rng.normal(size=(8, 2))
        state = AgentState(0.0, 2, x, v)
        assert np.allclose(configured_rhs("mt", r=1.0)(state), v.mean(axis=0) - v,
                           atol=1e-14)

    def test_separated_clusters_decouple(self):
        rng = np.random.default_rng(7)
        xa = rng.uniform(0, 0.1, size=(4, 1))
        xb = rng.uniform(50, 50.1, size=(3, 1))
        va = rng.normal(size=(4, 1))
        vb = rng.normal(size=(3, 1))
        rhs = configured_rhs("mt", r=1.0, dim=1)
        joint = rhs(AgentState(0.0, 1, np.vstack([xa, xb]), np.vstack([va, vb])))
        only_a = rhs(AgentState(0.0, 1, xa, va))
        only_b = rhs(AgentState(0.0, 1, xb, vb))
        assert np.allclose(joint[:4], only_a, atol=1e-14)
        assert np.allclose(joint[4:], only_b, atol=1e-14)


class TestIntegration:
    def test_free_streaming(self):
        state = make_state([[0.0], [1.0]], [[1.0], [-1.0]])
        out = integrate_agents(state, lambda s: np.zeros((2, 1)), 0.25, "explicit_euler")
        assert np.allclose(out.positions, [[0.25], [0.75]])
        assert np.allclose(out.velocities, state.velocities)

    def _relative_velocity_after(self, dt, scheme, t_end=1.0, lam=1.0):
        state = make_state([[0.0], [0.1]], [[1.0], [-1.0]])
        rhs = lambda s: cutoff_cs_rhs(s, lam, r=10.0)
        n = int(round(t_end / dt))
        for _ in range(n):
            state = integrate_agents(state, rhs, dt, scheme, lam=lam)
        return state.velocities[0, 0] - state.velocities[1, 0]

    def test_rk4_matches_exponential_decay(self):
        # d(v1-v2)/dt = -lam (v1-v2) while the pair stays coupled
        got = self._relative_velocity_after(1e-3, "rk4")
        assert got == pytest.approx(2.0 * np.exp(-1.0), abs=1e-9)

    def test_rk4_fourth_order(self):
        exact = 2.0 * np.exp(-1.0)
        err_coarse = abs(self._relative_velocity_after(0.05, "rk4") - exact)
        err_fine = abs(self._relative_velocity_after(0.025, "rk4") - exact)
        assert err_coarse / err_fine == pytest.approx(16.0, rel=0.3)

    def test_exponential_scheme_exact_for_coupled_pair(self):
        got = self._relative_velocity_after(0.1, "exponential")
        assert got == pytest.approx(2.0 * np.exp(-1.0), abs=1e-13)

    def test_euler_max_principle_under_cfl(self):
        rng = np.random.default_rng(8)
        state = AgentState(0.0, 2, rng.uniform(0, 0.2, (30, 2)), rng.normal(size=(30, 2)))
        lam, dt = 1.0, 0.5  # lam*dt <= 1
        rhs = lambda s: cutoff_cs_rhs(s, lam, r=5.0)
        for _ in range(20):
            before = np.sqrt((state.velocities ** 2).sum(axis=1)).max()
            state = integrate_agents(state, rhs, dt, "explicit_euler")
            after = np.sqrt((state.velocities ** 2).sum(axis=1)).max()
            assert after <= before + 1e-12

    def test_non_finite_step_raises_blowup(self):
        state = AgentState(0.25, 1, [[0.0], [1.0]], [[1.0], [0.0]])
        with pytest.raises(IntegrationBlowupError,
                           match=r"^non-finite state after step at t=0.25$"):
            integrate_agents(state, lambda s: np.full((s.n, s.dim), np.inf), 0.1,
                             "explicit_euler")

    def test_bad_dt_rejected(self):
        state = make_state([[0.0]], [[0.0]])
        with pytest.raises(InvalidInputError):
            integrate_agents(state, lambda s: np.zeros((1, 1)), 0.0, "rk4")


class TestIndicatorKernel:
    """cs and mt as configured, with the one kernel `indicator`: the strict
    cut-off, decided by the same test sum((x_j - x)**2) < r*r as every
    other path."""

    def test_pair_inside_the_ball_only_by_rounding_interacts(self):
        # |x_1 - x_0| rounds to r = 0.1 under sqrt, but its square is below r*r
        x = np.array([[0.8574042765875693, 0.033585575305464355],
                      [0.844656200459909, -0.06559852904116659]])
        state = AgentState(0.0, 2, x, [[0.0, 0.0], [1.0, 0.0]])
        assert brute_force_radius(x, x[0], 0.1).tolist() == [0, 1]
        for model in ("cs", "mt"):
            acc = configured_rhs(model, r=0.1)(state)
            assert acc.tolist() == [[0.5, 0.0], [-0.5, 0.0]]

    def test_mt_is_cutoff_cs_bit_for_bit(self):
        rng = np.random.default_rng(12)
        state = AgentState(0.0, 2, rng.uniform(0, 1, (300, 2)), rng.normal(size=(300, 2)))
        assert np.array_equal(configured_rhs("mt", r=0.15, lam=0.7)(state),
                              cutoff_cs_rhs(state, 0.7, 0.15))

    def test_cs_matches_double_loop(self):
        rng = np.random.default_rng(13)
        n, lam, r = 150, 1.3, 0.2
        x = rng.uniform(0, 1, size=(n, 2))
        v = rng.normal(size=(n, 2))
        acc = configured_rhs("cs", r=r, lam=lam)(AgentState(0.0, 2, x, v))
        want = np.zeros((n, 2))
        for i in range(n):
            nbr = brute_force_radius(x, x[i], r)
            want[i] = lam / n * (v[nbr] - v[i]).sum(axis=0)
        assert np.allclose(acc, want, atol=1e-15)

    def test_cs_memory_does_not_grow_with_n_squared(self):
        # dense (N, N, d) temporaries would take over 400 MB here
        rng = np.random.default_rng(14)
        state = AgentState(0.0, 2, rng.uniform(0, 1, (3000, 2)), rng.normal(size=(3000, 2)))
        rhs = configured_rhs("cs", r=0.05)
        tracemalloc.start()
        try:
            rhs(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6

