import json
import tracemalloc

import numpy as np
import pytest

from kinflock import agents
from kinflock.agents import alignment_field
from kinflock.cli import main
from kinflock.phase import AgentState, exact_step, march
from kinflock.spatial import brute_force_radius


def make_state(x, v, dim=1):
    return AgentState(0.0, dim, np.asarray(x, float), np.asarray(v, float))


def acceleration(state, model="cutoff_cs", r=1.0, lam=1.0):
    """rate*(ubar - v), the frozen-field acceleration of the model: what
    each agent relaxes toward and how fast, as `kinflock run` steps it."""
    ubar, rate = alignment_field(state.positions, state.velocities, lam, r, model)
    return rate * (ubar - state.velocities)


def step(state, dt, model="cutoff_cs", r=1.0, lam=1.0):
    """The state after one agent step as `kinflock run` takes it."""
    x, v = state.positions, state.velocities
    ubar, rate = alignment_field(x, v, lam, r, model)
    return AgentState(state.t + dt, state.dim, *exact_step(x, v, ubar, rate, dt))


class TestMeanFieldRhs:
    """The cs model: the strict cut-off normalized by the number of agents."""

    def test_equal_velocities_no_acceleration(self):
        state = make_state([[0.0], [1.0], [2.0]], [[0.5], [0.5], [0.5]])
        assert np.all(acceleration(state, "cs", r=1.5) == 0.0)

    def test_two_body_example(self):
        state = make_state([[0.0], [0.5]], [[0.0], [2.0]])
        acc = acceleration(state, "cs", r=1.0)
        assert np.allclose(acc, [[1.0], [-1.0]], atol=1e-15)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(1)
        n, lam, r = 7, 0.8, 1.0
        x = rng.normal(size=(n, 2))
        v = rng.normal(size=(n, 2))
        acc = acceleration(AgentState(0.0, 2, x, v), "cs", r, lam)
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
        acc = acceleration(state, "cs", 0.5, 1.3)
        assert np.any(acc != 0.0)
        assert np.all(np.abs(acc.sum(axis=0)) <= 1e-13)

    def test_galilean_and_translation_equivariance(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, size=(20, 2))
        v = rng.normal(size=(20, 2))
        base = acceleration(AgentState(0.0, 2, x, v), "cs", 0.3)
        boosted = acceleration(AgentState(0.0, 2, x, v + np.array([3.0, -1.0])), "cs", 0.3)
        shifted = acceleration(AgentState(0.0, 2, x + np.array([5.0, 5.0]), v), "cs", 0.3)
        assert np.allclose(base, boosted, atol=1e-13)
        assert np.allclose(base, shifted, atol=1e-12)


class TestCutoffRhs:
    def test_far_pair_decoupled(self):
        state = make_state([[0.0], [10.0]], [[0.0], [2.0]])
        assert np.allclose(acceleration(state, r=1.0), 0.0)

    def test_close_pair(self):
        state = make_state([[0.0], [0.5]], [[0.0], [2.0]])
        acc = acceleration(state, r=1.0)
        assert np.allclose(acc, [[1.0], [-1.0]], atol=1e-15)

    def test_matches_brute_force_200_agents(self):
        rng = np.random.default_rng(4)
        n, lam, r = 200, 1.2, 0.2
        x = rng.uniform(0, 1, size=(n, 2))
        v = rng.normal(size=(n, 2))
        ubar, rate = alignment_field(x, v, lam, r, "cutoff_cs")
        assert rate == lam
        want = np.zeros((n, 2))
        for i in range(n):
            nbr = np.nonzero(((x - x[i]) ** 2).sum(axis=1) < r * r)[0]
            want[i] = v[nbr].mean(axis=0)
        assert np.allclose(ubar, want, atol=1e-14)

    def test_equivariances(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 1, size=(20, 2))
        v = rng.normal(size=(20, 2))
        base = acceleration(AgentState(0.0, 2, x, v), r=0.3)
        boosted = acceleration(AgentState(0.0, 2, x, v + 2.0), r=0.3)
        shifted = acceleration(AgentState(0.0, 2, x + 7.0, v), r=0.3)
        assert np.allclose(base, boosted, atol=1e-13)
        assert np.allclose(base, shifted, atol=1e-12)


class TestMtRhs:
    def test_pair_in_one_ball_relaxes_to_its_mean(self):
        state = make_state([[0.0], [0.5]], [[0.0], [2.0]])
        acc = acceleration(state, "mt", r=1.0)
        assert np.allclose(acc, [[1.0], [-1.0]], atol=1e-15)

    def test_indicator_reduces_to_cutoff_when_all_close(self):
        # every agent lies in every ball, so each agent relaxes towards the
        # mean velocity of all of them
        rng = np.random.default_rng(6)
        x = rng.uniform(0, 0.1, size=(8, 2))
        v = rng.normal(size=(8, 2))
        state = AgentState(0.0, 2, x, v)
        assert np.allclose(acceleration(state, "mt", r=1.0), v.mean(axis=0) - v,
                           atol=1e-14)

    def test_separated_clusters_decouple(self):
        rng = np.random.default_rng(7)
        xa = rng.uniform(0, 0.1, size=(4, 1))
        xb = rng.uniform(50, 50.1, size=(3, 1))
        va = rng.normal(size=(4, 1))
        vb = rng.normal(size=(3, 1))
        joint = acceleration(AgentState(0.0, 1, np.vstack([xa, xb]), np.vstack([va, vb])), "mt")
        only_a = acceleration(AgentState(0.0, 1, xa, va), "mt")
        only_b = acceleration(AgentState(0.0, 1, xb, vb), "mt")
        assert np.allclose(joint[:4], only_a, atol=1e-14)
        assert np.allclose(joint[4:], only_b, atol=1e-14)


class TestIntegration:
    def test_free_streaming(self):
        # no agent has a neighbour but itself, so each keeps its velocity
        state = make_state([[0.0], [1.0]], [[1.0], [-1.0]])
        out = step(state, 0.25, r=0.5)
        assert out.t == 0.25
        assert np.array_equal(out.positions, [[0.25], [0.75]])
        assert np.array_equal(out.velocities, state.velocities)

    def test_exponential_scheme_exact_for_coupled_pair(self):
        # d(v1-v2)/dt = -lam (v1-v2) while the pair stays coupled
        state = make_state([[0.0], [0.1]], [[1.0], [-1.0]])
        for _ in range(10):
            state = step(state, 0.1, r=10.0)
        got = state.velocities[0, 0] - state.velocities[1, 0]
        assert got == pytest.approx(2.0 * np.exp(-1.0), abs=1e-13)

    @pytest.mark.parametrize("model", ["cutoff_cs", "cs"])
    def test_max_principle_at_large_lam_dt(self, model):
        # lam*dt = 2.5: every new velocity is still a convex combination of
        # the old ones, so no speed grows
        rng = np.random.default_rng(8)
        state = AgentState(0.0, 2, rng.uniform(0, 0.2, (30, 2)), rng.normal(size=(30, 2)))
        for _ in range(20):
            before = np.sqrt((state.velocities ** 2).sum(axis=1)).max()
            state = step(state, 2.5, model, r=0.1)
            after = np.sqrt((state.velocities ** 2).sum(axis=1)).max()
            assert after <= before + 1e-12

    @pytest.mark.parametrize("dt", [1.0, 0.25, 0.05])
    def test_cs_step_is_the_closed_form_at_rate_lam_N_i_over_N(self, dt):
        # a pair inside r and one agent far away (N = 3): the pair's mean
        # stays put and its relative velocity decays at rate lam*2/3
        lam, w0 = 1.5, 2.0
        state = make_state([[0.0], [0.1], [100.0]], [[1.0], [-1.0], [0.5]])
        snaps, _ = march(state, lambda s, k, t: step(s, dt, "cs", 10.0, lam), 2.0, dt, 1)
        for s in snaps:
            w = s.velocities[0, 0] - s.velocities[1, 0]
            assert abs(w - w0 * np.exp(-lam * (2 / 3) * s.t)) <= 1e-13
            assert s.velocities[2, 0] == 0.5


class TestIndicatorKernel:
    """cs and mt with the one kernel `indicator`: the strict cut-off,
    decided by the same test sum((x_j - x)**2) < r*r as every other path."""

    def test_pair_inside_the_ball_only_by_rounding_interacts(self):
        # |x_1 - x_0| rounds to r = 0.1 under sqrt, but its square is below r*r
        x = np.array([[0.8574042765875693, 0.033585575305464355],
                      [0.844656200459909, -0.06559852904116659]])
        state = AgentState(0.0, 2, x, [[0.0, 0.0], [1.0, 0.0]])
        assert brute_force_radius(x, x[0], 0.1).tolist() == [0, 1]
        for model in ("cs", "mt"):
            acc = acceleration(state, model, r=0.1)
            assert acc.tolist() == [[0.5, 0.0], [-0.5, 0.0]]

    def test_mt_is_cutoff_cs_bit_for_bit(self):
        rng = np.random.default_rng(12)
        x, v = rng.uniform(0, 1, (300, 2)), rng.normal(size=(300, 2))
        ubar, rate = alignment_field(x, v, 0.7, 0.15, "mt")
        want_ubar, want_rate = alignment_field(x, v, 0.7, 0.15, "cutoff_cs")
        assert np.array_equal(ubar, want_ubar) and rate == want_rate

    def test_cs_matches_double_loop(self):
        rng = np.random.default_rng(13)
        n, lam, r = 150, 1.3, 0.2
        x = rng.uniform(0, 1, size=(n, 2))
        v = rng.normal(size=(n, 2))
        acc = acceleration(AgentState(0.0, 2, x, v), "cs", r, lam)
        want = np.zeros((n, 2))
        for i in range(n):
            nbr = brute_force_radius(x, x[i], r)
            want[i] = lam / n * (v[nbr] - v[i]).sum(axis=0)
        assert np.allclose(acc, want, atol=1e-15)

    def test_cs_memory_does_not_grow_with_n_squared(self):
        # dense (N, N, d) temporaries would take over 400 MB here
        rng = np.random.default_rng(14)
        state = AgentState(0.0, 2, rng.uniform(0, 1, (3000, 2)), rng.normal(size=(3000, 2)))
        tracemalloc.start()
        try:
            acceleration(state, "cs", r=0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6


@pytest.mark.parametrize("model", ["cs", "cutoff_cs"])
def test_each_step_of_a_run_makes_one_neighbourhood_sum(tmp_path, monkeypatch, model):
    calls = []
    sums = agents.neighborhood_sums
    monkeypatch.setattr(agents, "neighborhood_sums", lambda *a: calls.append(1) or sums(*a))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "mode": "agents", "model": model, "dim": 2, "lam": 1.0, "radius": 0.3,
        "dt": 0.05, "t_final": 0.35, "n_agents": 40,
        "initial": {"kind": "box_indicator", "x_bounds": [[0.0, 1.0]] * 2,
                    "v_bounds": [[-1.0, 1.0]] * 2}}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 7
