import json
import tracemalloc
from importlib import resources

import numpy as np
import pytest

from kinflock import kinetic, runner
from kinflock.cli import main
from kinflock.config import validate_config
from kinflock.io import write_particle_snapshots
from kinflock.kinetic import mean_field, run_self_consistent
from kinflock.phase import Ensemble, exact_step, march
from measures import brute_force_radius


def make_state(x, v, dim=1):
    """Agents at x with velocities v: unit masses with no density."""
    return Ensemble(0.0, dim, 1.0, 1.0, x, v, np.ones(len(x)))


def mean_velocity(x, v, r):
    """Each agent's mean neighbour velocity: `kinetic.mean_field` on unit
    masses with the agents as centres."""
    return mean_field(x, v, np.ones(len(x)), x, r)


def acceleration(state, r=1.0, lam=1.0):
    """lam*(ubar - v), the frozen-field acceleration of the cut-off model:
    what each agent relaxes toward and how fast, as `kinflock run` steps it."""
    return lam * (mean_velocity(state.x, state.v, r) - state.v)


def step(state, dt, r=1.0, lam=1.0):
    """The state after one agent step as `kinflock run` takes it."""
    x, v = state.x, state.v
    return state.stepped(state.t + dt, *exact_step(x, v, mean_velocity(x, v, r), lam, dt))


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
        n, r = 200, 0.2
        x = rng.uniform(0, 1, size=(n, 2))
        v = rng.normal(size=(n, 2))
        ubar = mean_velocity(x, v, r)
        want = np.zeros((n, 2))
        for i in range(n):
            nbr = np.nonzero(((x - x[i]) ** 2).sum(axis=1) < r * r)[0]
            want[i] = v[nbr].mean(axis=0)
        assert np.allclose(ubar, want, atol=1e-14)

    def test_equivariances(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 1, size=(20, 2))
        v = rng.normal(size=(20, 2))
        base = acceleration(make_state(x, v, 2), r=0.3)
        boosted = acceleration(make_state(x, v + 2.0, 2), r=0.3)
        shifted = acceleration(make_state(x + 7.0, v, 2), r=0.3)
        assert np.allclose(base, boosted, atol=1e-13)
        assert np.allclose(base, shifted, atol=1e-12)


class TestMtRhs:
    def test_pair_in_one_ball_relaxes_to_its_mean(self):
        state = make_state([[0.0], [0.5]], [[0.0], [2.0]])
        acc = acceleration(state, r=1.0)
        assert np.allclose(acc, [[1.0], [-1.0]], atol=1e-15)

    def test_indicator_reduces_to_cutoff_when_all_close(self):
        # every agent lies in every ball, so each agent relaxes towards the
        # mean velocity of all of them
        rng = np.random.default_rng(6)
        x = rng.uniform(0, 0.1, size=(8, 2))
        v = rng.normal(size=(8, 2))
        state = make_state(x, v, 2)
        assert np.allclose(acceleration(state, r=1.0), v.mean(axis=0) - v, atol=1e-14)

    def test_separated_clusters_decouple(self):
        rng = np.random.default_rng(7)
        xa = rng.uniform(0, 0.1, size=(4, 1))
        xb = rng.uniform(50, 50.1, size=(3, 1))
        va = rng.normal(size=(4, 1))
        vb = rng.normal(size=(3, 1))
        joint = acceleration(make_state(np.vstack([xa, xb]), np.vstack([va, vb])))
        only_a = acceleration(make_state(xa, va))
        only_b = acceleration(make_state(xb, vb))
        assert np.allclose(joint[:4], only_a, atol=1e-14)
        assert np.allclose(joint[4:], only_b, atol=1e-14)


class TestIntegration:
    def test_free_streaming(self):
        # no agent has a neighbour but itself, so each keeps its velocity
        state = make_state([[0.0], [1.0]], [[1.0], [-1.0]])
        out = step(state, 0.25, r=0.5)
        assert out.t == 0.25
        assert np.array_equal(out.x, [[0.25], [0.75]])
        assert np.array_equal(out.v, state.v)

    def test_exponential_scheme_exact_for_coupled_pair(self):
        # d(v1-v2)/dt = -lam (v1-v2) while the pair stays coupled
        state = make_state([[0.0], [0.1]], [[1.0], [-1.0]])
        for _ in range(10):
            state = step(state, 0.1, r=10.0)
        got = state.v[0, 0] - state.v[1, 0]
        assert got == pytest.approx(2.0 * np.exp(-1.0), abs=1e-13)

    def test_max_principle_at_large_lam_dt(self):
        # lam*dt = 2.5: every new velocity is still a convex combination of
        # the old ones, so no speed grows
        rng = np.random.default_rng(8)
        state = make_state(rng.uniform(0, 0.2, (30, 2)), rng.normal(size=(30, 2)), 2)
        for _ in range(20):
            before = np.sqrt((state.v ** 2).sum(axis=1)).max()
            state = step(state, 2.5, r=0.1)
            after = np.sqrt((state.v ** 2).sum(axis=1)).max()
            assert after <= before + 1e-12

    @pytest.mark.parametrize("dt", [1.0, 0.25, 0.05])
    def test_step_is_the_closed_form_at_rate_lam(self, dt):
        # a pair inside r and one agent far away: the pair's mean stays put
        # and its relative velocity decays at rate lam, at any dt
        lam, w0 = 1.5, 2.0
        state = make_state([[0.0], [0.1], [100.0]], [[1.0], [-1.0], [0.5]])
        snaps, _ = march(state, lambda s, k, t: step(s, dt, 10.0, lam), 2.0, dt, 1)
        for s in snaps:
            w = s.v[0, 0] - s.v[1, 0]
            assert abs(w - w0 * np.exp(-lam * s.t)) <= 1e-13
            assert s.v[2, 0] == 0.5


class TestIndicatorKernel:
    """The one kernel `indicator`: the strict cut-off, decided by the same
    test sum((x_j - x)**2) < r*r as every other path."""

    def test_pair_inside_the_ball_only_by_rounding_interacts(self):
        # |x_1 - x_0| rounds to r = 0.1 under sqrt, but its square is below r*r
        x = np.array([[0.8574042765875693, 0.033585575305464355],
                      [0.844656200459909, -0.06559852904116659]])
        state = make_state(x, [[0.0, 0.0], [1.0, 0.0]], 2)
        assert brute_force_radius(x, x[0], 0.1).tolist() == [0, 1]
        assert acceleration(state, r=0.1).tolist() == [[0.5, 0.0], [-0.5, 0.0]]

    def test_mt_is_cutoff_cs_bit_for_bit(self, tmp_path, capsys):
        # `mt` names the same model: a run writes the same agents, byte for byte
        path = resources.files("kinflock.scenarios").joinpath("agents_cluster.json")
        data = json.loads(path.read_text())
        written = []
        for model in ("mt", "cutoff_cs"):
            cfg, out = tmp_path / f"{model}.json", tmp_path / model
            cfg.write_text(json.dumps(dict(data, model=model)))
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            written.append((out / "agents.csv").read_bytes())
        assert written[0] == written[1]

    def test_memory_does_not_grow_with_n_squared(self):
        # dense (N, N, d) temporaries would take over 400 MB here
        rng = np.random.default_rng(14)
        state = make_state(rng.uniform(0, 1, (3000, 2)), rng.normal(size=(3000, 2)), 2)
        tracemalloc.start()
        try:
            acceleration(state, r=0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6


@pytest.mark.parametrize("model", ["cutoff_cs", "mt"])
def test_each_step_of_a_run_makes_one_neighbourhood_sum(tmp_path, monkeypatch, model):
    calls = []
    sums = kinetic.neighborhood_sums
    monkeypatch.setattr(kinetic, "neighborhood_sums", lambda *a: calls.append(1) or sums(*a))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "mode": "agents", "model": model, "dim": 2, "lam": 1.0, "radius": 0.3,
        "dt": 0.05, "t_final": 0.35, "n_agents": 40,
        "initial": {"kind": "box_indicator", "x_bounds": [[0.0, 1.0]] * 2,
                    "v_bounds": [[-1.0, 1.0]] * 2}}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 7


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_an_agent_step_is_the_kinetic_step_on_unit_masses(tmp_path, dim):
    # the agents.csv of `kinflock run` in agents mode is run_self_consistent
    # on the unit masses `sample_agents` draws, at delta = 0, byte for byte;
    # and that step is the step of unit masses that carry unit density
    # values and volumes: both step toward the same mean_field
    n, lam, r, dt = 300, 1.3, 0.2, 0.05
    data = {"mode": "agents", "dim": dim, "lam": lam, "radius": r, "dt": dt, "t_final": dt,
            "n_agents": n, "initial": {"kind": "box_indicator",
                                       "x_bounds": [[0.0, 1.0]] * dim,
                                       "v_bounds": [[-1.0, 1.0]] * dim}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    cfg = validate_config(data)
    agents = runner.sample_agents(cfg, cfg.seed_streams()[0])
    assert agents.n == n and agents.density0 is None and np.all(agents.mass == 1.0)
    result = run_self_consistent(agents, dt, dt, delta=0.0)
    write_particle_snapshots(str(tmp_path / "kinetic.csv"), result.snapshots,
                             result.snapshot_steps)
    written = (tmp_path / "out" / "agents.csv").read_bytes()
    assert written == (tmp_path / "kinetic.csv").read_bytes()
    x, v, ones = agents.x, agents.v, np.ones(n)
    ens = Ensemble(0.0, dim, lam, r, x, v, ones, ones, ones,
                   initial_support_bound=agents.initial_support_bound)
    kin, moved = run_self_consistent(ens, dt, dt, delta=0.0).snapshots[-1], result.snapshots[-1]
    assert moved.t == kin.t == dt
    assert np.array_equal(moved.x, kin.x) and np.array_equal(moved.v, kin.v)
    assert not np.array_equal(kin.v, v)  # the step moved the velocities


def _agents_cluster(tmp_path, name, change):
    """`kinflock run` of agents_cluster with `change` applied to its config:
    the exit code and the path of its agents.csv."""
    data = json.loads(resources.files("kinflock.scenarios")
                      .joinpath("agents_cluster.json").read_text())
    change(data)
    cfg, out = tmp_path / f"{name}.json", tmp_path / name
    cfg.write_text(json.dumps(data))
    return main(["run", "--config", str(cfg), "--out", str(out)]), out / "agents.csv"


def test_agents_have_no_horizon(tmp_path, capsys):
    # lam*dim*t = 1600 at t = 800 is far past the horizon e^{lam*dim*t}
    # gives particles with density, but unit masses carry none
    code, csv = _agents_cluster(tmp_path, "long", lambda d: d.update(dt=1, t_final=800))
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    rows = csv.read_text().splitlines()
    assert captured.out.splitlines()[-1].startswith("[PASS] agent_speed_max_principle")
    assert rows[0] == "step,t,id,x0,x1,v0,v1"
    assert {row.split(",")[0] for row in rows[1:]} >= {"0", "800"}


def test_fast_and_absent_agents_run(tmp_path, capsys):
    def fast(d):
        d["initial"].update(v_bounds=[[-1e12, 1e12]] * 2, v_sigma=5e11)
        d["diagnostics"] = {"support_tol": 1e6}

    code, csv = _agents_cluster(tmp_path, "fast", fast)
    assert code == 0 and len(csv.read_text().splitlines()) == 1 + 100 * 11
    assert capsys.readouterr().out.splitlines()[-1].startswith("[PASS] ")
    code, csv = _agents_cluster(tmp_path, "none", lambda d: d.update(n_agents=0))
    assert code == 0 and csv.read_text() == "step,t,id,x0,x1,v0,v1\n"
