"""Acceptance suite: one test per shipped guarantee, each printing a
single [PASS]/[FAIL] line with the measured value.

The criteria exercise the bundled scenarios end to end and hold the
solvers to the analytic laws at fixed tolerances; expensive trajectories
are shared through module-scoped fixtures.
"""

import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from conftest import VERDICTS

import kinflock
from kinflock.cli import main
from kinflock.config import load_config
from kinflock.diagnostics import (check_density_growth, check_lp_law,
                                  check_mass, check_oracle_sup, check_support,
                                  check_volume_law, flocking_metrics)
from kinflock.fixed_point import FieldGrid, apply_F, picard_solve
from kinflock.kinetic import (InitialDistributionSpec, mean_field, run_linear,
                              run_self_consistent, sample_initial)
from kinflock.oracle import PhaseGrid, oracle_lp_norm, run_oracle
from kinflock.phase import AgentState, Ensemble, exact_step, march
from kinflock.runner import initial_spec_from_config
from measures import law_deviations, meanfield_distance, pushforward_sum, quadrature_pushforward


def _verdict(num, desc, ok, value):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {desc} ({value})"
    VERDICTS.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def _agent_step(state, dt, lam, r):
    """The state after one agent step as `kinflock run` takes it: toward
    `mean_field` on unit masses at the agents."""
    x, v = state.positions, state.velocities
    ubar = mean_field(x, v, np.ones(len(x)), x, r)
    return AgentState(state.t + dt, state.dim, *exact_step(x, v, ubar, lam, dt))


def scenario(name):
    return load_config(str(resources.files("kinflock.scenarios").joinpath(name)))


PARTICLE_SCENARIOS = ("two_particle_symmetric.json", "kinetic_two_bump.json")


@pytest.fixture(scope="module")
def particle_runs():
    """Self-consistent runs of the bundled particle scenarios, extended to
    10^3 steps at the scenario time step."""
    runs = {}
    for name in PARTICLE_SCENARIOS:
        cfg = scenario(name)
        rng = cfg.seed_streams()[0]
        ens0 = sample_initial(initial_spec_from_config(cfg), cfg["lam"],
                              cfg["radius"], rng=rng)
        dt = cfg["dt"]
        res = run_self_consistent(ens0, 1000 * dt, dt, cfg["delta"],
                                  snapshot_stride=50)
        runs[name] = (cfg, ens0, res.snapshots)
    return runs


def oracle_scenario_run(n):
    cfg = scenario("oracle_l2.json")
    oc = cfg["oracle"]
    spec = initial_spec_from_config(cfg)
    f0 = lambda X, V: spec.density(
        np.column_stack([X.ravel()]), np.column_stack([V.ravel()])
    ).reshape(X.shape)
    grid0 = PhaseGrid.from_function(f0, oc["x_min"], oc["x_max"], n,
                                    oc["v_max"], n, cfg["lam"])
    snaps, _ = run_oracle(grid0, lambda x: 0 * x, cfg["t_final"], cfg["dt"])
    return cfg, snaps


@pytest.fixture(scope="module")
def oracle_runs():
    return {n: oracle_scenario_run(n) for n in (128, 256)}


def test_criterion_1_mass_conservation(particle_runs, oracle_runs):
    worst_particle = 0.0
    for name, (cfg, ens0, snaps) in particle_runs.items():
        masses = [s.total_mass for s in snaps]
        worst_particle = max(worst_particle, check_mass(masses, tol=1e-12).value)
    drift_128 = check_mass([g.total_mass() for g in oracle_runs[128][1]], tol=1e-3).value
    drift_256 = check_mass([g.total_mass() for g in oracle_runs[256][1]], tol=2.5e-4).value
    ok = worst_particle <= 1e-12 and drift_128 <= 1e-3 and drift_256 <= 2.5e-4
    _verdict(1, "mass conservation, particle <= 1e-12 / oracle <= 1e-3 (128^2), "
             "2.5e-4 (256^2)", ok,
             f"particle={worst_particle:.3g} oracle={drift_128:.3g}/{drift_256:.3g}")


def test_criterion_2_velocity_support_bound():
    worst = -np.inf
    ok = True
    for name in PARTICLE_SCENARIOS:
        cfg = scenario(name)
        rng = cfg.seed_streams()[0]
        ens0 = sample_initial(initial_spec_from_config(cfg), cfg["lam"],
                              cfg["radius"], rng=rng)
        assert cfg["lam"] * cfg["dt"] <= 1.0
        for delta in (0.0, 1e-3, 1e-1):
            res = run_self_consistent(ens0, cfg["t_final"], cfg["dt"], delta)
            check = check_support([s.max_speed for s in res.snapshots],
                                  ens0.initial_support_bound, tol=1e-9)
            ok = ok and check.passed
            worst = max(worst, check.value - ens0.initial_support_bound)
    _verdict(2, "max_t M(t) <= M0 + 1e-9 for delta in {0, 1e-3, 1e-1}", ok,
             f"worst excess={worst:.3g}")


def test_criterion_3_lp_growth_law(oracle_runs):
    details = []
    ok = True
    for n, rel_tol in ((128, 0.05), (256, 0.02)):
        cfg, snaps = oracle_runs[n]
        p_list = [1.0, 2.0, 4.0]
        norms = {p: [oracle_lp_norm(g, p) for g in snaps] for p in p_list}
        checks = check_lp_law([g.t for g in snaps], norms, p_list, lam=cfg["lam"], d=1,
                              rel_tol=rel_tol, abs_tol=1e-3)
        ok = ok and all(c.passed for c in checks)
        details.append(f"{n}^2: " + " ".join(
            f"p{c.detail['target'] and int(1 / (1 - c.detail['target'])) or 1}="
            f"{c.detail['slope']:.4f}" for c in checks))
    _verdict(3, "L^p exponents within 5% (128^2) / 2% (256^2) of {0, 0.5, 0.75}",
             ok, "; ".join(details))


def test_criterion_4_sup_bound(particle_runs, oracle_runs):
    oracle_excess = max(check_oracle_sup([g.t for g in snaps],
                                         [float(g.values.max()) for g in snaps],
                                         cfg["lam"], tol=1e-9).value
                        for cfg, snaps in oracle_runs.values())
    particle_err = max(check_density_growth(law_deviations(snaps)[0], tol=1e-12).value
                       for _, _, snaps in particle_runs.values())
    ok = oracle_excess <= 1e-9 and particle_err <= 1e-12
    _verdict(4, "sup f(t) <= ||f0||_inf e^{lam t}: oracle 1e-9, particle "
             "identity 1e-12", ok,
             f"oracle excess={oracle_excess:.3g} particle={particle_err:.3g}")


def test_criterion_5_jacobian_volume_law(particle_runs):
    vol_err = max(check_volume_law(law_deviations(snaps)[1], tol=1e-12).value
                  for _, _, snaps in particle_runs.values())

    # independent finite-difference check on a smooth field
    lam, t_end, dt, h = 1.3, 0.2, 1e-5, 1e-5
    field = lambda t, X: 0.3 * np.sin(X)
    pts = np.random.default_rng(0).uniform(-1, 1, (5, 2))
    stencil = []
    for x, v in pts:
        stencil += [(x + h, v), (x - h, v), (x, v + h), (x, v - h)]
    stencil = np.array(stencil)
    m = len(stencil)
    ens = Ensemble(0.0, 1, lam, 1.0, stencil[:, :1].copy(), stencil[:, 1:].copy(),
                   np.full(m, 1.0 / m), np.ones(m), np.full(m, 1.0 / m),
                   initial_support_bound=10.0)
    ens = run_linear(ens, field, t_end, dt, snapshot_stride=10 ** 9).snapshots[-1]
    X, V = ens.x[:, 0], ens.v[:, 0]
    want = np.exp(-lam * t_end)
    fd_err = 0.0
    for k in range(5):
        i = 4 * k
        det = ((X[i] - X[i + 1]) * (V[i + 2] - V[i + 3])
               - (X[i + 2] - X[i + 3]) * (V[i] - V[i + 1])) / (2 * h) ** 2
        fd_err = max(fd_err, abs(det - want))
    ok = vol_err <= 1e-12 and fd_err <= 1e-6
    _verdict(5, "phase volume e^{-lam d t} to 1e-12; FD flow-map determinant "
             "within 1e-6", ok, f"volume={vol_err:.3g} fd={fd_err:.3g}")


def test_criterion_6_measure_preservation():
    lam, T = 1.0, 0.5
    field_p = lambda t, X: 0.2 * np.tanh(X)
    field_g = lambda x: 0.2 * np.tanh(x)

    def make_spec(n):
        return InitialDistributionSpec(
            kind="product_gaussian_truncated", dim=1,
            x_bounds=[[-2.0, 2.0]], v_bounds=[[-2.0, 2.0]], amplitude=1.0,
            x_centers=[[0.0]], v_centers=[[0.0]],
            x_sigma=0.5, v_sigma=0.5, sampling=("tensor_grid", n, n))

    spec0 = make_spec(8)
    f0 = lambda X, V: spec0.density(X.reshape(-1, 1), V.reshape(-1, 1)).reshape(X.shape)
    phis = [
        ("one", lambda x, v: np.ones(len(x)), lambda X, V: np.ones_like(X)),
        ("exp(-x^2)", lambda x, v: np.exp(-x[:, 0] ** 2), lambda X, V: np.exp(-X ** 2)),
        ("x*v", lambda x, v: x[:, 0] * v[:, 0], lambda X, V: X * V),
    ]
    errors = []
    for n_particle, n_grid, dt in ((32, 128, 0.1), (64, 256, 0.05)):
        ens = sample_initial(make_spec(n_particle), lam, 0.5)
        pend = run_linear(ens, field_p, T, dt).snapshots[-1]
        grid0 = PhaseGrid.from_function(f0, -3.5, 3.5, n_grid, 3.5, n_grid, lam)
        gend = run_oracle(grid0, field_g, T, dt)[0][-1]
        level = []
        for _, phi_p, phi_g in phis:
            a = pushforward_sum(pend, phi_p)
            b = quadrature_pushforward(gend, phi_g)
            level.append(abs(a - b) / max(abs(a), abs(b), 1e-12))
        errors.append(level)
    default, refined = errors
    ok = max(default) <= 0.02 and all(r <= d for r, d in zip(refined, default))
    _verdict(6, "pushforward vs quadrature within 2%, decreasing under "
             "refinement", ok,
             f"default={[f'{e:.4f}' for e in default]} "
             f"refined={[f'{e:.4f}' for e in refined]}")


def test_criterion_7_exact_frozen_field_step():
    lam, E_val = 2.0, 0.3
    v_exact = E_val + (-0.7 - E_val) * np.exp(-lam)
    x_exact = 0.2 + E_val + (-0.7 - E_val) * (1 - np.exp(-lam)) / lam
    field = lambda t, X: np.full_like(X, E_val)
    # agents: a coupled pair whose velocities sit symmetric about E, so that
    # its mean velocity, the field of both, is E at every step
    x0, v0 = np.array([[0.2], [0.3]]), np.array([[-0.7], [2 * E_val + 0.7]])
    v_pair = E_val + (v0 - E_val) * np.exp(-lam)
    x_pair = x0 + E_val + (v0 - E_val) * (1 - np.exp(-lam)) / lam
    worst = worst_agent = 0.0
    for dt in (1.0, 0.25, 0.05, 0.001):
        ens = Ensemble(0.0, 1, lam, 1.0, [[0.2]], [[-0.7]], [1.0], [1.0], [1.0],
                       initial_support_bound=1.0)
        ens = run_linear(ens, field, 1.0, dt, snapshot_stride=10 ** 9).snapshots[-1]
        worst = max(worst, abs(ens.v[0, 0] - v_exact), abs(ens.x[0, 0] - x_exact))
        pair = march(AgentState(0.0, 1, x0, v0),
                     lambda s, k, t: _agent_step(s, dt, lam, r=10.0),
                     1.0, dt, 10 ** 9)[0][-1]
        worst_agent = max(worst_agent, np.abs(pair.velocities - v_pair).max(),
                          np.abs(pair.positions - x_pair).max())
    _verdict(7, "constant-field trajectory of particles and of an agent pair "
             "with mean velocity E matches closed form to 1e-12 for all dt",
             max(worst, worst_agent) <= 1e-12,
             f"particles={worst:.3g} agents={worst_agent:.3g}")


def test_criterion_8_flocking_decay():
    lam = 1.0
    state = AgentState(0.0, 1, np.array([[0.0], [0.1]]), np.array([[1.0], [-1.0]]))
    for _ in range(10):
        state = _agent_step(state, 0.1, lam, r=10.0)
    diam_err = abs((state.velocities[0, 0] - state.velocities[1, 0])
                   - 2.0 * np.exp(-lam))

    cfg = scenario("agents_cluster.json")
    rng = cfg.seed_streams()[0]
    from kinflock.runner import sample_agents
    cluster, _ = sample_agents(cfg, rng)
    variances = [flocking_metrics(cluster.positions, cluster.velocities)[0]]
    for _ in range(int(round(cfg["t_final"] / cfg["dt"]))):
        cluster = _agent_step(cluster, cfg["dt"], cfg["lam"], cfg["radius"])
        variances.append(flocking_metrics(cluster.positions, cluster.velocities)[0])
    monotone = all(b <= a + 1e-14 for a, b in zip(variances, variances[1:]))
    ok = diam_err <= 1e-9 and monotone
    _verdict(8, "pair diameter e^{-lam} within 1e-9; cluster velocity "
             "variance monotone", ok,
             f"diam_err={diam_err:.3g} variance {variances[0]:.3g}->"
             f"{variances[-1]:.3g} monotone={monotone}")


def test_criterion_9_fixed_point_bound_and_continuity():
    cfg = scenario("picard_small.json")
    rng = cfg.seed_streams()[0]
    ens0 = sample_initial(initial_spec_from_config(cfg), cfg["lam"],
                          cfg["radius"], rng=rng)
    m0 = ens0.initial_support_bound
    pc = cfg["picard"]
    res = picard_solve(ens0, cfg["radius"], cfg["delta"],
                       cfg["t_final"], pc["n_time_nodes"], pc["n_space_nodes"],
                       pc["tol"], pc["max_iter"])
    # picard_solve raises if any iterate exceeds M0; re-check the final field
    sup = res.field.sup_norm()
    bound_ok = res.converged and sup <= m0 + 1e-12

    # continuity probe: ||F[E] - F[E']||_inf shrinks with the perturbation
    E = res.field
    noise = np.random.default_rng(1).uniform(-1.0, 1.0, E.values.shape)
    gaps = []
    for eps in (1e-1, 1e-2, 1e-3):
        pert = np.clip(E.values + eps * noise, -m0 / np.sqrt(E.dim),
                       m0 / np.sqrt(E.dim))
        Ep = E.copy_with_values(pert)
        FA = apply_F(E, ens0, cfg["radius"], cfg["delta"])
        FB = apply_F(Ep, ens0, cfg["radius"], cfg["delta"])
        gaps.append(float(np.sqrt(((FA.values - FB.values) ** 2).sum(axis=-1)).max()))
    monotone = gaps[0] >= gaps[1] >= gaps[2]
    ok = bound_ok and monotone
    _verdict(9, "Picard iterates <= M0 + 1e-12; map continuity monotone in "
             "perturbation", ok, f"sup={sup:.3g} M0={m0:.3g} gaps="
             f"{[f'{g:.2e}' for g in gaps]}")


def test_criterion_10_cross_solver_consistency():
    cfg = scenario("picard_small.json")
    rng = cfg.seed_streams()[0]
    ens0 = sample_initial(initial_spec_from_config(cfg), cfg["lam"],
                          cfg["radius"], rng=rng)
    pc = cfg["picard"]
    res = picard_solve(ens0, cfg["radius"], cfg["delta"],
                       cfg["t_final"], pc["n_time_nodes"], pc["n_space_nodes"],
                       pc["tol"], pc["max_iter"])
    assert res.converged
    field = res.field
    lin = run_linear(ens0, lambda t, X: field.evaluate(t, X),
                     cfg["t_final"], cfg["dt"])
    sc = run_self_consistent(ens0, cfg["t_final"], cfg["dt"], cfg["delta"])
    a, b = lin.snapshots[-1], sc.snapshots[-1]
    err = max(float(np.abs(a.x - b.x).max()), float(np.abs(a.v - b.v).max()))
    from kinflock.fixed_point import lipschitz_modulus
    kx, kt = lipschitz_modulus(field, 200, np.random.default_rng(0))
    disc = kx * (field.axes[0][1] - field.axes[0][0]) + kt * (field.times[1] - field.times[0])
    tol = 2.0 * (pc["tol"] + disc)
    _verdict(10, "Picard field drives the particle solver to the "
             "self-consistent run within 2x(tol + disc)", err <= tol,
             f"err={err:.3g} tol={tol:.3g}")


def test_criterion_11_meanfield_trend():
    lam, r, T, dt = 1.0, 0.5, 0.3, 0.05

    def make_spec(sampling):
        return InitialDistributionSpec(
            kind="two_bump", dim=1, x_bounds=[[-2.0, 2.0]], v_bounds=[[-1.0, 1.0]],
            amplitude=1.0, x_centers=[[-0.7], [0.7]], v_centers=[[0.4], [-0.4]],
            x_sigma=0.3, v_sigma=0.2, sampling=sampling)

    ref = run_self_consistent(sample_initial(make_spec(("tensor_grid", 48, 48)),
                                             lam, r), T, dt, delta=0.0).snapshots[-1]
    probes = np.linspace(-2.2, 2.2, 23)[:, None]
    sizes = (500, 1000, 2000, 4000)
    dists = {n: [] for n in sizes}
    for seed in range(5):
        # nested samples: each N-agent cloud is a prefix of the largest
        # draw, so shrinking Monte Carlo error dominates seed-to-seed noise
        full = sample_initial(make_spec(("monte_carlo", max(sizes))),
                              lam, r, rng=np.random.default_rng(seed))
        for n in sizes:
            st = AgentState(0.0, 1, full.x[:n], full.v[:n])
            for _ in range(int(round(T / dt))):
                st = _agent_step(st, dt, lam, r)
            dists[n].append(meanfield_distance(st, ref, probes, r))
    medians = [float(np.median(dists[n])) for n in sizes]
    ok = all(b <= a for a, b in zip(medians, medians[1:]))
    _verdict(11, "median empirical-vs-kinetic moment distance non-increasing "
             "in N", ok, f"medians={[f'{m:.4f}' for m in medians]}")


def test_criterion_12_determinism_across_threads(tmp_path):
    name = "kinetic_two_bump.json"
    outs = []
    for threads in (1, 8):
        out = tmp_path / f"t{threads}"
        code = main(["run", "--config",
                     str(resources.files("kinflock.scenarios").joinpath(name)),
                     "--out", str(out), "--threads", str(threads)])
        assert code == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    identical = names == sorted(p.name for p in outs[1].iterdir()) and all(
        (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in names)
    _verdict(12, "identical config+seed at --threads 1 vs 8 give byte-equal "
             "outputs", identical, f"files={names}")


def test_cutoff_agents_identical_across_blas_threads(tmp_path):
    # 2D cut-off neighbour sums are BLAS products of exact integers, so the
    # BLAS thread count can change no output byte
    config = resources.files("kinflock.scenarios").joinpath("agents_cluster.json")
    src = str(Path(kinflock.__file__).parents[1])
    trees = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "kinflock.cli", "run", "--config", str(config),
                        "--out", str(out)], env=env, check=True, capture_output=True)
        trees.append({p.relative_to(out): p.read_bytes()
                      for p in sorted(out.rglob("*")) if p.is_file()})
    assert trees[0] and trees[0] == trees[1]
