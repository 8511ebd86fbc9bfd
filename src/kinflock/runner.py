"""Scenario orchestration for the four run modes.

Each run writes into the output directory: the resolved configuration,
mode-specific snapshot/field CSVs, and the diagnostics report
(JSON + flat CSV).  Exit status: 0 if all enabled assertions pass,
1 otherwise; configuration and invariant errors are raised and mapped to
exit codes by the CLI.

A run loads only the code its mode executes: oracle and picard runs import
their solver module when they start, and the seed streams, with them
numpy.random, are created only by sampling that draws.  Agents are unit
masses that take the exact frozen-field step toward `kinetic.mean_field`,
so their speed check, like the kinetic support check, holds at any dt.
"""

from __future__ import annotations

import errno
import os

import numpy as np

from . import diagnostics as diag
from . import io as kio
from .config import ScenarioConfig
from .errors import ConfigError
from .kinetic import (InitialDistributionSpec, mean_field, rejection_sample, run_linear,
                      run_self_consistent, sample_initial)
from .phase import AgentState, exact_step, march


def initial_spec_from_config(cfg: ScenarioConfig) -> InitialDistributionSpec:
    ib = cfg["initial"]
    s = ib["sampling"]
    sampling = ((s["kind"], s["n_x"], s["n_v"]) if s["kind"] == "tensor_grid"
                else (s["kind"], s["n"]))
    xc, vc = ((None, None) if ib["kind"] == "box_indicator" else
              (ib["x_centers"], ib["v_centers"]))
    return InitialDistributionSpec(
        kind=ib["kind"], dim=cfg["dim"], x_bounds=ib["x_bounds"], v_bounds=ib["v_bounds"],
        amplitude=ib["amplitude"], sampling=sampling, x_centers=xc, v_centers=vc,
        x_sigma=ib["x_sigma"], v_sigma=ib["v_sigma"])


def oracle_field_from_config(cfg: ScenarioConfig):
    fc = cfg["oracle"]["field"]
    if fc["kind"] == "zero":
        return lambda x: np.zeros_like(np.asarray(x, float))
    if fc["kind"] == "constant":
        return lambda x: np.full_like(np.asarray(x, float), fc["value"])
    return lambda x: fc["amplitude"] * np.tanh(np.asarray(x, float) / fc["width"])


def drawable_spec(cfg: ScenarioConfig) -> InitialDistributionSpec:
    """The f0 of cfg, from which the run's particles or agents can be made:
    a config error, found without drawing, if f0 peaks past the largest
    double, or if the run draws agents or monte_carlo particles by
    `rejection_sample` and f0 has no mass or a zero peak to accept them."""
    spec = initial_spec_from_config(cfg)
    n, noun = ((cfg["n_agents"], "agents") if cfg["mode"] == "agents" else
               (spec.sampling[1], "particles") if spec.sampling[0] == "monte_carlo" else (0, ""))
    why = ("peaks past the largest double" if spec.peak == np.inf else
           "has zero mass" if n > 0 and not (spec.total_mass > 0 and spec.peak > 0) else None)
    if why:
        raise ConfigError(f"the initial distribution {why}"
                          + (f", so none of the {n} {noun} can be drawn" if n else ""))
    return spec


def sample_agents(cfg: ScenarioConfig, rng):
    """Draw agents from the initial phase-space density."""
    spec = drawable_spec(cfg)
    x, v = rejection_sample(spec, cfg["n_agents"], rng)
    return AgentState(0.0, cfg["dim"], x, v), spec


def _series(report, key):
    """The values of one record key over the snapshots of a run."""
    return [rec[key] for rec in report.records]


def sample_ensemble(cfg: ScenarioConfig):
    """The initial ensemble of a kinetic or Picard run; the seed streams
    are created only for monte_carlo sampling, the one kind that draws.
    A t_final past the ensemble's horizon rule is a configuration error
    here, before the first step."""
    spec = drawable_spec(cfg)
    rng = cfg.seed_streams()[0] if spec.sampling[0] == "monte_carlo" else None
    ens = sample_initial(spec, cfg["lam"], cfg["radius"], rng=rng)
    t_final, dt = cfg["t_final"], cfg["dt"]
    # the last step of `march`, or the last Picard time node t_final
    if not ens.reaches(max(t_final, round(t_final / dt) * dt)):
        raise ConfigError(
            f"config key t_final: {t_final!r} is past the horizon of this ensemble: "
            "e^(lam*dim*t) would take a density value past the largest double "
            "or a phase volume to 0")
    return ens


def run_kinetic(cfg: ScenarioConfig, out_dir):
    report = diag.DiagnosticsReport(metadata=_metadata(cfg, "kinetic"))
    ens0 = sample_ensemble(cfg)
    result = run_self_consistent(ens0, cfg["t_final"], cfg["dt"], cfg["delta"],
                                 snapshot_stride=cfg["snapshot_stride"])
    dcfg = cfg["diagnostics"]
    # beside the records, the series only the checks read: one L^p norm per
    # snapshot and distinct p, and each snapshot's deviation from the laws
    norms = {p: [] for p in dict.fromkeys((1, 2, *dcfg["lp_exponents"]))}
    growth, volume = [], []
    f0, vol0 = ens0.density_value, ens0.phase_volume
    sup0 = float(f0.max()) if ens0.n else 0.0
    for ens in result.snapshots:
        f, vol = ens.density_value, ens.phase_volume
        g = ens.lam * ens.dim * (ens.t - ens0.t)
        factor = np.exp(g)
        growth.append(diag.law_deviation(f, f0 * factor))
        volume.append(diag.law_deviation(vol, vol0 * np.exp(-g)))
        for p, series in norms.items():
            series.append(diag.particle_lp_norm(vol, f, p))
        var, vdiam, xdiam = diag.flocking_metrics(ens.x, ens.v, ens.mass)
        rec = {"t": ens.t, "total_mass": ens.total_mass, "support_radius": ens.max_speed,
               "velocity_variance": var, "velocity_diameter": vdiam,
               "spatial_diameter": xdiam}
        if sup0 > 0:  # ens0.t = 0: factor is e^{lam*d*t}
            rec["max_density_bound_ratio"] = float(f.max()) / (sup0 * factor)
        report.records.append(rec | {f"lp_norm_p{p}": norms[p][-1] for p in (1, 2)})
    if dcfg["enabled"]:
        report.add_check(diag.check_mass(_series(report, "total_mass"), tol=dcfg["mass_tol"]))
        report.add_check(diag.check_support(_series(report, "support_radius"),
                                            ens0.initial_support_bound,
                                            tol=dcfg["support_tol"]))
        report.add_check(diag.check_density_growth(growth))
        report.add_check(diag.check_volume_law(volume))
        for c in diag.check_particle_lp_inequality(_series(report, "t"), norms,
                                                   dcfg["lp_exponents"], ens0.lam, ens0.dim):
            report.add_check(c)
    kio.write_particle_snapshots(os.path.join(out_dir, "particles.csv"),
                                 result.snapshots, result.snapshot_steps)
    return report


def run_agents(cfg: ScenarioConfig, out_dir):
    report = diag.DiagnosticsReport(metadata=_metadata(cfg, "agents"))
    state, _ = sample_agents(cfg, cfg.seed_streams()[0])
    lam, r, ones = cfg["lam"], cfg["radius"], np.ones(state.n)
    t_final, dt, stride = cfg["t_final"], cfg["dt"], cfg["snapshot_stride"]

    def step(s, k, t):
        x, v = s.positions, s.velocities
        return AgentState(t, s.dim, *exact_step(x, v, mean_field(x, v, ones, x, r), lam, dt))

    snaps, steps = march(state, step, t_final, dt, stride)
    speeds = []
    for st in snaps:
        x, v = st.positions, st.velocities
        var, vdiam, xdiam = diag.flocking_metrics(x, v)
        report.records.append({"t": st.t, "velocity_variance": var,
                               "velocity_diameter": vdiam,
                               "spatial_diameter": xdiam})
        speeds.append(float(np.sqrt((v ** 2).sum(axis=1)).max(initial=0.0)))
    dcfg = cfg["diagnostics"]
    if dcfg["enabled"] and state.n:
        report.add_check(diag.check_support(speeds, speeds[0], dcfg["support_tol"],
                                            "agent_speed_max_principle"))
    kio.write_agent_snapshots(os.path.join(out_dir, "agents.csv"), snaps, steps)
    return report


def run_oracle_mode(cfg: ScenarioConfig, out_dir):
    from .oracle import PhaseGrid, oracle_lp_norm, run_oracle
    report = diag.DiagnosticsReport(metadata=_metadata(cfg, "oracle"))
    oc = cfg["oracle"]
    spec = initial_spec_from_config(cfg)
    f0 = lambda X, V: spec.density(X[..., None], V[..., None])
    lam = 0.0 if oc["lam_zero_transport"] else cfg["lam"]
    grid0 = PhaseGrid.from_function(f0, oc["x_min"], oc["x_max"], oc["n_x"],
                                    oc["v_max"], oc["n_v"], lam)
    field = oracle_field_from_config(cfg)
    snaps, steps = run_oracle(grid0, field, cfg["t_final"], cfg["dt"],
                              snapshot_stride=cfg["snapshot_stride"])
    dcfg = cfg["diagnostics"]
    norms = {p: [] for p in dict.fromkeys(dcfg["lp_exponents"])}
    for g in snaps:
        for p, series in norms.items():
            series.append(oracle_lp_norm(g, p))
        report.records.append({"t": g.t, "total_mass": g.total_mass(),
                               "sup_value": float(g.values.max()) if g.values.size else 0.0}
                              | {f"lp_norm_p{p}": norms[p][-1] for p in dcfg["lp_exponents"]})
    if dcfg["enabled"]:
        mass_tol = max(dcfg["mass_tol"], 1e-3)  # grid quadrature tolerance
        times = _series(report, "t")
        report.add_check(diag.check_mass(_series(report, "total_mass"), tol=mass_tol))
        report.add_check(diag.check_oracle_sup(times, _series(report, "sup_value"), lam))
        if lam > 0:
            for c in diag.check_lp_law(times, norms, dcfg["lp_exponents"], lam, d=1,
                                       rel_tol=dcfg["lp_rel_tol"]):
                report.add_check(c)
    kio.write_grid_snapshots(os.path.join(out_dir, "grid.csv"), snaps, steps)
    return report


def run_picard(cfg: ScenarioConfig, out_dir):
    from .fixed_point import lipschitz_modulus, picard_solve
    report = diag.DiagnosticsReport(metadata=_metadata(cfg, "picard"))
    ens0 = sample_ensemble(cfg)
    pc = cfg["picard"]
    result = picard_solve(ens0, cfg["radius"], cfg["delta"],
                          cfg["t_final"], pc["n_time_nodes"], pc["n_space_nodes"],
                          pc["tol"], pc["max_iter"], pc["damping"])
    m0 = ens0.initial_support_bound
    sup = result.field.sup_norm()
    report.metadata["picard"] = {
        "converged": result.converged,
        "iterations": result.iterations,
        "final_residual": result.residuals[-1] if result.residuals else 0.0,
        "residual_history": result.residuals,
    }
    report.add_check(diag.CheckResult("field_sup_bound", sup, m0 + 1e-12,
                                      sup <= m0 + 1e-12))
    kx, kt = lipschitz_modulus(result.field, 200, np.random.default_rng(0))
    for rec_t, k in enumerate(result.residuals):
        report.records.append({"t": float(rec_t), "field_residual": k})
    report.metadata["lipschitz_modulus"] = {"spatial": kx, "temporal": kt}
    if pc["cross_check"] and ens0.n:
        field = result.field
        lin = run_linear(ens0, lambda t, X: field.evaluate(t, X),
                         cfg["t_final"], cfg["dt"])
        sc = run_self_consistent(ens0, cfg["t_final"], cfg["dt"], cfg["delta"])
        a, b = lin.snapshots[-1], sc.snapshots[-1]
        dx_grid = field.axes[0][1] - field.axes[0][0] if len(field.axes[0]) > 1 else 0.0
        dt_grid = field.times[1] - field.times[0]
        disc = kx * dx_grid + kt * dt_grid
        tol = 2.0 * (pc["tol"] + disc)
        err = max(float(np.abs(a.x - b.x).max()), float(np.abs(a.v - b.v).max()))
        report.add_check(diag.CheckResult("cross_solver_consistency", err, tol,
                                          err <= tol,
                                          {"disc_estimate": disc}))
    kio.write_field_csv(os.path.join(out_dir, "field.csv"), result.field)
    return report


def _metadata(cfg, solver):
    import hashlib
    digest = hashlib.sha256(cfg.to_json().encode()).hexdigest()[:16]
    return {"solver": solver, "seed": cfg["seed"], "config_hash": digest}


_MODES = {
    "kinetic": run_kinetic,
    "agents": run_agents,
    "oracle": run_oracle_mode,
    "picard": run_picard,
}


def run(cfg: ScenarioConfig, out_dir):
    """Execute the configured scenario.  Returns the diagnostics report.
    Every output file is written under out_dir once the mode has computed
    its result, and out_dir is created with the first of them, so an error
    found while running leaves no out_dir.  An out_dir that cannot become a
    directory, because it or its nearest existing ancestor is not one, is
    an OSError before the mode runs."""
    existing = os.path.abspath(out_dir)
    while not os.path.lexists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), existing)
    report = _MODES[cfg["mode"]](cfg, out_dir)
    with kio.create(os.path.join(out_dir, "resolved_config.json")) as fh:
        fh.write(cfg.to_json())
        fh.write("\n")
    kio.write_report(out_dir, report)
    return report
