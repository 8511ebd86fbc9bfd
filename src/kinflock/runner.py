"""Scenario orchestration for the four run modes.

Each run writes into the output directory: the resolved configuration,
mode-specific snapshot/field CSVs, and the diagnostics report
(JSON + flat CSV).  Exit status: 0 if all enabled assertions pass,
1 otherwise; configuration and invariant errors are raised and mapped to
exit codes by the CLI.
"""

from __future__ import annotations

import errno
import logging
import os

import numpy as np

from . import diagnostics as diag
from . import io as kio
from .agents import cutoff_cs_rhs, integrate_agents, vicsek_step
from .config import ScenarioConfig
from .errors import ConfigError
from .fixed_point import lipschitz_modulus, picard_solve
from .kinetic import (InitialDistributionSpec, run_linear, run_self_consistent,
                      sample_initial)
from .oracle import PhaseGrid, oracle_lp_norm, run_oracle
from .phase import AgentState, HeadingState, march

log = logging.getLogger(__name__)


def initial_spec_from_config(cfg: ScenarioConfig) -> InitialDistributionSpec:
    ib = cfg["initial"]
    sampling = ib["sampling"]
    if sampling["kind"] == "tensor_grid":
        samp = ("tensor_grid", sampling.get("n_x", 16), sampling.get("n_v", 16))
    else:
        samp = ("monte_carlo", sampling.get("n", 1000), None)
    return InitialDistributionSpec(
        kind=ib["kind"],
        dim=cfg["dim"],
        x_bounds=np.asarray(ib["x_bounds"], float),
        v_bounds=np.asarray(ib["v_bounds"], float),
        amplitude=ib.get("amplitude", 1.0),
        sampling=samp,
        x_centers=np.asarray(ib["x_centers"], float) if "x_centers" in ib else None,
        v_centers=np.asarray(ib["v_centers"], float) if "v_centers" in ib else None,
        x_sigma=ib.get("x_sigma", 0.25),
        v_sigma=ib.get("v_sigma", 0.25),
    )


def agent_rhs(cfg: ScenarioConfig):
    """The acceleration function state -> (N, d) of the configured model,
    all with the strict cut-off: cs normalizes by the number of agents,
    cutoff_cs and mt by the neighbour count."""
    lam, r, model = cfg["lam"], cfg["radius"], cfg["model"]
    return lambda s: cutoff_cs_rhs(s, lam, r, local=model != "cs")


def oracle_field_from_config(cfg: ScenarioConfig):
    fc = cfg["oracle"]["field"]
    if fc["kind"] == "zero":
        return lambda t, x: np.zeros_like(np.asarray(x, float))
    if fc["kind"] == "constant":
        value = fc.get("value", 0.0)
        return lambda t, x: np.full_like(np.asarray(x, float), value)
    amp = fc.get("amplitude", 0.5)
    width = fc.get("width", 1.0)
    return lambda t, x: amp * np.tanh(np.asarray(x, float) / width)


def sample_agents(cfg: ScenarioConfig, rng):
    """Draw agents from the initial phase-space density with equal weights."""
    spec = initial_spec_from_config(cfg)
    spec.sampling = ("monte_carlo", cfg["n_agents"], None)
    ens = sample_initial(spec, cfg["lam"], cfg["radius"], rng=rng)
    if ens.n == 0 and cfg["n_agents"] > 0:
        raise ConfigError(f"the initial distribution has zero mass, so none of "
                          f"the {cfg['n_agents']} agents can be drawn")
    return AgentState(0.0, cfg["dim"], ens.x, ens.v), spec


def _ensemble_record(ens):
    var, vdiam, xdiam = diag.flocking_metrics(ens)
    rec = {
        "t": ens.t,
        "total_mass": ens.total_mass,
        "support_radius": ens.max_speed,
        "velocity_variance": var,
        "velocity_diameter": vdiam,
        "spatial_diameter": xdiam,
    }
    if ens.n and ens.initial_sup_density > 0:
        bound = ens.initial_sup_density * np.exp(ens.lam * ens.dim * ens.t)
        rec["max_density_bound_ratio"] = float(ens.density_value.max()) / bound
    for p in (1, 2):
        rec[f"lp_norm_p{p}"] = diag.particle_lp_norm(ens, p)
    return rec


def run_kinetic(cfg: ScenarioConfig, out_dir):
    report = diag.DiagnosticsReport(metadata=_metadata(cfg, "kinetic"))
    rng, _, _ = cfg.seed_streams()
    spec = initial_spec_from_config(cfg)
    ens0 = sample_initial(spec, cfg["lam"], cfg["radius"], rng=rng)
    result = run_self_consistent(ens0, cfg["t_final"], cfg["dt"], cfg["delta"],
                                 snapshot_stride=cfg["snapshot_stride"])
    snaps = result.snapshots
    for ens in snaps:
        report.records.append(_ensemble_record(ens))
    dcfg = cfg["diagnostics"]
    if dcfg["enabled"]:
        report.add_check(diag.check_mass(snaps, tol=dcfg["mass_tol"]))
        support = diag.check_support(snaps, ens0.initial_support_bound,
                                     tol=dcfg["support_tol"])
        if cfg["allow_large_dt"] and not support.passed:
            log.warning("support bound exceeded under allow_large_dt: %s", support)
        else:
            report.add_check(support)
        report.add_check(diag.check_density_growth(snaps))
        report.add_check(diag.check_volume_law(snaps))
        for c in diag.check_particle_lp_inequality(snaps, dcfg["lp_exponents"]):
            report.add_check(c)
    kio.write_particle_snapshots(os.path.join(out_dir, "particles.csv"),
                                 snaps, result.snapshot_steps)
    return report


def run_agents(cfg: ScenarioConfig, out_dir):
    report = diag.DiagnosticsReport(metadata=_metadata(cfg, "agents"))
    rng, noise_rng, _ = cfg.seed_streams()
    model = cfg["model"]
    t_final, dt, stride = cfg["t_final"], cfg["dt"], cfg["snapshot_stride"]

    if model == "vicsek":
        if "initial" in cfg.data:
            xb = np.asarray(cfg["initial"]["x_bounds"], float)
        else:
            xb = np.array([[0.0, 1.0], [0.0, 1.0]])
        n = cfg["n_agents"]
        pos = rng.uniform(xb[:, 0], xb[:, 1], size=(n, 2))
        head = rng.uniform(-np.pi, np.pi, size=n)
        state = HeadingState(0, pos, head, cfg["vicsek"]["speed"])
        snaps, steps = march(state, lambda s, k, t: vicsek_step(
            s, cfg["radius"], cfg["vicsek"]["noise"], noise_rng), t_final, dt, stride)
        for st in snaps:
            mean_vec = np.array([np.cos(st.headings).mean(), np.sin(st.headings).mean()]) if st.n else np.zeros(2)
            report.records.append({"t": float(st.t),
                                   "polarization": float(np.linalg.norm(mean_vec))})
        kio.write_heading_snapshots(os.path.join(out_dir, "agents.csv"), snaps, steps)
        return report

    state, _ = sample_agents(cfg, rng)
    lam, rhs = cfg["lam"], agent_rhs(cfg)
    max_speed0 = float(np.sqrt((state.velocities ** 2).sum(axis=1)).max()) if state.n else 0.0

    def step(s, k, t):
        s = integrate_agents(s, rhs, dt, cfg["integrator"], lam=lam)
        s.t = t
        return s

    snaps, steps = march(state, step, t_final, dt, stride)
    for st in snaps:
        var, vdiam, xdiam = diag.flocking_metrics(st)
        report.records.append({"t": st.t, "velocity_variance": var,
                               "velocity_diameter": vdiam,
                               "spatial_diameter": xdiam})
    dcfg = cfg["diagnostics"]
    if dcfg["enabled"] and model in ("cutoff_cs", "mt") and state.n:
        peak = max(float(np.sqrt((s.velocities ** 2).sum(axis=1)).max()) for s in snaps)
        tol = dcfg["support_tol"]
        check = diag.CheckResult("agent_speed_max_principle", peak,
                                 max_speed0 + tol, peak <= max_speed0 + tol)
        if cfg["allow_large_dt"] and not check.passed:
            log.warning("agent max principle exceeded under allow_large_dt")
        else:
            report.add_check(check)
    kio.write_agent_snapshots(os.path.join(out_dir, "agents.csv"), snaps, steps)
    return report


def run_oracle_mode(cfg: ScenarioConfig, out_dir):
    report = diag.DiagnosticsReport(metadata=_metadata(cfg, "oracle"))
    oc = cfg["oracle"]
    spec = initial_spec_from_config(cfg) if "initial" in cfg.data else None
    if spec is not None:
        f0 = lambda X, V: spec.density(X[..., None], V[..., None])
    else:
        f0 = lambda X, V: np.exp(-X ** 2 / 0.125 - V ** 2 / 0.125)
    lam = 0.0 if oc["lam_zero_transport"] else cfg["lam"]
    grid0 = PhaseGrid.from_function(f0, oc["x_min"], oc["x_max"], oc["n_x"],
                                    oc["v_max"], oc["n_v"], lam)
    field = oracle_field_from_config(cfg)
    snaps, steps = run_oracle(grid0, field, cfg["t_final"], cfg["dt"],
                              snapshot_stride=cfg["snapshot_stride"])
    dcfg = cfg["diagnostics"]
    for g in snaps:
        rec = {"t": g.t, "total_mass": g.total_mass(),
               "sup_value": float(g.values.max()) if g.values.size else 0.0}
        for p in dcfg["lp_exponents"]:
            rec[f"lp_norm_p{p}"] = oracle_lp_norm(g, p)
        report.records.append(rec)
    if dcfg["enabled"]:
        mass_tol = max(dcfg["mass_tol"], 1e-3)  # grid quadrature tolerance
        report.add_check(diag.check_mass(snaps, tol=mass_tol))
        report.add_check(diag.check_oracle_sup(snaps))
        if lam > 0:
            for c in diag.check_lp_law(snaps, dcfg["lp_exponents"], lam, d=1,
                                       rel_tol=dcfg["lp_rel_tol"]):
                report.add_check(c)
    kio.write_grid_snapshots(os.path.join(out_dir, "grid.csv"), snaps, steps)
    return report


def run_picard(cfg: ScenarioConfig, out_dir):
    report = diag.DiagnosticsReport(metadata=_metadata(cfg, "picard"))
    rng, _, _ = cfg.seed_streams()
    spec = initial_spec_from_config(cfg)
    ens0 = sample_initial(spec, cfg["lam"], cfg["radius"], rng=rng)
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
