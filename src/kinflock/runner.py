"""Scenario orchestration for the four run modes.

Each run writes into the output directory: the resolved configuration,
mode-specific snapshot/field CSVs, and the diagnostics report
(JSON + flat CSV).  Exit status: 0 if all enabled assertions pass,
1 otherwise; configuration and invariant errors are raised and mapped to
exit codes by the CLI.

A run loads only the code its mode executes: each mode imports its solver
module (agents, oracle, fixed_point) when it starts, the seed streams, and
with them numpy.random, are created only by sampling that draws, and
logging is imported only to warn under allow_large_dt.
"""

from __future__ import annotations

import errno
import os

import numpy as np

from . import diagnostics as diag
from . import io as kio
from .config import ScenarioConfig
from .errors import ConfigError
from .kinetic import (InitialDistributionSpec, has_mass, rejection_sample, run_linear,
                      run_self_consistent, sample_initial)
from .phase import AgentState, HeadingState, march


def initial_spec_from_config(cfg: ScenarioConfig) -> InitialDistributionSpec:
    ib = cfg["initial"]
    sampling = ib["sampling"]
    if sampling["kind"] == "tensor_grid":
        samp = ("tensor_grid", sampling["n_x"], sampling["n_v"])
    else:
        samp = ("monte_carlo", sampling.get("n", 1000), None)
    return InitialDistributionSpec(
        kind=ib["kind"],
        dim=cfg["dim"],
        x_bounds=np.asarray(ib["x_bounds"], float),
        v_bounds=np.asarray(ib["v_bounds"], float),
        amplitude=ib["amplitude"],
        sampling=samp,
        x_centers=np.asarray(ib["x_centers"], float) if "x_centers" in ib else None,
        v_centers=np.asarray(ib["v_centers"], float) if "v_centers" in ib else None,
        x_sigma=ib["x_sigma"],
        v_sigma=ib["v_sigma"],
    )


def agent_rhs(cfg: ScenarioConfig):
    """The acceleration function state -> (N, d) of the configured model,
    all with the strict cut-off: cs normalizes by the number of agents,
    cutoff_cs and mt by the neighbour count."""
    from .agents import cutoff_cs_rhs
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
    """Draw agents from the initial phase-space density; they carry no
    masses, so the mass quadrature only has to be nonzero."""
    spec = initial_spec_from_config(cfg)
    n = cfg["n_agents"]
    if n > 0 and not has_mass(spec):
        raise ConfigError(f"the initial distribution has zero mass, so none of "
                          f"the {n} agents can be drawn")
    x, v = rejection_sample(spec, n, rng)
    return AgentState(0.0, cfg["dim"], x, v), spec


def _ensemble_record(ens, sup0):
    """The per-snapshot scalars of a kinetic run up to its L^p norms; sup0
    is the initial max density value."""
    var, vdiam, xdiam = diag.flocking_metrics(ens)
    rec = {
        "t": ens.t,
        "total_mass": ens.total_mass,
        "support_radius": ens.max_speed,
        "velocity_variance": var,
        "velocity_diameter": vdiam,
        "spatial_diameter": xdiam,
    }
    if sup0 > 0:
        bound = sup0 * np.exp(ens.lam * ens.dim * ens.t)
        rec["max_density_bound_ratio"] = float(ens.density_value.max()) / bound
    return rec


def _series(report, key):
    """The values of one record key over the snapshots of a run."""
    return [rec[key] for rec in report.records]


def _add_or_warn(report, check, allow_large_dt, *warning):
    """Add the check to the report, or under allow_large_dt log the
    warning (a logging message and its arguments) in place of a failure."""
    if allow_large_dt and not check.passed:
        import logging
        logging.getLogger(__name__).warning(*warning)
    else:
        report.add_check(check)


def _sample_initial(cfg: ScenarioConfig):
    """The initial ensemble of a kinetic or Picard run; the seed streams
    are created only for monte_carlo sampling, the one kind that draws.
    A t_final past the ensemble's horizon rule is a configuration error
    here, before the first step."""
    spec = initial_spec_from_config(cfg)
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
    ens0 = _sample_initial(cfg)
    result = run_self_consistent(ens0, cfg["t_final"], cfg["dt"], cfg["delta"],
                                 snapshot_stride=cfg["snapshot_stride"])
    snaps = result.snapshots
    dcfg = cfg["diagnostics"]
    # the records and the checks share one L^p norm per snapshot and distinct p
    norms = {p: [diag.particle_lp_norm(ens, p) for ens in snaps]
             for p in dict.fromkeys((1, 2, *dcfg["lp_exponents"]))}
    sup0 = float(ens0.density_value.max()) if ens0.n else 0.0
    for i, ens in enumerate(snaps):
        report.records.append(_ensemble_record(ens, sup0)
                              | {f"lp_norm_p{p}": norms[p][i] for p in (1, 2)})
    if dcfg["enabled"]:
        report.add_check(diag.check_mass(_series(report, "total_mass"), tol=dcfg["mass_tol"]))
        support = diag.check_support(_series(report, "support_radius"),
                                     ens0.initial_support_bound, tol=dcfg["support_tol"])
        _add_or_warn(report, support, cfg["allow_large_dt"],
                     "support bound exceeded under allow_large_dt: %s", support)
        report.add_check(diag.check_density_growth(snaps))
        report.add_check(diag.check_volume_law(snaps))
        for c in diag.check_particle_lp_inequality(_series(report, "t"), norms,
                                                   dcfg["lp_exponents"], ens0.lam, ens0.dim):
            report.add_check(c)
    kio.write_particle_snapshots(os.path.join(out_dir, "particles.csv"),
                                 snaps, result.snapshot_steps)
    return report


def run_agents(cfg: ScenarioConfig, out_dir):
    from .agents import integrate_agents, vicsek_step
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
        speeds = [float(np.sqrt((s.velocities ** 2).sum(axis=1)).max()) for s in snaps]
        check = diag.check_support(speeds, speeds[0], dcfg["support_tol"],
                                   "agent_speed_max_principle")
        _add_or_warn(report, check, cfg["allow_large_dt"],
                     "agent max principle exceeded under allow_large_dt")
    kio.write_agent_snapshots(os.path.join(out_dir, "agents.csv"), snaps, steps)
    return report


def run_oracle_mode(cfg: ScenarioConfig, out_dir):
    from .oracle import PhaseGrid, oracle_lp_norm, run_oracle
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
    norms = {p: [oracle_lp_norm(g, p) for g in snaps] for p in dict.fromkeys(dcfg["lp_exponents"])}
    for i, g in enumerate(snaps):
        rec = {"t": g.t, "total_mass": g.total_mass(),
               "sup_value": float(g.values.max()) if g.values.size else 0.0}
        for p in dcfg["lp_exponents"]:
            rec[f"lp_norm_p{p}"] = norms[p][i]
        report.records.append(rec)
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
    ens0 = _sample_initial(cfg)
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
