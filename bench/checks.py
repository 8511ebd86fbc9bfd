"""Output checks computed apart from kinflock, with a self-test for each.

Nothing here imports kinflock: the checks read the CSV artifacts of one
`kinflock run` and recompute what they assert from the workload config,
with brute-force strict-radius sums (`sum((x_j - x)**2) < r*r`) and closed
forms.  No check compares against a stored copy of earlier output.

`run_checks` returns one message per failed check.  `self_test` perturbs
outputs that passed (nudges a velocity, drops a neighbour, scales a grid
value, ...) and raises SelfTestError if a check accepts the perturbed copy.
"""

from __future__ import annotations

import copy
import math
import os

import numpy as np

ROUNDING_RTOL = 1e-12  # the program's own tolerance for its exact identities
CHUNK = 512  # rows of a brute-force distance block


class SelfTestError(Exception):
    """A check accepted an output that was perturbed to be wrong."""


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: table[:, k] for k, name in enumerate(header)}


def _steps(cfg):
    """Snapshot steps the run must record: every stride-th step and the last."""
    n_steps = max(1, int(round(cfg["t_final"] / cfg["dt"])))
    stride = cfg.get("snapshot_stride", 1)
    return [s for s in range(n_steps + 1) if s % stride == 0 or s == n_steps]


def _support_bound(cfg):
    corner = np.max(np.abs(np.asarray(cfg["initial"]["v_bounds"], float)), axis=1)
    return float(np.sqrt((corner ** 2).sum()))


def _speeds(v):
    return np.sqrt((v ** 2).sum(axis=1))


def _split_snapshots(cols, dim, fields):
    """Rows grouped by the step column: [(step, {field: array})]."""
    step = cols["step"].astype(np.int64)
    out = []
    for s in np.unique(step):
        rows = step == s
        snap = {"t": cols["t"][rows], "id": cols["id"][rows]}
        for f in fields:
            if f in ("x", "v"):
                snap[f] = np.column_stack([cols[f"{f}{k}"][rows] for k in range(dim)])
            else:
                snap[f] = cols[f][rows]
        out.append((int(s), snap))
    return out


def _neighbour_sums(points, centers, r, weights, drop=None):
    """sum_j weights[j] over |points_j - c| < r (strict) for each center.

    drop=(i, j) removes point j from the neighbourhood of center i (used by
    the self-tests to emulate a wrong neighbour set).
    """
    out = np.empty((len(centers), weights.shape[1]))
    for a in range(0, len(centers), CHUNK):
        d2 = ((points[None, :, :] - centers[a:a + CHUNK, None, :]) ** 2).sum(axis=2)
        mask = d2 < r * r
        if drop is not None and a <= drop[0] < a + CHUNK:
            mask[drop[0] - a, drop[1]] = False
        out[a:a + CHUNK] = mask.astype(float) @ weights
    return out


def _farthest_neighbour(x, i, r, weight):
    """Among the neighbours of particle i (other than i) closest to the
    cut-off, the one of largest weight."""
    d2 = ((x - x[i]) ** 2).sum(axis=1)
    d2[i] = -1.0
    d2[d2 >= r * r] = -1.0
    far = np.nonzero(d2 == d2.max())[0]
    return int(far[weight[far].argmax()])


def _frozen_field_step(x, v, E, lam, dt):
    decay = math.exp(-lam * dt)
    dv = v - E
    return x + E * dt + dv * (1.0 - decay) / lam, E + dv * decay


def _compare(name, got, want, tol):
    err = float(np.abs(got - want).max()) if got.size else 0.0
    if not err <= tol:
        return f"{name} differs by {err:.3e} > {tol:.3e}"
    return None


def _check_layout(cfg, data):
    want = _steps(cfg)
    got = [s for s, _ in data["snaps"]]
    if got != want:
        return f"snapshot steps {got[:6]}... != {want[:6]}..."
    sizes = {len(snap["id"]) for _, snap in data["snaps"]}
    if len(sizes) != 1:
        return f"snapshot sizes differ: {sorted(sizes)}"
    return None


def _last_step(cfg, data, ubar):
    """Compare the final snapshot with one step recomputed from the previous
    one; `ubar(prev)` gives the frozen field at the previous positions."""
    (s_prev, prev), (s_last, last) = data["snaps"][-2:]
    if s_last - s_prev != 1:
        return f"last two snapshots are {s_last - s_prev} steps apart"
    x_new, v_new = _frozen_field_step(prev["x"], prev["v"], ubar(prev),
                                      cfg["lam"], cfg["dt"])
    scale = max(data["m0"], float(np.abs(prev["x"]).max()))
    return (_compare("final velocities", last["v"], v_new, ROUNDING_RTOL * scale)
            or _compare("final positions", last["x"], x_new, ROUNDING_RTOL * scale))


def _check_speed(cfg, data):
    peak = max(float(_speeds(snap["v"]).max()) for _, snap in data["snaps"])
    if not peak <= data["m0"] * (1.0 + ROUNDING_RTOL):
        return f"max |v| = {peak!r} > M0 = {data['m0']!r}"
    return None


# --- kinetic: particles.csv ------------------------------------------------

def load_kinetic(cfg, out_dir):
    cols = _read_csv(os.path.join(out_dir, "particles.csv"))
    snaps = _split_snapshots(cols, cfg["dim"], ("x", "v", "mass", "density_value",
                                                "phase_volume"))
    return {"snaps": snaps, "m0": _support_bound(cfg), "drop": None}


def _kinetic_field(cfg, data):
    def field(prev):
        x, v, m = prev["x"], prev["v"], prev["mass"]
        sums = _neighbour_sums(x, x, cfg["radius"], np.column_stack([m, m[:, None] * v]),
                               data["drop"])
        rho, j = sums[:, 0], sums[:, 1:]
        delta = cfg.get("delta", 0.0)
        return j / (delta + rho)[:, None] if delta > 0 else j / rho[:, None]
    return field


def check_kinetic_step(cfg, data):
    return _last_step(cfg, data, _kinetic_field(cfg, data))


def check_mass_identity(cfg, data):
    worst = 0.0
    for _, snap in data["snaps"]:
        prod = snap["density_value"] * snap["phase_volume"]
        worst = max(worst, float((np.abs(prod - snap["mass"]) / snap["mass"]).max()))
    if not worst <= ROUNDING_RTOL:
        return f"|density*volume - mass|/mass = {worst:.3e}"
    return None


def check_growth_law(cfg, data):
    """density(t) = density(0) e^{lam d t}, volume(t) = volume(0) e^{-lam d t},
    mass(t) = mass(0), with t = step*dt."""
    _, first = data["snaps"][0]
    worst = 0.0
    for step, snap in data["snaps"]:
        t = step * cfg["dt"]
        growth = math.exp(cfg["lam"] * cfg["dim"] * t)
        worst = max(worst,
                    float(np.abs(snap["t"] - t).max()) / max(1.0, t),
                    float((np.abs(snap["density_value"] - first["density_value"] * growth)
                           / (first["density_value"] * growth)).max()),
                    float((np.abs(snap["phase_volume"] - first["phase_volume"] / growth)
                           / (first["phase_volume"] / growth)).max()))
        if not np.array_equal(snap["mass"], first["mass"]):
            return f"particle masses changed at step {step}"
    if not worst <= ROUNDING_RTOL:
        return f"e^(lam d t) law off by {worst:.3e} (relative)"
    return None


# --- agents: agents.csv ----------------------------------------------------

def load_agents(cfg, out_dir):
    cols = _read_csv(os.path.join(out_dir, "agents.csv"))
    snaps = _split_snapshots(cols, cfg["dim"], ("x", "v"))
    # cut-off alignment keeps every velocity in the hull of the initial ones
    return {"snaps": snaps, "m0": float(_speeds(snaps[0][1]["v"]).max()), "drop": None}


def _agents_field(cfg, data):
    def field(prev):
        x, v = prev["x"], prev["v"]
        sums = _neighbour_sums(x, x, cfg["radius"], np.column_stack([np.ones(len(x)), v]),
                               data["drop"])
        return sums[:, 1:] / sums[:, :1]
    return field


def check_agents_step(cfg, data):
    """Cut-off Cucker-Smale with the exponential integrator: the field is
    the strict-radius mean velocity (self included)."""
    if cfg.get("model", "cutoff_cs") != "cutoff_cs" or cfg.get("integrator") != "exponential":
        raise ValueError("the agents step check covers cutoff_cs with the exponential integrator")
    return _last_step(cfg, data, _agents_field(cfg, data))


# --- oracle: grid.csv ------------------------------------------------------

def load_oracle(cfg, out_dir):
    cols = _read_csv(os.path.join(out_dir, "grid.csv"))
    oc = cfg["oracle"]
    shape = (-1, oc["n_x"], oc["n_v"])
    return {name: cols[name].reshape(shape) for name in ("t", "x", "v", "f")}


def _f0(ib, x, v):
    """The config's truncated product Gaussian f0 at points x, v (..., dim)."""
    if ib["kind"] != "product_gaussian_truncated":
        raise ValueError("the checks evaluate f0 for product_gaussian_truncated only")
    xb, vb = np.asarray(ib["x_bounds"], float), np.asarray(ib["v_bounds"], float)
    inside = np.all((x >= xb[:, 0]) & (x <= xb[:, 1]) & (v >= vb[:, 0]) & (v <= vb[:, 1]),
                    axis=-1)
    val = ib.get("amplitude", 1.0) * np.exp(
        -((x - xb.mean(axis=1)) ** 2).sum(axis=-1) / (2 * ib["x_sigma"] ** 2)
        - ((v - vb.mean(axis=1)) ** 2).sum(axis=-1) / (2 * ib["v_sigma"] ** 2))
    return np.where(inside, val, 0.0)


def _oracle_supported(cfg):
    oc = cfg["oracle"]
    if oc["field"]["kind"] != "zero" or oc.get("lam_zero_transport"):
        raise ValueError("the oracle checks cover a zero field with lam > 0")


def _oracle_error_bound(cfg, t, n_steps):
    """A-priori sup-norm error of n_steps semi-Lagrangian steps: bilinear
    interpolation errs by at most (hx^2 max|f_xx| + hv^2 max|f_vv|)/8 per
    step, is non-expansive, and each step multiplies by e^{lam dt}.  The
    second derivatives are bounded on the exact solution at time t, and
    1e-6 of the peak covers the truncation of f0 at the grid edge (the
    program's own boundary-ring limit)."""
    ib, oc, lam = cfg["initial"], cfg["oracle"], cfg["lam"]
    amp, sx, sv = ib.get("amplitude", 1.0), ib["x_sigma"], ib["v_sigma"]
    hx = (oc["x_max"] - oc["x_min"]) / oc["n_x"]
    hv = 2.0 * oc["v_max"] / oc["n_v"]
    g = math.exp(lam * t)
    c = (g - 1.0) / lam
    fxx = g * amp / sx ** 2
    fvv = g * amp * (c * c / sx ** 2 + 2 * c * g / (math.e * sx * sv) + g * g / sv ** 2)
    return n_steps * g * (hx * hx * fxx + hv * hv * fvv) / 8.0 + 1e-6 * amp * g


def check_oracle_grid(cfg, data):
    """Every snapshot against e^{lam t} f0(x - v(e^{lam t}-1)/lam, v e^{lam t})."""
    _oracle_supported(cfg)
    lam = cfg["lam"]
    steps = _steps(cfg)
    if data["f"].shape[0] != len(steps):
        return f"{data['f'].shape[0]} grid snapshots, expected {len(steps)}"
    for k, step in enumerate(steps):
        t = step * cfg["dt"]
        if not abs(float(data["t"][k].max()) - t) <= ROUNDING_RTOL * max(1.0, t):
            return f"snapshot {k} has t={float(data['t'][k].max())!r}, expected {t!r}"
        g = math.exp(lam * t)
        x, v = data["x"][k], data["v"][k]
        exact = g * _f0(cfg["initial"], (x - v * (g - 1.0) / lam)[..., None],
                        (v * g)[..., None])
        msg = _compare(f"grid at t={t:g}", data["f"][k], exact,
                       _oracle_error_bound(cfg, t, step))
        if msg:
            return msg
    return None


def check_oracle_mass(cfg, data):
    """Grid mass against the exact mass of f0, which the flow conserves;
    held to the program's own grid quadrature tolerance 1e-3."""
    _oracle_supported(cfg)
    ib, oc = cfg["initial"], cfg["oracle"]
    exact = ib.get("amplitude", 1.0)
    for key, sigma in (("x_bounds", ib["x_sigma"]), ("v_bounds", ib["v_sigma"])):
        lo, hi = ib[key][0]
        mid, s = 0.5 * (lo + hi), sigma * math.sqrt(2.0)
        exact *= sigma * math.sqrt(math.pi / 2) * (math.erf((hi - mid) / s)
                                                     - math.erf((lo - mid) / s))
    cell = (oc["x_max"] - oc["x_min"]) / oc["n_x"] * 2.0 * oc["v_max"] / oc["n_v"]
    mass = data["f"].sum(axis=(1, 2)) * cell
    worst = float(np.abs(mass / exact - 1.0).max())
    if not worst <= 1e-3:
        return f"grid mass off the exact {exact:.6g} by {worst:.3e} (relative)"
    return None


# --- picard: field.csv -----------------------------------------------------

def initial_lattice(cfg):
    """Tensor-grid particles of f0 (x, v, mass), in kinflock's order:
    x-cell major, v-cell minor, zero-density cells dropped."""
    ib = cfg["initial"]
    samp = ib["sampling"]
    xb, vb = np.asarray(ib["x_bounds"], float), np.asarray(ib["v_bounds"], float)

    def centres(bounds, n):
        axes, vol = [], 1.0
        for lo, hi in bounds:
            edges = np.linspace(lo, hi, n + 1)
            axes.append(0.5 * (edges[:-1] + edges[1:]))
            vol *= (hi - lo) / n
        return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1), vol

    xc, dx = centres(xb, samp["n_x"])
    vc, dv = centres(vb, samp["n_v"])
    x, v = np.repeat(xc, len(vc), axis=0), np.tile(vc, (len(xc), 1))
    dens = _f0(ib, x, v)
    keep = dens > 0
    return x[keep], v[keep], dens[keep] * dx * dv


def load_picard(cfg, out_dir):
    cols = _read_csv(os.path.join(out_dir, "field.csv"))
    times = np.unique(cols["time"])
    shape = (len(times), -1)
    return {"times": times, "nodes": cols["x0"].reshape(shape)[0],
            "E": cols["E0"].reshape(shape), "m0": _support_bound(cfg)}


def apply_map(cfg, times, nodes, E):
    """The fixed-point map F[E]: carry the f0 lattice along characteristics
    of E frozen at each time node (linear interpolation in x, clamped at the
    box) and read j/(delta + rho) off at the nodes by brute force."""
    x, v, mass = initial_lattice(cfg)
    lam, r, delta = cfg["lam"], cfg["radius"], cfg["delta"]
    out = np.empty_like(E)
    weights = np.column_stack([mass, mass])
    for k in range(len(times)):
        weights[:, 1] = mass * v[:, 0]
        sums = _neighbour_sums(x, nodes[:, None], r, weights)
        out[k] = sums[:, 1] / (delta + sums[:, 0])
        if k + 1 < len(times):
            field = np.interp(x[:, 0], nodes, E[k])[:, None]
            x, v = _frozen_field_step(x, v, field, lam, times[k + 1] - times[k])
    return out


def check_field_bound(cfg, data):
    peak = float(np.abs(data["E"]).max())
    if not peak <= data["m0"] + 1e-12:
        return f"max |E| = {peak!r} > M0 = {data['m0']!r}"
    return None


def check_fixed_point(cfg, data):
    if cfg["dim"] != 1:
        raise ValueError("the fixed-point check covers dim = 1")
    F = apply_map(cfg, data["times"], data["nodes"], data["E"])
    return _compare("F[E] - E", F, data["E"], cfg["picard"]["tol"])


# --- tables ----------------------------------------------------------------

def _nudge_velocity(cfg, data):
    data["snaps"][-1][1]["v"][0, 0] += 1e-9


def _drop_neighbour(cfg, data, field_check):
    """Replace the final snapshot by the step taken with one neighbour left
    out of one particle's sums: the neighbour nearest the cut-off, as a
    wrongly decided tie at distance r would leave it out."""
    (_, prev), (_, last) = data["snaps"][-2:]
    i = len(prev["x"]) // 2
    weight = prev.get("mass", np.ones(len(prev["x"])))
    data["drop"] = (i, _farthest_neighbour(prev["x"], i, cfg["radius"], weight))
    wrong = field_check(cfg, data)(prev)
    data["drop"] = None
    last["x"], last["v"] = _frozen_field_step(prev["x"], prev["v"], wrong,
                                              cfg["lam"], cfg["dt"])


def _over_speed(cfg, data):
    v = data["snaps"][-1][1]["v"]
    v[0] *= data["m0"] * (1.0 + 1e-9) / float(np.linalg.norm(v[0]))


def _drop_last_snapshot(cfg, data):
    data["snaps"].pop()


def _scale_density(cfg, data):
    data["snaps"][-1][1]["density_value"][0] *= 1.0 + 1e-9


def _scale_volume(cfg, data):
    data["snaps"][-1][1]["phase_volume"][0] *= 1.0 + 1e-9


def _scale_grid_peak(cfg, data):
    f = data["f"][-1]
    f[np.unravel_index(f.argmax(), f.shape)] *= 1.05


def _scale_grid(cfg, data):
    data["f"][-1] *= 1.01


def _field_over_bound(cfg, data):
    data["E"][-1, len(data["nodes"]) // 2] = data["m0"] * (1.0 + 1e-9)


def _shift_field_node(cfg, data):
    data["E"][len(data["times"]) // 2, len(data["nodes"]) // 2] += 5 * cfg["picard"]["tol"]


# mode -> (loader, {check: function}, [(check, perturbation, description)])
MODES = {
    "kinetic": (load_kinetic, {
        "layout": _check_layout,
        "last_step": check_kinetic_step,
        "mass_identity": check_mass_identity,
        "growth_law": check_growth_law,
        "speed_bound": _check_speed,
    }, [
        ("layout", _drop_last_snapshot, "the last snapshot removed"),
        ("last_step", _nudge_velocity, "one final velocity nudged by 1e-9"),
        ("last_step", lambda c, d: _drop_neighbour(c, d, _kinetic_field),
         "one neighbour dropped from one particle's sums"),
        ("mass_identity", _scale_density, "one density value scaled by 1+1e-9"),
        ("growth_law", _scale_volume, "one phase volume scaled by 1+1e-9"),
        ("speed_bound", _over_speed, "one speed set to M0*(1+1e-9)"),
    ]),
    "agents": (load_agents, {
        "layout": _check_layout,
        "last_step": check_agents_step,
        "speed_bound": _check_speed,
    }, [
        ("layout", _drop_last_snapshot, "the last snapshot removed"),
        ("last_step", _nudge_velocity, "one final velocity nudged by 1e-9"),
        ("last_step", lambda c, d: _drop_neighbour(c, d, _agents_field),
         "one neighbour dropped from one agent's mean"),
        ("speed_bound", _over_speed, "one speed set to M0*(1+1e-9)"),
    ]),
    "oracle": (load_oracle, {
        "closed_form": check_oracle_grid,
        "mass": check_oracle_mass,
    }, [
        ("closed_form", _scale_grid_peak, "the peak grid value scaled by 1.05"),
        ("mass", _scale_grid, "the final grid scaled by 1.01"),
    ]),
    "picard": (load_picard, {
        "field_bound": check_field_bound,
        "fixed_point": check_fixed_point,
    }, [
        ("field_bound", _field_over_bound, "one node set to M0*(1+1e-9)"),
        ("fixed_point", _shift_field_node, "one node shifted by 5*tol"),
    ]),
}


def run_checks(cfg, out_dir):
    """Messages of the checks that fail on the outputs in out_dir."""
    load, table, _ = MODES[cfg["mode"]]
    data = load(cfg, out_dir)
    return [f"{name}: {msg}" for name, check in table.items()
            if (msg := check(cfg, data)) is not None]


def self_test(cfg, out_dir):
    """Show that each check rejects a perturbed copy of passing outputs."""
    load, table, perturbations = MODES[cfg["mode"]]
    data = load(cfg, out_dir)
    for name, perturb, what in perturbations:
        bad = copy.deepcopy(data)
        perturb(cfg, bad)
        if table[name](cfg, bad) is None:
            raise SelfTestError(f"check {name} accepted {what}")
