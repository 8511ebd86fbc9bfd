"""Invariant checks and order parameters across solvers.

Every check is a pure function returning a CheckResult with the measured
value, the tolerance it was held to, and a pass flag; the report object
aggregates per-snapshot time series plus the assertion outcomes and
serializes to JSON/CSV.

The scalar checks (mass, speed support, grid sup bound, L^p law and L^p
inequality) take the per-snapshot series a run records: times, masses,
speed maxima, sup values and {p: norm per snapshot}.  The per-particle
laws (pointwise growth, phase volume) take the snapshots themselves.

The oracle helpers and `moments_at_points` are imported where they are
called, so a run loads `oracle` only if it makes grids.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidInputError
from .phase import AgentState, Ensemble

if TYPE_CHECKING:
    from .oracle import PhaseGrid


@dataclass
class CheckResult:
    name: str
    value: float
    tolerance: float
    passed: bool
    detail: dict = field(default_factory=dict)


@dataclass
class DiagnosticsReport:
    metadata: dict = field(default_factory=dict)
    records: list = field(default_factory=list)  # per-snapshot dicts
    assertions: list = field(default_factory=list)  # CheckResult list

    def add_check(self, check: CheckResult):
        self.assertions.append(check)

    @property
    def all_passed(self):
        return all(c.passed for c in self.assertions)

    def to_dict(self):
        return {
            "metadata": self.metadata,
            "records": self.records,
            "assertions": [asdict(c) for c in self.assertions],
        }


def check_mass(masses, tol=1e-12):
    """Relative drift of the total mass over a run's per-snapshot masses."""
    if len(masses) < 2:
        raise InvalidInputError("need at least 2 snapshots")
    m0 = masses[0]
    if m0 == 0.0:
        drift = max(abs(m) for m in masses)
    else:
        drift = max(abs(m - m0) for m in masses) / abs(m0)
    return CheckResult("mass_conservation", drift, tol, drift <= tol)


def check_support(speeds, m0, tol=1e-9, name="velocity_support_bound"):
    """max_t M(t) over a run's per-snapshot speed maxima against the
    initial support radius M0."""
    peak = max(speeds)
    return CheckResult(name, peak, m0 + tol, peak <= m0 + tol)


def check_density_growth(trajectory, tol=1e-12):
    """density_value(t) = density_value(0) * e^{lam*d*t} per particle,
    exact by construction up to rounding."""
    first = trajectory[0]
    worst = 0.0
    for snap in trajectory[1:]:
        factor = np.exp(snap.lam * snap.dim * (snap.t - first.t))
        expected = first.density_value * factor
        nz = expected > 0
        if np.any(nz):
            rel = np.abs(snap.density_value[nz] - expected[nz]) / expected[nz]
            worst = max(worst, float(rel.max()))
    return CheckResult("pointwise_growth_law", worst, tol, worst <= tol)


def check_volume_law(trajectory, tol=1e-12):
    """phase_volume(t)/phase_volume(0) = e^{-lam*d*t} per particle."""
    first = trajectory[0]
    worst = 0.0
    for snap in trajectory[1:]:
        factor = np.exp(-snap.lam * snap.dim * (snap.t - first.t))
        expected = first.phase_volume * factor
        if len(expected):
            rel = np.abs(snap.phase_volume - expected) / expected
            worst = max(worst, float(rel.max()))
    return CheckResult("phase_volume_law", worst, tol, worst <= tol)


def check_oracle_sup(times, sups, lam, tol=1e-9):
    """Grid max values against ||f0||_inf * e^{lam*t} at every snapshot."""
    worst = 0.0
    for t, sup in zip(times, sups):
        bound = sups[0] * np.exp(lam * (t - times[0]))
        if bound > 0:
            worst = max(worst, sup / bound - 1.0)
    return CheckResult("sup_growth_bound", worst, tol, worst <= tol)


def fit_lp_exponent(times, norms):
    """Least-squares slope of log ||f(t)||_p versus t over the snapshots
    with a positive norm."""
    ts, logs = [], []
    for t, norm in zip(times, norms):
        if norm > 0:
            ts.append(t)
            logs.append(np.log(norm))
    if len(ts) < 2:
        raise InvalidInputError("need at least 2 snapshots with positive norm")
    slope = np.polyfit(ts, logs, 1)[0]
    return float(slope)


def check_lp_law(times, norms, p_list, lam, d=1, rel_tol=0.05, abs_tol=1e-3):
    """Fitted growth exponents of the linear grid run against
    lam*d*(p-1)/p; p = 1 is held to an absolute tolerance (target 0).
    norms maps each p to the L^p norm of each snapshot."""
    results = []
    for p in p_list:
        target = lam * d * (p - 1) / p
        slope = fit_lp_exponent(times, norms[p])
        if target == 0.0:
            err = abs(slope)
            results.append(CheckResult(f"lp_law_p{p}", err, abs_tol, err <= abs_tol,
                                       {"slope": slope, "target": target}))
        else:
            err = abs(slope - target) / target
            results.append(CheckResult(f"lp_law_p{p}", err, rel_tol, err <= rel_tol,
                                       {"slope": slope, "target": target}))
    return results


def particle_lp_norm(ensemble: Ensemble, p):
    """L^p estimate reconstructed from the flow-deformed partition:
    (sum vol_i * f_i^p)^{1/p}."""
    if ensemble.n == 0:
        return 0.0
    vol, f = ensemble.phase_volume, ensemble.density_value
    with np.errstate(over="ignore"):
        norm = float((vol * f ** p).sum() ** (1.0 / p))
    if norm == np.inf:  # f**p overflows long before the norm: scale by max f
        top = f.max()
        norm = float(top * (vol * (f / top) ** p).sum() ** (1.0 / p))
    return norm


def check_particle_lp_inequality(times, norms, p_list, lam, d, slack=1e-9):
    """For the nonlinear particle solver only the upper bound
    ||f(t)||_p <= e^{lam*d*(p-1)t/p} ||f0||_p is asserted; norms maps each
    p to the `particle_lp_norm` of each snapshot."""
    results = []
    for p in p_list:
        base = norms[p][0]
        worst = 0.0
        for t, norm in zip(times[1:], norms[p][1:]):
            bound = base * np.exp(lam * d * (p - 1) * (t - times[0]) / p)
            if bound > 0:
                worst = max(worst, norm / bound - 1.0)
        results.append(CheckResult(f"lp_inequality_p{p}", worst, slack, worst <= slack))
    return results


def pushforward_sum(ensemble: Ensemble, phi):
    """sum_i w_i phi(x_i, v_i); the particle-side reading of the
    measure-preservation identity."""
    if ensemble.n == 0:
        return 0.0
    return float((ensemble.mass * phi(ensemble.x, ensemble.v)).sum())


def check_pushforward(ens_final: Ensemble, grid_final: PhaseGrid, phis, rel_tol=0.02):
    """Particle pushforward sums against oracle quadrature for matched
    linear runs, one check per test function."""
    from .oracle import quadrature_pushforward
    results = []
    for name, phi_p, phi_g in phis:
        a = pushforward_sum(ens_final, phi_p)
        b = quadrature_pushforward(grid_final, phi_g)
        scale = max(abs(a), abs(b), 1e-12)
        err = abs(a - b) / scale
        results.append(CheckResult(f"pushforward_{name}", err, rel_tol, err <= rel_tol,
                                   {"particle": a, "oracle": b}))
    return results


def flocking_metrics(obj):
    """(velocity variance about the mean, velocity diameter, spatial
    diameter); mass-weighted for ensembles, uniform for agent states."""
    if isinstance(obj, AgentState):
        v, x, w = obj.velocities, obj.positions, None
    elif isinstance(obj, Ensemble):
        v, x, w = obj.v, obj.x, obj.mass
    else:
        raise InvalidInputError(f"unsupported state type {type(obj)!r}")
    n = len(v)
    if n == 0:
        return 0.0, 0.0, 0.0
    if w is None or w.sum() == 0:
        mean = v.mean(axis=0)
        var = float(((v - mean) ** 2).sum(axis=1).mean())
    else:
        mean = (w[:, None] * v).sum(axis=0) / w.sum()
        var = float((w * ((v - mean) ** 2).sum(axis=1)).sum() / w.sum())
    return var, _diameter(v), _diameter(x)


def _max_d2(pa, pts):
    """Largest fp squared distance between a row of pa and a row of pts,
    summed axis by axis (no (len(pa), len(pts), dim) temporary)."""
    d2 = np.zeros((len(pa), len(pts)))
    for k in range(pts.shape[1]):
        d2 += (pa[:, k, None] - pts[None, :, k]) ** 2
    return float(d2.max())


def _diameter(pts, chunk=512):
    """max |x_i - x_j| over all pairs, bit-identical to the chunked scan of
    every pair, which it runs on the points that can reach a longest pair.

    The per-axis extreme points give a lower bound L on the largest fp d2.
    A point's reach, sum_k max(p_k - lo_k, hi_k - p_k)**2 evaluated like d2,
    is at least the fp d2 of every pair it is in, because each rounded
    operation is monotone.  So a point whose reach is below L is in no pair
    at L or above, and dropping it leaves the maximum unchanged.  In 1D only
    the two extremes remain; a cloud without interior points, such as a
    circle, keeps every point.
    """
    n = len(pts)
    if n < 2:
        return 0.0
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    ends = pts[np.concatenate([pts.argmin(axis=0), pts.argmax(axis=0)])]
    bound = _max_d2(ends, ends)
    if bound == 0.0:  # every reach is 0 as well: all pairs are at 0
        return 0.0
    reach = np.zeros(n)
    for k in range(pts.shape[1]):
        reach += np.maximum(pts[:, k] - lo[k], hi[k] - pts[:, k]) ** 2
    far = pts[reach >= bound]
    best = 0.0
    for a in range(0, len(far), chunk):
        best = max(best, _max_d2(far[a:a + chunk], far))
    return float(np.sqrt(best))


def meanfield_distance(agents: AgentState, kinetic: Ensemble, probe_points, r):
    """L1-over-probe-grid distance between mass-normalized (rho_r, j_r)
    moment fields of the empirical agent measure and the kinetic ensemble."""
    from .kinetic import moments_at_points
    probe_points = np.atleast_2d(np.asarray(probe_points, dtype=float))
    n = agents.n
    agent_ens = Ensemble(
        t=agents.t, dim=agents.dim, lam=kinetic.lam, radius=r,
        x=agents.positions, v=agents.velocities,
        mass=np.full(n, 1.0 / n) if n else np.zeros(0),
        density_value=np.ones(n), phase_volume=np.full(n, 1.0 / n) if n else np.ones(0),
    )
    rho_a, j_a = moments_at_points(agent_ens, probe_points, r)
    rho_k, j_k = moments_at_points(kinetic, probe_points, r)
    mk = kinetic.total_mass
    if mk > 0:
        rho_k = rho_k / mk
        j_k = j_k / mk
    diff = np.abs(rho_a - rho_k) + np.abs(j_a - j_k).sum(axis=1)
    return float(diff.mean())
