"""Weighted-particle solver for the nonlinear kinetic alignment equation
with neighborhood-averaged velocity field, including its delta-regularized
variant.

Particles move along characteristics dX/dt = V, dV/dt = lam*(E - V).  Each
step freezes the field at the step start and applies `phase.exact_step`,
the exact solution of the resulting linear ODE, so the velocity update is a
convex combination of the old velocity and the (bounded) field value.  The
run loops go through `phase.march`, which gives each step its time from
the step count.  A step moves only x and v: density values and phase
volumes are the initial ones times and over e^{lam*dim*t}, read off the
step's time (`phase.Ensemble`), so particle masses stay exactly constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InvalidInputError, InvariantViolationError
from .phase import Ensemble, exact_step, march
from .spatial import neighborhood_sums

SUPPORT_SLACK = 1e-9


@dataclass
class InitialDistributionSpec:
    """Description of the initial phase-space density f0 and how to
    discretize it into particles.

    kinds:
      box_indicator            amplitude on x_bounds x v_bounds boxes
      product_gaussian_truncated  one separable Gaussian bump, hard-truncated
                                  to the stated boxes
      two_bump                 a sum of such bumps, by default two at
                               opposite positions and velocities
    sampling: ("tensor_grid", n_x, n_v) or ("monte_carlo", N, seed)
    """

    kind: str
    dim: int
    x_bounds: np.ndarray  # (dim, 2)
    v_bounds: np.ndarray  # (dim, 2)
    amplitude: float = 1.0
    sampling: tuple = ("tensor_grid", 16, 16)
    # gaussian / two_bump parameters
    x_centers: Optional[np.ndarray] = None  # (n_bumps, dim)
    v_centers: Optional[np.ndarray] = None
    x_sigma: float = 0.25
    v_sigma: float = 0.25

    def __post_init__(self):
        self.x_bounds = np.asarray(self.x_bounds, dtype=float).reshape(self.dim, 2)
        self.v_bounds = np.asarray(self.v_bounds, dtype=float).reshape(self.dim, 2)
        if np.any(self.x_bounds[:, 1] < self.x_bounds[:, 0]):
            raise InvalidInputError("x_bounds must be ordered")
        if np.any(self.v_bounds[:, 1] < self.v_bounds[:, 0]):
            raise InvalidInputError("v_bounds must be ordered")
        if self.amplitude < 0:
            raise InvalidInputError("amplitude must be >= 0")
        if self.kind == "two_bump" and self.x_centers is None:
            self.x_centers = np.stack([self.x_bounds.mean(axis=1) - 0.5,
                                       self.x_bounds.mean(axis=1) + 0.5])
            self.v_centers = np.stack([self.v_bounds.mean(axis=1) + 0.5,
                                       self.v_bounds.mean(axis=1) - 0.5])
        if self.kind in ("product_gaussian_truncated", "two_bump"):
            # (n_bumps, dim) centres: a product Gaussian is the one-bump
            # case, centred on the box means unless given
            bumps = 1 if self.kind == "product_gaussian_truncated" else -1
            for name, bounds in (("x_centers", self.x_bounds), ("v_centers", self.v_bounds)):
                c = getattr(self, name)
                c = bounds.mean(axis=1) if c is None else c
                setattr(self, name, np.asarray(c, float).reshape(bumps, self.dim))

    @property
    def support_bound(self):
        """Radius M0 of the velocity support ball implied by v_bounds."""
        corner = np.max(np.abs(self.v_bounds), axis=1)
        return float(np.sqrt((corner ** 2).sum()))

    def density(self, x, v):
        """Evaluate f0 at points x (..., d), v (..., d).

        The last axis holds the coordinates; the leading axes broadcast, so
        x (n, 1, d) against v (1, m, d) gives the (n, m) values of every
        x-v pair.  Each value takes the same operations as on the
        row-wise pairs, so it is bit-identical to them; the per-axis
        sums run once per x and once per v row.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        v = np.atleast_2d(np.asarray(v, dtype=float))
        inside = (np.all((x >= self.x_bounds[:, 0]) & (x <= self.x_bounds[:, 1]), axis=-1)
                  & np.all((v >= self.v_bounds[:, 0]) & (v <= self.v_bounds[:, 1]), axis=-1))
        if self.kind == "box_indicator":
            vals = self.amplitude * np.ones(inside.shape)
        elif self.kind in ("product_gaussian_truncated", "two_bump"):
            vals = np.zeros(inside.shape)
            for xc, vc in zip(self.x_centers, self.v_centers):
                vals += self.amplitude * np.exp(
                    -((x - xc) ** 2).sum(axis=-1) / (2 * self.x_sigma ** 2)
                    - ((v - vc) ** 2).sum(axis=-1) / (2 * self.v_sigma ** 2)
                )
        else:
            raise InvalidInputError(f"unknown initial kind {self.kind!r}")
        return np.where(inside, vals, 0.0)


def sample_initial(spec: InitialDistributionSpec, lam, radius, rng=None):
    """Discretize f0 into an Ensemble.

    tensor_grid places a particle at every phase-cell center with the cell
    volume as its phase volume; monte_carlo draws from the normalized f0 by
    rejection sampling and assigns equal masses.
    """
    d = spec.dim
    mode = spec.sampling[0]
    if mode == "tensor_grid":
        _, n_x, n_v = spec.sampling
        Xc, dx = _cell_centres(spec.x_bounds, n_x)
        Vc, dv = _cell_centres(spec.v_bounds, n_v)
        xx = np.repeat(Xc, len(Vc), axis=0)
        vv = np.tile(Vc, (len(Xc), 1))
        dens = spec.density(xx, vv)
        keep = dens > 0
        xx, vv, dens = xx[keep], vv[keep], dens[keep]
        vol = np.full(len(xx), dx * dv)
        mass = dens * vol
    elif mode == "monte_carlo":
        _, n_particles, seed = spec.sampling
        rng = np.random.default_rng(seed) if rng is None else rng
        total = _total_mass(spec)
        if total == 0.0 or n_particles == 0:
            xx = np.zeros((0, d)); vv = np.zeros((0, d))
            dens = np.zeros(0); vol = np.ones(0); mass = np.zeros(0)
        else:
            xx, vv = rejection_sample(spec, n_particles, rng)
            dens = spec.density(xx, vv)
            mass = np.full(n_particles, total / n_particles)
            vol = mass / dens
    else:
        raise InvalidInputError(f"unknown sampling mode {mode!r}")
    return Ensemble(
        t=0.0, dim=d, lam=lam, radius=radius,
        x=xx, v=vv, mass=mass, density_value=dens, phase_volume=vol,
        initial_support_bound=spec.support_bound,
    )


def rejection_sample(spec: InitialDistributionSpec, n, rng):
    """n phase points (x, v), each (n, d), drawn from the normalized f0 by
    rejection from its boxes; f0 must not be zero everywhere when n > 0."""
    d = spec.dim
    # f0 peaks at the amplitude, or below n times it where n bumps overlap
    sup = (1 if spec.kind == "box_indicator" else len(spec.x_centers)) * spec.amplitude
    xs, vs = [np.zeros((0, d))], [np.zeros((0, d))]
    need = n
    while need > 0:
        m = max(4 * need, 256)
        cx = rng.uniform(spec.x_bounds[:, 0], spec.x_bounds[:, 1], size=(m, d))
        cv = rng.uniform(spec.v_bounds[:, 0], spec.v_bounds[:, 1], size=(m, d))
        u = rng.uniform(0.0, sup, size=m)
        acc = u < spec.density(cx, cv)
        cx, cv = cx[acc], cv[acc]
        take = min(need, len(cx))
        xs.append(cx[:take]); vs.append(cv[:take])
        need -= take
    return np.concatenate(xs), np.concatenate(vs)


MASS_PROOF_CELLS = 64  # x-cells per slice of the mesh in `has_mass`


def has_mass(spec: InitialDistributionSpec, n=None):
    """Whether `_total_mass(spec, n)` is nonzero, mostly without evaluating
    its whole mesh.  Every mesh value is >= 0 and rounding is monotone, so
    the quadrature's sum is at least any one value v, and v*cellvol > 0
    proves the mass positive.  Slices of x-cells are tried in order; if
    none holds such a value, the full quadrature decides."""
    X, V, cellvol = _mesh(spec, n)
    for lo in range(0, len(X), MASS_PROOF_CELLS):
        vals = spec.density(X[lo:lo + MASS_PROOF_CELLS, None, :], V[None, :, :])
        if vals.max() * cellvol > 0:
            return True
    return _total_mass(spec, n) != 0.0


def _cell_centres(bounds, n, vol=1.0):
    """Centres of the n-per-axis cells of the box `bounds` (d, 2), first
    axis slowest, and `vol` times the cell widths, multiplied in axis order."""
    axes = []
    for lo, hi in bounds:
        edges = np.linspace(lo, hi, n + 1)
        axes.append(0.5 * (edges[:-1] + edges[1:]))
        vol *= (hi - lo) / n
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=1), vol


def _total_mass(spec, n=None):
    """Midpoint quadrature of f0 over its bounding boxes."""
    vals, cellvol = _grid_eval(spec, n)
    return float(vals.sum() * cellvol)


def _mesh(spec, n=None):
    """Centres of the n^d x-cells and of the n^d v-cells of the n^{2d}-cell
    phase mesh, and its cell volume."""
    if n is None:
        # keep the phase-space mesh near 10^6 points regardless of dimension
        n = {1: 512, 2: 32, 3: 10}[spec.dim]
    X, cellvol = _cell_centres(spec.x_bounds, n)
    V, cellvol = _cell_centres(spec.v_bounds, n, cellvol)
    return X, V, cellvol


def _grid_eval(spec, n=None):
    """f0 at the centres of the n^{2d}-cell phase mesh, x-cells major, and
    the cell volume.  The mesh is the outer product of its n^d x-cells and
    n^d v-cells, so only the final values take n^{2d} memory."""
    X, V, cellvol = _mesh(spec, n)
    return spec.density(X[:, None, :], V[None, :, :]).reshape(-1), cellvol


def moments_at_points(ensemble: Ensemble, centers, r):
    """(rho, j) at many probe points: neighbourhood sums of the weights
    (m_j, m_j v_j) over the strict radius-r balls."""
    weights = np.empty((ensemble.n, 1 + ensemble.dim))
    weights[:, 0] = ensemble.mass
    np.multiply(ensemble.mass[:, None], ensemble.v, out=weights[:, 1:])
    sums = neighborhood_sums(ensemble.x, centers, r, weights)
    return sums[:, 0], sums[:, 1:]


def mean_field(ensemble: Ensemble, centers, r, delta=0.0):
    """The mean velocity field j/(delta + rho) at each centre, (m, d), from
    the moments over the strict radius-r balls.  delta = 0 gives j/rho
    where rho > 0 and 0 on empty neighbourhoods."""
    if delta < 0:
        raise InvalidInputError("delta must be >= 0")
    rho, j = moments_at_points(ensemble, centers, r)
    rho = rho[:, None]
    if delta > 0:
        return j / (delta + rho)
    return np.divide(j, rho, out=np.zeros_like(j), where=rho > 0)


def _flow(ens: Ensemble, E, dt):
    """New (x, v) after one `exact_step` of length dt under the (N, d)
    field values E at the particle positions."""
    E = np.asarray(E, dtype=float).reshape(ens.n, ens.dim)
    if not np.isfinite(E).all():
        bad = int(np.nonzero(~np.isfinite(E).all(axis=1))[0][0])
        raise InvariantViolationError(
            f"non-finite field value at particle {bad}, x={ens.x[bad]}", index=bad)
    return exact_step(ens.x, ens.v, E, ens.lam, dt)


@dataclass
class KineticRunResult:
    snapshots: list = field(default_factory=list)  # list of Ensemble
    snapshot_steps: list = field(default_factory=list)


def run_linear(ensemble0: Ensemble, field, T, dt, snapshot_stride=1):
    """Advance the ensemble under a prescribed field evaluator
    (t, X) -> (N, d); the linear problem driven by a frozen external field.
    Time and growth come from `march`'s step count."""
    def step(ens, k, t):
        x, v = _flow(ens, field(ens.t, ens.x), dt) if ens.n else (ens.x, ens.v)
        return ensemble0.stepped(t, x, v)

    return KineticRunResult(*march(ensemble0, step, T, dt, snapshot_stride))


def run_self_consistent(ensemble0: Ensemble, T, dt, delta=0.0,
                        snapshot_stride=1):
    """Self-consistent nonlinear run: at each step evaluate the
    (regularized) mean velocity field at every particle position from the
    current ensemble and advance one frozen-field step, with time and
    growth from `march`'s step count as in `run_linear`.

    delta = 0 selects the unregularized field with its zero branch on empty
    neighborhoods.
    """
    if delta < 0:
        raise InvalidInputError("delta must be >= 0")
    m0 = ensemble0.initial_support_bound
    r = ensemble0.radius

    def step(ens, k, t):
        E = mean_field(ens, ens.x, r, delta)
        ens = ensemble0.stepped(t, *_flow(ens, E, dt))
        speed = np.sqrt((ens.v ** 2).sum(axis=1))
        if speed.max(initial=0.0) > m0 + SUPPORT_SLACK:
            raise InvariantViolationError(
                f"velocity support bound violated: |v|={speed.max():.17g} "
                f"> M0={m0:.17g}", step=k, index=int(speed.argmax()))
        return ens

    return KineticRunResult(*march(ensemble0, step, T, dt, snapshot_stride))
