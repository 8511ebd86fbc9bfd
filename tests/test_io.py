"""The columnar CSV writer against the row-at-a-time writers it replaced.

Every public writer must produce byte-identical files to the reference
writers below (one `fmt` call per cell, one `fh.write` per row), at the
default block size and at a block size of 7 rows, so that block
boundaries fall inside a snapshot."""

import numpy as np
import pytest

import kinflock.io as kio
from kinflock.diagnostics import DiagnosticsReport
from kinflock.fixed_point import FieldGrid
from kinflock.io import fmt
from kinflock.oracle import PhaseGrid
from kinflock.phase import AgentState, Ensemble, HeadingState

SPECIAL = [-0.0, 5e-324, 0.1, 1e22, 3.0, -7.0, 2.0 ** 53, -1e-300, np.pi]
POSITIVE = [5e-324, 0.1, 1e22, 3.0, 2.0 ** 53, 1e-300, np.pi]


# --- reference writers: one row at a time --------------------------------

def _ref_rows(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def ref_particles(path, snapshots, steps):
    dim = snapshots[0].dim if snapshots else 1
    header = (["step", "t", "id"] + [f"x{k}" for k in range(dim)]
              + [f"v{k}" for k in range(dim)]
              + ["mass", "density_value", "phase_volume"])
    _ref_rows(path, header, (
        [str(step), fmt(e.t), str(i)] + [fmt(c) for c in e.x[i]]
        + [fmt(c) for c in e.v[i]]
        + [fmt(e.mass[i]), fmt(e.density_value[i]), fmt(e.phase_volume[i])]
        for step, e in zip(steps, snapshots) for i in range(e.n)))


def ref_agents(path, snapshots, steps):
    dim = snapshots[0].dim if snapshots else 1
    header = (["step", "t", "id"] + [f"x{k}" for k in range(dim)]
              + [f"v{k}" for k in range(dim)])
    _ref_rows(path, header, (
        [str(step), fmt(s.t), str(i)] + [fmt(c) for c in s.positions[i]]
        + [fmt(c) for c in s.velocities[i]]
        for step, s in zip(steps, snapshots) for i in range(s.n)))


def ref_headings(path, snapshots, steps):
    _ref_rows(path, ["step", "t", "id", "x0", "x1", "heading"], (
        [str(step), fmt(s.t), str(i), fmt(s.positions[i][0]),
         fmt(s.positions[i][1]), fmt(s.headings[i])]
        for step, s in zip(steps, snapshots) for i in range(s.n)))


def ref_grid(path, snapshots, steps):
    _ref_rows(path, ["t", "x", "v", "f"], (
        [fmt(g.t), fmt(x), fmt(v), fmt(g.values[ix, iv])]
        for _, g in zip(steps, snapshots)
        for ix, x in enumerate(g.x_nodes) for iv, v in enumerate(g.v_nodes)))


def ref_field(path, grid):
    dim = grid.dim
    header = (["time"] + [f"x{k}" for k in range(dim)]
              + [f"E{k}" for k in range(dim)])
    nodes = grid.node_points
    flat = grid.values.reshape(len(grid.times), len(nodes), dim)
    _ref_rows(path, header, (
        [fmt(t)] + [fmt(c) for c in pt] + [fmt(c) for c in flat[k, m]]
        for k, t in enumerate(grid.times) for m, pt in enumerate(nodes)))


def ref_diagnostics_csv(path, records):
    keys = sorted({k for rec in records for k in rec})
    _ref_rows(path, keys, (
        [fmt(rec[k]) if isinstance(rec.get(k), (int, float, np.floating))
         else str(rec.get(k, "")) for k in keys] for rec in records))


# --- inputs ---------------------------------------------------------------

def _values(rng, n, pool, shape=()):
    """n draws mixing random doubles of many scales with the special values."""
    a = rng.standard_normal((n,) + shape) * 10.0 ** rng.integers(-20, 20, (n,) + shape)
    if pool is POSITIVE:
        a = np.abs(a)
    flat = a.reshape(-1)
    flat[: min(len(pool), flat.size)] = pool[: flat.size]
    return a


def ensemble(rng, n, dim, t):
    return Ensemble(t, dim, 1.0, 0.5, _values(rng, n, SPECIAL, (dim,)),
                    _values(rng, n, SPECIAL, (dim,))[::-1],
                    _values(rng, n, POSITIVE), _values(rng, n, POSITIVE)[::-1],
                    _values(rng, n, POSITIVE))


@pytest.fixture(params=["default", 7])
def rows_per_write(request, monkeypatch):
    if request.param != "default":
        monkeypatch.setattr(kio, "ROWS_PER_WRITE", request.param)
    return kio.ROWS_PER_WRITE


def assert_same(tmp_path, write, ref, *args):
    write(str(tmp_path / "new.csv"), *args)
    ref(str(tmp_path / "ref.csv"), *args)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


# --- tests ----------------------------------------------------------------

@pytest.mark.parametrize("dim", [1, 2, 3])
def test_particles(tmp_path, rows_per_write, dim):
    rng = np.random.default_rng(dim)
    # 14 rows: an exact multiple of a 7-row block; 0 rows: an empty ensemble
    snaps = [ensemble(rng, n, dim, t) for n, t in
             [(14, 0.0), (0, 0.1), (23, 1e22), (3, -0.0)]]
    assert_same(tmp_path, kio.write_particle_snapshots, ref_particles,
                snaps, [0, 3, 10, 12])


def test_particles_without_snapshots_writes_header(tmp_path, rows_per_write):
    assert_same(tmp_path, kio.write_particle_snapshots, ref_particles, [], [])
    assert (tmp_path / "new.csv").read_text().count("\n") == 1


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_agents(tmp_path, rows_per_write, dim):
    rng = np.random.default_rng(10 + dim)
    snaps = [AgentState(t, dim, _values(rng, n, SPECIAL, (dim,)),
                        _values(rng, n, SPECIAL, (dim,)))
             for n, t in [(21, 0.0), (0, 0.25), (9, 5e-324)]]
    assert_same(tmp_path, kio.write_agent_snapshots, ref_agents, snaps, [0, 1, 2])


def test_headings(tmp_path, rows_per_write):
    rng = np.random.default_rng(20)
    snaps = [HeadingState(t, _values(rng, n, SPECIAL, (2,)),
                          rng.uniform(-np.pi, np.pi, n), 0.5)
             for n, t in [(7, 0), (0, 1), (30, 2)]]
    assert_same(tmp_path, kio.write_heading_snapshots, ref_headings, snaps, [0, 1, 2])


@pytest.mark.parametrize("n_x,n_v", [(5, 3), (128, 128)])
def test_grid(tmp_path, rows_per_write, n_x, n_v):
    # 128 x 128 = 16384 rows per snapshot: an exact multiple of the default block
    rng = np.random.default_rng(n_x)
    snaps = [PhaseGrid(_values(rng, n_x, SPECIAL), np.linspace(-3, 3, n_v),
                       _values(rng, n_x * n_v, POSITIVE).reshape(n_x, n_v), t, 1.0)
             for t in (0.0, 0.1, 1e22)]
    assert_same(tmp_path, kio.write_grid_snapshots, ref_grid, snaps, [0, 1, 2])


@pytest.mark.parametrize("dim", [1, 2])
def test_field(tmp_path, rows_per_write, dim):
    rng = np.random.default_rng(30 + dim)
    axes = [np.linspace(-1.0, 1.0, 5), np.array([-0.0, 0.1, 1e22])][:dim]
    shape = (4,) + tuple(len(a) for a in axes) + (dim,)
    grid = FieldGrid([0.0, 0.1, 0.2, 0.30000000000000004], axes,
                     _values(rng, int(np.prod(shape)), SPECIAL).reshape(shape), 1.0)
    assert_same(tmp_path, kio.write_field_csv, ref_field, grid)


def test_diagnostics_csv(tmp_path, rows_per_write):
    records = [{"t": 0.0, "step": 0, "mass": 1e22, "label": "start", "ok": True},
               {"t": 0.1, "step": np.int64(3), "mass": np.float64(-0.0)},
               {"t": 5e-324, "extra": 7, "label": "end"}]
    records += [{"t": float(k), "step": k, "mass": 0.1 * k} for k in range(12)]
    kio.write_report(str(tmp_path), DiagnosticsReport(records=records))
    ref_diagnostics_csv(str(tmp_path / "ref.csv"), records)
    assert (tmp_path / "diagnostics.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_report_without_records_writes_no_csv(tmp_path):
    kio.write_report(str(tmp_path), DiagnosticsReport())
    assert (tmp_path / "diagnostics.json").is_file()
    assert not (tmp_path / "diagnostics.csv").exists()
