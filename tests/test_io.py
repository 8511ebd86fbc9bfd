"""The numpy CSV writer against the Python code it replaced.

`_render` must give exactly the strings of `python_cells`, the per-value
`%.17g` comprehension it replaced, and `_write_csv` must write the bytes of
`ref_write_csv`, the row-join writer it replaced.  Every public writer must
also produce byte-identical files to the reference writers below (one `fmt`
call per cell, one `fh.write` per row), at the default block size and at a
block size of 7 rows, so that block boundaries fall inside a snapshot."""

import math
import os
import subprocess
import sys
import tracemalloc
from itertools import repeat
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kinflock.io as kio
from kinflock.diagnostics import DiagnosticsReport
from kinflock.fixed_point import FieldGrid
from kinflock.io import fmt
from kinflock.oracle import PhaseGrid
from kinflock.phase import AgentState, Ensemble

SPECIAL = [-0.0, 5e-324, 0.1, 1e22, 3.0, -7.0, 2.0 ** 53, -1e-300, np.pi]
POSITIVE = [5e-324, 0.1, 1e22, 3.0, 2.0 ** 53, 1e-300, np.pi]


# --- reference: Python formatting and the row-join writer ----------------

def python_cells(column):
    """The per-value rendering `_render` replaced."""
    return [f"{c:.17g}" for c in column.tolist()]


def ref_write_csv(path, header, blocks):
    """The row-join writer `_write_csv` replaced."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for n, columns in blocks:
            for a in range(0, n, kio.ROWS_PER_WRITE):
                b = min(a + kio.ROWS_PER_WRITE, n)
                cells = [ref_cells(c, a, b) for c in columns]
                fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def ref_cells(column, a, b):
    if isinstance(column, str):
        return repeat(column, b - a)
    if isinstance(column, list):
        return column[a:b]
    if column.dtype.kind == "S":
        return [c.decode() for c in column[a:b].tolist()]
    return python_cells(column[a:b])


def rendered(column):
    """`_render`'s rows as str, checking that NULs only pad their ends."""
    out = kio._render(column)
    pad = out == 0
    assert not (pad[:, :-1] & ~pad[:, 1:]).any()
    return [c.decode() for c in out.view(f"S{out.shape[1]}").reshape(-1).tolist()]


def assert_renders_like_python(values):
    values = np.asarray(values)
    assert rendered(values) == python_cells(values)


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
               {"t": 0.05, "label": "λ → ∞, ü"},
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


# --- the kernel -------------------------------------------------------------

def _random_doubles(seed, n):
    """n uniformly random bit patterns: every exponent, nan and inf included."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2 ** 64, n, dtype=np.uint64).view(np.float64)


def test_render_random_bit_patterns():
    assert_renders_like_python(_random_doubles(0, 10 ** 6))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_render_any_floats(xs):
    # short columns are formatted by Python; repeated, they take the kernel
    values = np.array(xs, dtype=np.float64)
    assert_renders_like_python(values)
    assert_renders_like_python(np.resize(values, kio._PYTHON_BELOW))


def _near_powers_of_ten():
    tens = np.array([float(f"1e{q}") for q in range(-323, 309)])
    return np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf)])


def test_render_edge_values():
    near = _near_powers_of_ten()
    rng = np.random.default_rng(1)
    subnormal = rng.integers(1, 2 ** 52, 10000).view(np.float64)
    special = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               1e-5, 1e-4, np.nextafter(1e-4, 0), 0.00012345, 1e16, 1e17,
               np.nextafter(1e17, 0), 12345678901234567.0, 123456789012345678.0]
    values = np.concatenate([near, subnormal, special])
    assert_renders_like_python(np.concatenate([values, -values]))
    # the notation switches at k = -5/-4 and 16/17, and both zeros
    assert rendered(np.array([1e-5, 1e-4, np.nextafter(1e-4, 0), 1e16, 1e17,
                              np.nextafter(1e17, 0), -0.0, 0.0, 5e-324])) == [
        "1.0000000000000001e-05", "0.0001", "9.9999999999999991e-05",
        "10000000000000000", "1e+17", "99999999999999984", "-0", "0",
        "4.9406564584124654e-324"]


def test_render_exact_ties_and_large_values():
    # 10 * x ends in .5 exactly: a tie at the 17th digit, rounded half-even
    ties = 1e15 + 0.25 + 0.5 * np.arange(4000)
    large = np.random.default_rng(2).uniform(1e15, 1e18, 10 ** 5)
    assert_renders_like_python(np.concatenate([ties, -ties, large]))
    assert rendered(ties[:2]) == ["1000000000000000.2", "1000000000000000.8"]


def test_render_int64_and_column_views():
    rng = np.random.default_rng(3)
    info = np.iinfo(np.int64)
    ints = rng.integers(info.min, info.max, 10000)
    assert_renders_like_python(np.concatenate([ints, [0, 1, -1, 2 ** 53 + 1, info.max]]))
    a = rng.standard_normal((300, 3)) * 10.0 ** rng.integers(-30, 30, (300, 3))
    for column in [*a.T, a[::-7, 1], a.T[::-1][0]]:
        assert not column.flags.c_contiguous
        assert_renders_like_python(column)
    assert kio._render(np.array([])).shape[0] == 0


def test_few_values_fall_back():
    # fallback values are formatted one at a time: the kernel's speed rests
    # on there being few of them
    bits = _random_doubles(4, 10 ** 6)
    _, _, ok = kio._digits(bits[np.isfinite(bits)])
    assert (~ok).mean() < 0.005
    # where log10 misjudges the decade; the one fallback is an exact tie,
    # 100 * (1e15 - 1/8) = 99999999999999987.5
    near = _near_powers_of_ten()
    assert near[~kio._digits(near)[2]].tolist() == [1e15 - 0.125]
    x = np.linspace(-3.0, 3.0, 256)
    grid = np.exp(-(x[:, None] ** 2 + x[None, :] ** 2) / 0.5) / (np.pi * 0.5)
    assert kio._digits(grid.reshape(-1))[2].all()


def test_pow10_table_matches_the_per_row_formula():
    hi, lo, b = [], [], []
    for q in range(kio._Q0, kio._Q1 + 1):
        t = max(0, 4 * -q + 128)  # m * 2**-t is 10**q rounded down
        m = 10 ** q << t if q >= 0 else (1 << t) // 10 ** -q
        shift = m.bit_length() - 128
        m, t = (m >> shift if shift > 0 else m << -shift), t - shift
        hi.append(math.ldexp(m >> 75, -52))
        lo.append(math.ldexp(m & ((1 << 75) - 1), -127))
        b.append(127 - t)
    got = kio._pow10()
    assert [a.tolist() for a in got[:3]] == [hi, lo, b]


def test_import_builds_no_table():
    src = str(Path(kio.__file__).parents[1])
    code = ("import sys, kinflock.cli, kinflock.io as kio; "
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)), "
            "kio._pow10.cache_info().currsize, kio._quad.cache_info().currsize, "
            "kio._layout.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["[]", "0", "0", "0"]


# --- the writer ---------------------------------------------------------------

@pytest.mark.parametrize("n", [0, 1, kio.ROWS_PER_WRITE, kio.ROWS_PER_WRITE + 1])
def test_write_csv_matches_row_join(tmp_path, n):
    rng = np.random.default_rng(n)
    values = _values(rng, n, SPECIAL)
    blocks = [(n, ["7", [f"r{i}" for i in range(n)], values, np.arange(n).astype(np.bytes_),
                   np.arange(n) - n // 2, values[::-1]]),
              (3, ["", ["ü", "", "a,b"], np.array([np.nan, -np.inf, np.inf]),
                   np.array([b"x", b"", b"yz"]), np.array([3, -4, 5]), np.zeros(3)])]
    header = ["s", "list", "f", "bytes", "int", "rev"]
    kio._write_csv(str(tmp_path / "new.csv"), header, blocks)
    ref_write_csv(str(tmp_path / "ref.csv"), header, blocks)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_write_memory_is_bounded_per_slice(tmp_path):
    x = np.linspace(-3.0, 3.0, 128)

    def peak(n_v):  # a block of 128 * n_v rows
        v = np.linspace(-3.0, 3.0, n_v)
        grid = PhaseGrid(x, v, np.exp(-(x[:, None] ** 2 + v[None, :] ** 2)), 0.1, 1.0)
        tracemalloc.start()
        try:
            kio.write_grid_snapshots(str(tmp_path / "g.csv"), [grid], [0])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert 128 * 128 == kio.ROWS_PER_WRITE
    peak(128)  # builds the lazy tables
    one_slice = peak(128)
    assert peak(4 * 128) <= 1.5 * one_slice
    assert peak(16 * 128) <= 1.5 * one_slice
