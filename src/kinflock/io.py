"""CSV/JSON serialization.  Every float is written exactly as Python's
`format(x, ".17g")` writes it: 17 significant digits, so outputs round-trip
and byte-compare across runs.  An int is written as `float(x)` would be.

CSV cells are rendered a column at a time in numpy.  `_render` is an exact
vectorised `%.17g`: the 17 digits of |x| are `round(|x| * 10**(16 - k))`
with `k = floor(log10 |x|)`, computed in double-double arithmetic from a
table of `10**q = (hi + lo) * 2**b` (the idea of Adams, "Ryu: fast
float-to-string conversion", PLDI 2018), then laid out by Python's `g`
rule.  An element whose rounding that arithmetic cannot certify (an exact
tie, under 0.1% of random finite doubles), and every inf and nan, is
formatted by Python one at a time."""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import os

import numpy as np

ROWS_PER_WRITE = 1 << 14  # rows formatted and written per fh.write call

_Q0, _Q1 = -294, 341  # the 10**q table covers q = 16 - k for every double, +-1
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into halves
_TIE = 0.5 - 2.0 ** -40  # |x| * 10**(16 - k) < 2**57 is computed to 2**-44

# Columns of the per-element source row that a layout gathers from: the 17
# digits, then '0', '-', '.', 'e', the exponent's sign and its 3 digits.
_ZERO, _MINUS, _DOT, _E, _ESIGN, _EXP = 17, 18, 19, 20, 21, 22
_NOTATIONS = 23  # fixed for k = -4..16, then exponent with 2 or 3 digits


def fmt(x):
    """17-significant-digit decimal rendering of a float."""
    return f"{float(x):.17g}"


@functools.cache
def _pow10():
    """Read-only arrays hi, lo, b, and hi split in halves, with
    `10**q = (hi + lo) * 2**b` to a relative 2**-104 for q = _Q0.._Q1
    (row q - _Q0), hi in [1, 2) and 0 <= lo < 2**-52.  Built on first use
    from running products, without a power or a long division per row."""
    # 10**q rounded down is m * 2**-t: for q < 0, m = 2**t // 10**-q, which
    # keeps 128 bits down to _Q0 and is exact by floor(floor(x)/10) = floor(x/10)
    t = 128 - 4 * _Q0
    down = itertools.accumulate([1 << t] + [10] * -_Q0, operator.floordiv)
    up = itertools.accumulate([1] + [10] * _Q1, operator.mul)
    hi, lo, b = [], [], []
    for m, t in [(m, t) for m in list(down)[:0:-1]] + [(m, 0) for m in up]:
        shift = m.bit_length() - 128  # keep 128 bits: 53 for hi, 75 for lo
        m, t = (m >> shift if shift > 0 else m << -shift), t - shift
        hi.append(math.ldexp(m >> 75, -52))
        lo.append(math.ldexp(m & ((1 << 75) - 1), -127))
        b.append(127 - t)
    hi = np.array(hi)
    c = _SPLIT * hi
    tables = (hi, np.array(lo), np.array(b), c - (c - hi), hi - (c - (c - hi)))
    for table in tables:
        table.setflags(write=False)
    return tables


@functools.cache
def _quad():
    """Read-only ASCII of 0000..9999, four digits to a uint32."""
    quad = (np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8)
    quad = quad.view(np.uint32).reshape(-1)
    quad.setflags(write=False)
    return quad


@functools.cache
def _layout(key):
    """Source columns of the characters of one `g` rule layout.  The key is
    `(negative * _NOTATIONS + notation) * 17 + nd - 1`, with notation k + 4
    for fixed k = -4..16, 21 and 22 for 2 and 3 exponent digits, and nd the
    digits left once trailing zeros go."""
    negative, notation, nd = key // (_NOTATIONS * 17), key // 17 % _NOTATIONS, key % 17 + 1
    digits = list(range(17))

    def point(p, m):  # digits 0..m-1, with a '.' after p of them if any follow
        return digits[:p] + ([_DOT] + digits[p:m] if m > p else [])

    cols = [_MINUS] * negative
    k = notation - 4
    if notation > 20:
        cols += point(1, nd) + [_E, _ESIGN] + list(range(_EXP + 22 - notation, _EXP + 3))
    elif k >= 0:
        cols += point(k + 1, max(nd, k + 1))  # the 17 digits hold the zeros
    else:
        cols += [_ZERO, _DOT] + [_ZERO] * (-k - 1) + digits[:nd]
    cols = np.array(cols, np.intp)
    cols.setflags(write=False)
    return cols


def _digits(x):
    """17 decimal digits of float64 `x`: `(d, k, ok)` with
    `|x| = d * 10**(k - 16)` rounded to nearest, d in [1e16, 1e17), or
    d = k = 0 for a zero.  ok is False where that rounding is not certified
    and for inf and nan; d and k are then meaningless."""
    hi, lo, b, hi_h, hi_l = _pow10()
    ax = np.abs(x)
    regular = np.isfinite(ax) & (ax > 0)
    ax = np.where(regular, ax, 1.0)
    f, e2 = np.frexp(ax)
    c = _SPLIT * f
    f_h = c - (c - f)
    f_l = f - f_h
    k = np.floor(np.log10(ax)).astype(np.int64)

    def scaled(i):
        """|x| * 10**(16 - k) at rows i as P + R: P = fl(f * hi) scaled is
        whole once >= 2**53, and Dekker's two-product error plus f * lo go
        into R."""
        j = 16 - _Q0 - k[i]
        fi, fh, fl, h, hh, hl = f[i], f_h[i], f_l[i], hi[j], hi_h[j], hi_l[j]
        p = fi * h
        r = ((fh * hh - p) + fh * hl + fl * hh) + fl * hl + fi * lo[j]
        s = e2[i] + b[j]
        return np.ldexp(p, s), np.ldexp(r, s)

    def off_range(P, R):  # -1 below 1e16, +1 at or above 1e17 (both exact doubles)
        return ((P - 1e17) + R >= 0).astype(np.int64) - ((P - 1e16) + R < 0)

    # log10 is at most one off: one correction, then certify.  A value
    # within the arithmetic's error of 1e16 gives 1e16 at k from either side.
    P, R = scaled(slice(None))
    step = off_range(P, R)
    fix = np.flatnonzero(step)
    k[fix] += step[fix]
    P[fix], R[fix] = scaled(fix)
    rounded = np.rint(R)
    ok = regular & (np.abs(R - rounded) < _TIE) & (off_range(P, R) == 0)
    d = P.astype(np.int64) + rounded.astype(np.int64)
    carry = d == 10 ** 17
    d = np.where(regular, np.where(carry, 10 ** 16, d), 0)
    k = np.where(regular, k + carry, 0)
    return d, k, ok | (x == 0)


def _render(values):
    """`format(v, ".17g")` of each number in `values` as ASCII, one element
    per row of a NUL-padded uint8 matrix.  Python formats a column shorter
    than _PYTHON_BELOW itself: the numpy kernel costs about 0.3 ms a call,
    as much as Python takes for about 300 values."""
    x = np.asarray(values, dtype=np.float64).reshape(-1)
    n = len(x)
    if n < _PYTHON_BELOW:
        text = [f"{v:.17g}".encode("ascii") for v in x.tolist()]
        width = max([1] + [len(t) for t in text])
        return np.frombuffer(b"".join(t.ljust(width, b"\0") for t in text),
                             np.uint8).reshape(n, width)
    quad = _quad()
    d, k, ok = _digits(x)
    groups = np.empty((n, 4), np.int64)
    for col in (3, 2, 1, 0):
        d, groups[:, col] = np.divmod(d, 10000)
    src = np.empty((n, _EXP + 3), np.uint8)
    src[:, 0] = d + ord("0")
    src[:, 1:17] = quad.take(groups).view(np.uint8)
    src[:, _ZERO:_ESIGN] = np.frombuffer(b"0-.e", np.uint8)
    src[:, _ESIGN] = np.where(k < 0, ord("-"), ord("+"))
    src[:, _EXP:] = quad.take(np.abs(k)).view(np.uint8).reshape(n, 4)[:, 1:]
    trailing = src[:, 16::-1] != ord("0")
    trailing[:, 16] = True  # the lead digit stays, also for a zero
    nd = 17 - np.argmax(trailing, axis=1)
    notation = np.where((k >= -4) & (k < 17), k + 4, 21 + (np.abs(k) >= 100))
    key = ((np.signbit(x) * _NOTATIONS + notation) * 17 + nd - 1).astype(np.int16)

    # Rows sorted by layout, so that each layout is one column gather.
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1)).tolist()
    layouts = [_layout(g) for g in key[starts].tolist()]
    slow = np.flatnonzero(~ok)
    text = [f"{v:.17g}".encode("ascii") for v in x[slow].tolist()]
    width = max([1] + [len(c) for c in layouts] + [len(t) for t in text])
    src = src[order]
    rows = np.zeros((n, width), np.uint8)
    for a, b, cols in zip(starts, starts[1:] + [n], layouts):
        rows[a:b, :len(cols)] = src[a:b].take(cols, axis=1)
    out = np.empty_like(rows)
    out[order] = rows
    for i, t in zip(slow, text):
        out[i] = 0
        out[i, :len(t)] = np.frombuffer(t, np.uint8)
    return out


_PYTHON_BELOW = 256


def _labels(values):
    """`fmt` of each number in `values`, as a numpy bytes array."""
    out = _render(values)
    return out.view(f"S{out.shape[1]}").reshape(-1)


def create(path, mode="w"):
    """Open `path` for writing, making its directory first: an output
    directory appears only with its first file."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return open(path, mode, encoding=None if "b" in mode else "utf-8")


def _write_csv(path, header, blocks):
    """Write `header` and then each block `(n_rows, columns)`.  A column is
    one str shared by every row, a sequence of n_rows str, a numpy bytes
    array of n_rows cells, or an array of n_rows numbers rendered like
    `fmt`.  Each slice of at most ROWS_PER_WRITE rows becomes one
    NUL-padded byte matrix and one fh.write, so memory does not grow with
    the block.  Cells hold no NUL character."""
    with create(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        for n, columns in blocks:
            for a in range(0, n, ROWS_PER_WRITE):
                b = min(a + ROWS_PER_WRITE, n)
                cells = [_cells(c, a, b) for c in columns]
                rows = np.empty((b - a, sum(c.shape[1] + 1 for c in cells)), np.uint8)
                end = 0
                for c in cells:
                    rows[:, end:end + c.shape[1]] = c
                    end += c.shape[1] + 1
                    rows[:, end - 1] = ord(",")
                rows[:, -1] = ord("\n")
                fh.write(rows.tobytes().translate(None, b"\0"))


def _cells(column, a, b):
    """Rows a..b of one column as a NUL-padded uint8 matrix with one row
    per cell, or one row that every cell shares."""
    if isinstance(column, str):
        return np.frombuffer(column.encode("utf-8"), np.uint8)[None, :]
    if not isinstance(column, np.ndarray):
        column = np.array([s.encode("utf-8") for s in column[a:b]], dtype=np.bytes_)
        a, b = 0, len(column)
    if column.dtype.kind == "S":
        return np.ascontiguousarray(column[a:b]).view(np.uint8).reshape(b - a, -1)
    return _render(column[a:b])


def _snapshot_blocks(steps, snapshots, columns):
    """Blocks of rows `step, t, id, *columns(snapshot)`.  Consecutive
    snapshots share a block up to ROWS_PER_WRITE rows (a larger one is a
    block alone), so small snapshots share their render calls."""
    batch, rows = [], 0
    for step, s in zip(steps, snapshots):
        if batch and rows + s.n > ROWS_PER_WRITE:
            yield _stacked(batch, columns)
            batch, rows = [], 0
        batch.append((step, s))
        rows += s.n
    if batch:
        yield _stacked(batch, columns)


def _stacked(batch, columns):
    """One block of the (step, snapshot) pairs in `batch`."""
    n = [s.n for _, s in batch]
    steps = np.array([str(step) for step, _ in batch], dtype=np.bytes_)
    return sum(n), [np.repeat(steps, n), np.repeat(_labels([s.t for _, s in batch]), n),
                    np.concatenate([np.arange(k) for k in n]).astype(np.bytes_),
                    *map(np.concatenate, zip(*(columns(s) for _, s in batch)))]


def write_particle_snapshots(path, snapshots, steps):
    """Snapshot CSV: step,t,id,x0..,v0..,mass,density_value,phase_volume."""
    dim = snapshots[0].dim if snapshots else 1
    header = (["step", "t", "id"]
              + [f"x{k}" for k in range(dim)]
              + [f"v{k}" for k in range(dim)]
              + ["mass", "density_value", "phase_volume"])
    _write_csv(path, header, _snapshot_blocks(steps, snapshots, lambda e: [
        *e.x.T, *e.v.T, e.mass, e.density_value, e.phase_volume]))


def write_agent_snapshots(path, snapshots, steps):
    dim = snapshots[0].dim if snapshots else 1
    header = (["step", "t", "id"]
              + [f"x{k}" for k in range(dim)]
              + [f"v{k}" for k in range(dim)])
    _write_csv(path, header, _snapshot_blocks(steps, snapshots, lambda s: [
        *s.positions.T, *s.velocities.T]))


def _mesh_blocks(outer, inner, values):
    """Blocks for a table with one row per (outer, inner) pair, outer-major:
    the `outer` labels, the `inner` label columns, then the `values`
    columns, each of shape (len(outer), n_inner).  A block is whole outer
    rows, at most ROWS_PER_WRITE cells if one row fits, so the repeated
    labels take memory per slice and each block renders in a few calls."""
    n_inner = len(inner[0])
    rows = max(1, ROWS_PER_WRITE // n_inner)
    for a in range(0, len(outer), rows):
        o = outer[a:a + rows]
        yield o.size * n_inner, [np.repeat(o, n_inner), *(np.tile(c, o.size) for c in inner),
                                 *(v[a:a + rows].reshape(-1) for v in values)]


def write_grid_snapshots(path, snapshots, steps):
    """Grid snapshot CSV: t,x,v,f — one row per cell, x-major then v."""
    def blocks(g):
        xs, vs = _labels(g.x_nodes), _labels(g.v_nodes)
        t = fmt(g.t)
        for n, columns in _mesh_blocks(xs, [vs], [g.values.reshape(len(xs), len(vs))]):
            yield n, [t, *columns]

    _write_csv(path, ["t", "x", "v", "f"],
               (b for _, g in zip(steps, snapshots) for b in blocks(g)))


def write_field_csv(path, grid):
    """Field CSV: time node, spatial node coordinates, field components."""
    dim = grid.dim
    header = (["time"] + [f"x{k}" for k in range(dim)]
              + [f"E{k}" for k in range(dim)])
    points = grid.node_points
    flat = grid.values.reshape(len(grid.times), len(points), dim)
    _write_csv(path, header, _mesh_blocks(_labels(grid.times), [_labels(c) for c in points.T],
                                          [flat[:, :, k] for k in range(dim)]))


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    return obj


def write_report(out_dir, report):
    """diagnostics.json plus a flat diagnostics.csv of the time series."""
    doc = _jsonify(report.to_dict())
    with create(os.path.join(out_dir, "diagnostics.json")) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    records = report.records
    if records:
        keys = sorted({k for rec in records for k in rec})
        columns = [[fmt(rec[k]) if isinstance(rec.get(k), (int, float, np.floating))
                    else str(rec.get(k, "")) for rec in records] for k in keys]
        _write_csv(os.path.join(out_dir, "diagnostics.csv"), keys,
                   [(len(records), columns)])
