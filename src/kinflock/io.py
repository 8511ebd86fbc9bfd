"""CSV/JSON serialization.  All floating point numbers are written with 17
significant digits so outputs round-trip and byte-compare across runs."""

from __future__ import annotations

import json
import os
from itertools import repeat

import numpy as np

ROWS_PER_WRITE = 1 << 14  # rows formatted and written per fh.write call


def fmt(x):
    """17-significant-digit decimal rendering of a float."""
    return f"{float(x):.17g}"


def _write_csv(path, header, blocks):
    """Write `header` and then each block `(n_rows, columns)`.  A column is
    one str shared by every row, a list of n_rows str, or an array of n_rows
    numbers rendered like `fmt`.  Rows are formatted and written in slices
    of at most ROWS_PER_WRITE, so memory does not grow with the block."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for n, columns in blocks:
            for a in range(0, n, ROWS_PER_WRITE):
                b = min(a + ROWS_PER_WRITE, n)
                cells = [_cells(c, a, b) for c in columns]
                fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _cells(column, a, b):
    """Rows a..b of one column as str cells."""
    if isinstance(column, str):
        return repeat(column, b - a)
    if isinstance(column, list):
        return column[a:b]
    return [f"{c:.17g}" for c in column[a:b].tolist()]


def _ids(n):
    return [str(i) for i in range(n)]


def write_particle_snapshots(path, snapshots, steps):
    """Snapshot CSV: step,t,id,x0..,v0..,mass,density_value,phase_volume."""
    dim = snapshots[0].dim if snapshots else 1
    header = (["step", "t", "id"]
              + [f"x{k}" for k in range(dim)]
              + [f"v{k}" for k in range(dim)]
              + ["mass", "density_value", "phase_volume"])
    _write_csv(path, header, (
        (e.n, [str(step), fmt(e.t), _ids(e.n), *e.x.T, *e.v.T,
               e.mass, e.density_value, e.phase_volume])
        for step, e in zip(steps, snapshots)))


def write_agent_snapshots(path, snapshots, steps):
    dim = snapshots[0].dim if snapshots else 1
    header = (["step", "t", "id"]
              + [f"x{k}" for k in range(dim)]
              + [f"v{k}" for k in range(dim)])
    _write_csv(path, header, (
        (s.n, [str(step), fmt(s.t), _ids(s.n), *s.positions.T, *s.velocities.T])
        for step, s in zip(steps, snapshots)))


def write_heading_snapshots(path, snapshots, steps):
    header = ["step", "t", "id", "x0", "x1", "heading"]
    _write_csv(path, header, (
        (s.n, [str(step), fmt(s.t), _ids(s.n), *s.positions.T, s.headings])
        for step, s in zip(steps, snapshots)))


def write_grid_snapshots(path, snapshots, steps):
    """Grid snapshot CSV: t,x,v,f — one row per cell, x-major then v."""
    def block(g):
        xs, vs = [fmt(x) for x in g.x_nodes], [fmt(v) for v in g.v_nodes]
        return g.values.size, [fmt(g.t), [x for x in xs for _ in vs],
                               vs * len(xs), g.values.reshape(-1)]

    _write_csv(path, ["t", "x", "v", "f"], (block(g) for _, g in zip(steps, snapshots)))


def write_field_csv(path, grid):
    """Field CSV: time node, spatial node coordinates, field components."""
    dim = grid.dim
    header = (["time"] + [f"x{k}" for k in range(dim)]
              + [f"E{k}" for k in range(dim)])
    points = grid.node_points
    nodes = [[fmt(c) for c in col] for col in points.T]
    flat = grid.values.reshape(len(grid.times), len(points), dim)
    _write_csv(path, header, ((len(points), [fmt(t), *nodes, *flat[k].T])
                              for k, t in enumerate(grid.times)))


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
    with open(os.path.join(out_dir, "diagnostics.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    records = report.records
    if records:
        keys = sorted({k for rec in records for k in rec})
        columns = [[fmt(rec[k]) if isinstance(rec.get(k), (int, float, np.floating))
                    else str(rec.get(k, "")) for rec in records] for k in keys]
        _write_csv(os.path.join(out_dir, "diagnostics.csv"), keys,
                   [(len(records), columns)])
