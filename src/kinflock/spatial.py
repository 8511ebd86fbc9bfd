"""Exact strict-radius neighbour queries and correctly rounded
neighbourhood sums.

A point x_j is a neighbour of a centre c when sum((x_j - c)**2) < r*r,
evaluated in that order on every path.  Queries look at the 3^d cells of
a uniform grid (cell size defaults to the radius) around the centre.  Sums
are exact and rounded once (kinflock.limbs): they depend on the neighbour
set alone.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

import numpy as np

from . import limbs
from .errors import InvalidInputError

# Most centre-candidate pairs tested at once by neighborhood_sums in 2D and
# 3D; bounds its temporaries independently of the input size.
PAIR_BLOCK = 1 << 15
# 1D edges: the lower and the upper one, the sorted points just below and
# at an edge, and the values of its test there once the edge is in place
_SIDES, _UPPER = np.array([[-1.0], [1.0]]), np.array([[[False]], [[True]]])
_BELOW_AT, _EDGE_TESTS = np.array([-1, 0]), np.array([False, True])


def _group_rows(keys):
    """Stable grouping of equal integer rows: (order, starts) such that
    order[starts[g]:starts[g+1]] lists, ascending, the rows of group g."""
    order = np.lexsort(keys.T[::-1])
    change = np.any(np.diff(keys[order], axis=0) != 0, axis=1)
    starts = np.concatenate(([0], np.nonzero(change)[0] + 1, [len(order)]))
    return order, starts


class SpatialIndex:
    """Immutable after construction.  The grid and sort tables are built on
    first use and are deterministic, so concurrent read-only queries are
    safe."""

    def __init__(self, positions, cell_size):
        if not (cell_size > 0):
            raise InvalidInputError("cell_size must be positive")
        positions = np.asarray(positions, dtype=float)
        if positions.ndim == 1:
            positions = positions.reshape(-1, 1)
        if positions.size == 0:
            positions = positions.reshape(0, positions.shape[1] if positions.ndim == 2 else 1)
        if not np.all(np.isfinite(positions)):
            raise InvalidInputError("positions must be finite")
        self.positions = positions
        self.cell_size = float(cell_size)
        self.dim = positions.shape[1]

    @cached_property
    def _grid(self):
        """(keys, order, starts, cells): the points' cell keys, their
        grouping by _group_rows, and each occupied cell's point indices."""
        keys = self._keys(self.positions)
        order, starts = _group_rows(keys) if len(keys) else (None, [0])
        return keys, order, starts, {tuple(keys[order[a]]): order[a:b]
                                     for a, b in zip(starts[:-1], starts[1:])}

    @cached_property
    def _sorted(self):
        """1D: (order, x): an order of the points by coordinate, and their
        sorted coordinates between the sentinels -inf and +inf."""
        order = self.positions[:, 0].argsort()
        x = np.empty(len(order) + 2)
        x[0], x[-1] = -np.inf, np.inf
        np.take(self.positions[:, 0], order, out=x[1:-1])
        return order, x

    @property
    def n_occupied_cells(self):
        return len(self._grid[3])

    def _keys(self, points):
        return np.floor(points / self.cell_size).astype(np.int64)

    def _candidates(self, key, r):
        """Sorted indices of the points in the cells within reach of cell
        `key` (the 3^d stencil when r <= cell_size), or None if all are
        empty."""
        cells = self._grid[3]
        reach = int(math.ceil(r / self.cell_size))
        key = [int(k) for k in key]
        chunks = []
        for offset in itertools.product(range(-reach, reach + 1), repeat=self.dim):
            idx = cells.get(tuple(k + o for k, o in zip(key, offset)))
            if idx is not None:
                chunks.append(idx)
        return np.sort(np.concatenate(chunks)) if chunks else None

    def _check_query(self, r, centers):
        if not (r > 0):
            raise InvalidInputError("r must be positive")
        if centers.shape[1] != self.dim:
            raise InvalidInputError(
                f"center has dim {centers.shape[1]}, index has dim {self.dim}")
        if not np.isfinite(centers).all():
            raise InvalidInputError("centers must be finite")

    def query_radius(self, center, r):
        """Indices j with |x_j - center| < r (strict), as a sorted array."""
        center = np.asarray(center, dtype=float).reshape(1, -1)
        self._check_query(r, center)
        cand = self._candidates(self._keys(center)[0], r) if len(self.positions) else None
        if cand is None:
            return np.empty(0, dtype=np.int64)
        d2 = ((self.positions[cand] - center[0]) ** 2).sum(axis=1)
        return cand[d2 < r * r]

    def neighborhood_sums(self, centers, r, weights):
        """S[i] = sum of weights[j] over |x_j - centers[i]| < r (strict).

        centers is (m, d), or (m,) in 1D; weights is (n, k), or (n,) for
        k = 1, finite; returns (m, k).  Each column of S[i] is the exact
        sum over the neighbours query_radius(centers[i], r), rounded once
        to nearest-even: math.fsum's value, with +0.0 for a zero sum and
        +-inf (and numpy's overflow warning) for a sum beyond the double
        range.  So it depends on the neighbour set alone, not on the order
        of the points, PAIR_BLOCK or the number of BLAS threads.
        """
        centers = np.asarray(centers, dtype=float)
        if centers.ndim < 2:
            centers = centers.reshape(-1, 1) if self.dim == 1 else centers.reshape(1, -1)
        self._check_query(r, centers)
        weights = np.asarray(weights, dtype=float)
        if weights.ndim == 1:
            weights = weights[:, None]
        if len(weights) != len(self.positions):
            raise InvalidInputError("weights must have one row per indexed point")
        if not np.isfinite(weights).all():
            raise InvalidInputError("weights must be finite")
        m, k = len(centers), weights.shape[1]
        if not (len(self.positions) and m):
            return np.zeros((m, k))
        parts, base = limbs.split(weights)
        parts = parts.reshape(len(weights), -1)
        if self.dim == 1:
            total = self._interval_sums(centers[:, 0], r, parts)
        else:
            total = self._block_sums(centers, r, parts)
        return limbs.rounded(total.reshape(m, k, -1), base)

    def _interval_sums(self, c, r, parts):
        """1D limb sums (m, K) of parts (n, K) over each neighbourhood, as
        differences of prefix sums.  Rounding is monotone, so the neighbours
        of c are the sorted points x[lo:hi]: lo is the first index where
        inside(x) or x >= c, hi the first where neither inside(x) nor x < c.
        Both tests go from false to true along x (the sentinels fail and
        pass both).  searchsorted on c -+ r finds the edges up to rounding;
        each then moves over whole runs of equal coordinates until its test
        fails just below it and holds at it."""
        order, x = self._sorted
        prefix = np.zeros((len(parts) + 2, parts.shape[1]), np.int64)
        parts[order].cumsum(axis=0, out=prefix[2:])
        r2 = r * r
        # (2, m): lo and hi, as indices into x and into prefix, whose row
        # j + 1 sums the first j points; c - r may overflow to -inf
        edge = np.maximum(x.searchsorted(c + _SIDES * r), 1)
        c = c[:, None]
        while True:
            near = x[edge[..., None] + _BELOW_AT]  # x below and at each edge
            d2 = near - c
            d2 *= d2
            test = ((d2 < r2) | ((near >= c) ^ _UPPER)) ^ _UPPER
            if not np.count_nonzero(test ^ _EDGE_TESTS):
                break
            down, up = test[..., 0], ~test[..., 1]
            edge[up] = x.searchsorted(near[..., 1][up], "right")
            edge[down] = x.searchsorted(near[..., 0][down], "left")
        lo, hi = prefix[edge]
        return hi - lo

    def _block_sums(self, centers, r, parts):
        """2D/3D limb sums (m, K) of parts (n, K) over each neighbourhood.
        Centres, grouped by cell, meet their stencil's candidates in blocks
        of at most PAIR_BLOCK pairs, and a block's 0/1 hit matrix times the
        candidates' limbs sums its hits.  Every partial sum is an integer
        below 2**53, so it is exact in any order."""
        if centers is self.positions:
            keys, order, starts, _ = self._grid
        else:
            keys = self._keys(centers)
            order, starts = _group_rows(keys)
        parts = parts.astype(float)
        total = np.zeros((len(centers), parts.shape[1]))
        r2 = r * r
        for a, b in zip(starts[:-1], starts[1:]):
            cand = self._candidates(keys[order[a]], r)
            if cand is None:
                continue
            pc, wc = self.positions[cand], parts[cand]
            step = max(1, PAIR_BLOCK // len(cand))
            for lo in range(a, b, step):
                rows = order[lo:min(lo + step, b)]
                d2 = np.subtract.outer(centers[rows, 0], pc[:, 0])
                d2 *= d2
                for k in range(1, self.dim):  # added in query_radius's order
                    diff = np.subtract.outer(centers[rows, k], pc[:, k])
                    diff *= diff
                    d2 += diff
                np.less(d2, r2, out=d2)  # 1.0 for a neighbour, 0.0 otherwise
                total[rows] = d2 @ wc
        return total


def brute_force_radius(positions, center, r):
    """Reference O(N) scan used by the test oracles."""
    positions = np.asarray(positions, dtype=float)
    if positions.ndim == 1:
        positions = positions.reshape(-1, 1)
    if len(positions) == 0:
        return np.empty(0, dtype=np.int64)
    center = np.asarray(center, dtype=float).reshape(-1)
    d2 = ((positions - center) ** 2).sum(axis=1)
    return np.nonzero(d2 < r * r)[0].astype(np.int64)
