"""Uniform-grid spatial hashing for exact strict-radius neighbor queries
and neighbourhood sums.

Cell size defaults to the query radius so a query only has to look at the
3^d surrounding cells.  Queries are exact: candidates from neighboring
cells are filtered by the strict Euclidean distance test |x - c| < r,
evaluated as sum((x - c)**2) < r*r on every path.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import InvalidInputError

# Most centre-candidate pairs tested at once by neighborhood_sums; bounds
# its temporaries independently of the input size.
PAIR_BLOCK = 1 << 15


def _group_rows(keys):
    """Stable grouping of equal integer rows: (order, starts) such that
    order[starts[g]:starts[g+1]] lists, ascending, the rows of group g."""
    order = np.lexsort(keys.T[::-1])
    change = np.any(np.diff(keys[order], axis=0) != 0, axis=1)
    starts = np.concatenate(([0], np.nonzero(change)[0] + 1, [len(order)]))
    return order, starts


class SpatialIndex:
    """Immutable after construction; safe for concurrent read-only queries."""

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
        self._cells: dict[tuple, np.ndarray] = {}
        self._grouping = None  # (keys, order, starts) of the points
        if len(positions):
            keys = self._keys(positions)
            order, starts = _group_rows(keys)
            self._grouping = keys, order, starts
            for a, b in zip(starts[:-1], starts[1:]):
                self._cells[tuple(keys[order[a]])] = order[a:b]

    @property
    def n_occupied_cells(self):
        return len(self._cells)

    def _keys(self, points):
        return np.floor(points / self.cell_size).astype(np.int64)

    def _candidates(self, key, r):
        """Sorted indices of the points in the cells within reach of cell
        `key` (the 3^d stencil when r <= cell_size), or None if all are
        empty."""
        reach = int(math.ceil(r / self.cell_size))
        key = [int(k) for k in key]
        chunks = []
        for offset in itertools.product(range(-reach, reach + 1), repeat=self.dim):
            idx = self._cells.get(tuple(k + o for k, o in zip(key, offset)))
            if idx is not None:
                chunks.append(idx)
        return np.sort(np.concatenate(chunks)) if chunks else None

    def _check_query(self, r, centers):
        if not (r > 0):
            raise InvalidInputError("r must be positive")
        if centers.shape[1] != self.dim:
            raise InvalidInputError(
                f"center has dim {centers.shape[1]}, index has dim {self.dim}")

    def query_radius(self, center, r):
        """Indices j with |x_j - center| < r (strict), as a sorted array."""
        center = np.asarray(center, dtype=float).reshape(1, -1)
        self._check_query(r, center)
        cand = self._candidates(self._keys(center)[0], r) if self._cells else None
        if cand is None:
            return np.empty(0, dtype=np.int64)
        d2 = ((self.positions[cand] - center[0]) ** 2).sum(axis=1)
        return cand[d2 < r * r]

    def neighborhood_sums(self, centers, r, weights):
        """S[i] = sum of weights[j] over |x_j - centers[i]| < r (strict).

        centers is (m, d), or (m,) in 1D; weights is (n, k), or (n,) for
        k = 1; returns (m, k).  Each column of S[i] equals numpy's
        weights[query_radius(centers[i], r), col].sum(): a pairwise sum in
        index order, so rounding scales with the local mass.

        Centres are grouped by cell (the index's own grouping when centers
        is the indexed array) and tested against their stencil's candidates
        in blocks of at most PAIR_BLOCK pairs.  The hits of a block are
        flattened into one segment per centre, and np.add.reduceat sums
        every segment at once.  reduceat adds a segment's first element to
        the pairwise sum of the rest, whereas numpy's sum adds 0.0 to the
        pairwise sum of the whole list; so each segment is led by an entry
        of weight 0.0, and then it is summed exactly as numpy sums the list
        (an empty neighbourhood gives that 0.0).
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
        sums = np.zeros((len(centers), weights.shape[1]))
        if not (self._cells and len(centers)):
            return sums
        if centers is self.positions:
            keys, order, starts = self._grouping
        else:
            keys = self._keys(centers)
            order, starts = _group_rows(keys)
        # column 0 of every candidate row is the segment's leading 0.0
        n = len(self.positions)
        lead_weights = np.zeros((weights.shape[1], n + 1))
        lead_weights[:, 1:] = weights.T
        r2 = r * r
        # Every block works in these buffers: fresh block-sized temporaries
        # cost page faults that outweigh the arithmetic.  A block tests at
        # most max(PAIR_BLOCK, n) pairs, and it has one more slot per centre.
        m = len(centers)
        pairs = min(max(PAIR_BLOCK, n), m * n)
        slots = min(max(2 * PAIR_BLOCK, n + 1), m * (n + 1))
        d2_buf, diff_buf = np.empty(pairs), np.empty(pairs if self.dim > 1 else 0)
        hit_buf = np.empty(slots, dtype=bool)
        gathered_buf = np.empty(weights.shape[1] * slots)
        for a, b in zip(starts[:-1], starts[1:]):
            cand = self._candidates(keys[order[a]], r)
            if cand is None:
                continue
            pc = self.positions[cand]
            wc = lead_weights[:, np.concatenate(([0], cand + 1))]
            width = len(cand) + 1
            step = max(1, PAIR_BLOCK // len(cand))
            for lo in range(a, b, step):
                rows = order[lo:min(lo + step, b)]
                d2 = d2_buf[:len(rows) * len(cand)].reshape(len(rows), len(cand))
                np.subtract.outer(centers[rows, 0], pc[:, 0], out=d2)
                d2 *= d2
                for k in range(1, self.dim):  # added in query_radius's order
                    diff = diff_buf[:d2.size].reshape(d2.shape)
                    np.subtract.outer(centers[rows, k], pc[:, k], out=diff)
                    diff *= diff
                    d2 += diff
                hit = hit_buf[:len(rows) * width].reshape(len(rows), width)
                hit[:, 0] = True
                np.less(d2, r2, out=hit[:, 1:])
                flat = np.flatnonzero(hit)
                base = np.arange(0, len(rows) * width, width)
                heads = np.searchsorted(flat, base)
                lengths = np.empty_like(heads)
                lengths[:-1] = heads[1:] - heads[:-1]
                lengths[-1] = len(flat) - heads[-1]
                flat -= np.repeat(base, lengths)  # candidate column of each hit
                gathered = gathered_buf[:len(wc) * len(flat)].reshape(len(wc), len(flat))
                # mode="raise" would gather into a temporary and copy
                wc.take(flat, axis=1, out=gathered, mode="clip")
                sums[rows] = np.add.reduceat(gathered, heads, axis=1).T
        return sums


def build_index(positions, cell_size):
    return SpatialIndex(positions, cell_size)


def query_radius(index, center, r):
    return index.query_radius(center, r)


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
