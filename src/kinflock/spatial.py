"""Correctly rounded sums over strict-radius neighbourhoods.

A point x_j is a neighbour of a centre c when sum((x_j - c)**2) < r*r,
evaluated in that order on every path.  `neighborhood_sums` keeps no index
object: in 1D a centre's neighbours are a run of the sorted points, and in
2D and 3D they are looked for in the 3^d cells of size r around the
centre's cell.  Sums are exact and rounded once (kinflock.limbs): they
depend on the neighbour set alone.  Both paths take the weights' limbs
limb-major, (L, n, k), and return limb sums (L, m, k) for `limbs.rounded`.
"""

from __future__ import annotations

import itertools

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


def neighborhood_sums(points, centers, r, weights):
    """S[i] = sum of weights[j] over |points[j] - centers[i]| < r (strict).

    points is (n, d), or (n,) in 1D; centers is (m, d), or (m,) in 1D;
    weights is (n, k), or (n,) for k = 1; all finite; returns (m, k).  Each
    column of S[i] is the exact sum over the neighbours j with
    sum((points[j] - centers[i])**2) < r*r, rounded once to nearest-even:
    math.fsum's value, with +0.0 for a zero sum and +-inf (and numpy's
    overflow warning) for a sum beyond the double range.  So
    it depends on the neighbour set alone, not on the order of the points,
    PAIR_BLOCK or the number of BLAS threads.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points.reshape(-1, 1)
    if points.size == 0:
        points = points.reshape(0, points.shape[1])
    if not np.isfinite(points).all():
        raise InvalidInputError("points must be finite")
    dim = points.shape[1]
    if not (r > 0):
        raise InvalidInputError("r must be positive")
    centers = np.asarray(centers, dtype=float)
    if centers.ndim < 2:
        centers = centers.reshape(-1, 1) if dim == 1 else centers.reshape(1, -1)
    if centers.shape[1] != dim:
        raise InvalidInputError(f"centers have dim {centers.shape[1]}, points have dim {dim}")
    if not np.isfinite(centers).all():
        raise InvalidInputError("centers must be finite")
    weights = np.asarray(weights, dtype=float)
    if weights.ndim == 1:
        weights = weights[:, None]
    if len(weights) != len(points):
        raise InvalidInputError("weights must have one row per point")
    if not np.isfinite(weights).all():
        raise InvalidInputError("weights must be finite")
    m, k = len(centers), weights.shape[1]
    if not (len(points) and m):
        return np.zeros((m, k))
    parts, base = limbs.split(weights)
    if dim == 1:
        total = _interval_sums(points[:, 0], centers[:, 0], r, parts)
    else:
        total = _block_sums(points, centers, r, parts)
    return limbs.rounded(total, base)


def _interval_sums(points, c, r, parts):
    """1D limb sums (L, m, k) of limb-major parts (L, n, k) over each
    neighbourhood, as differences of prefix sums along the point axis.
    Rounding is monotone, so the neighbours of c are the sorted points
    x[lo:hi]: lo is the first index where inside(x) or x >= c, hi the
    first where neither inside(x) nor x < c.  Both tests go from false to
    true along x (the sentinels fail and pass both).  searchsorted on
    c -+ r finds the edges up to rounding; each then moves over whole runs
    of equal coordinates until its test fails just below it and holds at
    it."""
    order = points.argsort()
    x = np.empty(len(order) + 2)  # the sorted points between -inf and +inf
    x[0], x[-1] = -np.inf, np.inf
    points.take(order, out=x[1:-1])
    n_limbs, n, k = parts.shape
    prefix = np.zeros((n_limbs, n + 2, k), np.int64)
    np.add.accumulate(parts.take(order, axis=1), axis=1, out=prefix[:, 2:])
    r2 = r * r
    # (2, m): lo and hi, as indices into x and into prefix, whose row
    # j + 1 along the point axis sums the first j points; c - r may
    # overflow to -inf
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
    lo, hi = edge
    return prefix.take(hi, axis=1) - prefix.take(lo, axis=1)


def _block_sums(points, centers, r, parts):
    """2D/3D limb sums (L, m, k) of limb-major parts (L, n, k) over each
    neighbourhood.  Centres, grouped by their cell of size r, meet the
    points of the 3^d cells around it in blocks of at most PAIR_BLOCK
    pairs, and a block's 0/1 hit matrix times the candidates' limbs (rows
    of one (n, L*k) float copy of the parts) sums its hits.  Every partial
    sum is an integer below 2**53, so it is exact in any order."""
    keys = np.floor(points / r).astype(np.int64)
    order, starts = _group_rows(keys)
    cells = {tuple(keys[order[a]]): order[a:b] for a, b in zip(starts[:-1], starts[1:])}
    if centers is not points:  # the self-consistent step's centres are its points
        keys = np.floor(centers / r).astype(np.int64)
        order, starts = _group_rows(keys)
    stencil = list(itertools.product((-1, 0, 1), repeat=points.shape[1]))
    n_limbs, n, k = parts.shape
    parts = parts.transpose(1, 0, 2).astype(float, order="C").reshape(n, n_limbs * k)
    total = np.zeros((len(centers), n_limbs * k))
    r2 = r * r
    for a, b in zip(starts[:-1], starts[1:]):
        key = keys[order[a]].tolist()
        chunks = [cells.get(tuple(k + o for k, o in zip(key, offset))) for offset in stencil]
        chunks = [idx for idx in chunks if idx is not None]
        if not chunks:
            continue
        cand = np.concatenate(chunks)
        pc, wc = points[cand], parts[cand]
        step = max(1, PAIR_BLOCK // len(cand))
        for lo in range(a, b, step):
            rows = order[lo:min(lo + step, b)]
            d2 = np.subtract.outer(centers[rows, 0], pc[:, 0])
            d2 *= d2
            for axis in range(1, points.shape[1]):  # added axis by axis, in axis order
                diff = np.subtract.outer(centers[rows, axis], pc[:, axis])
                diff *= diff
                d2 += diff
            np.less(d2, r2, out=d2)  # 1.0 for a neighbour, 0.0 otherwise
            total[rows] = d2 @ wc
    return total.reshape(len(centers), n_limbs, k).transpose(1, 0, 2)

