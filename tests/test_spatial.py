import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kinflock import limbs, spatial
from kinflock.errors import InvalidInputError
from kinflock.spatial import neighborhood_sums
from measures import brute_force_radius


def neighbour_sets(points, centers, r):
    """Each centre's neighbour set read off neighborhood_sums: with
    identity weights, row i is the exact 0/1 indicator of its neighbours."""
    rows = neighborhood_sums(points, centers, r, np.eye(len(points)))
    assert set(np.unique(rows)) <= {0.0, 1.0}
    return [np.flatnonzero(row) for row in rows]


def sums_of_j(points, centers, r):
    """The count, sum of j and sum of j**2 over each neighbourhood: exact
    integers that almost any change of a neighbour set alters, for inputs
    too large for an identity matrix of weights."""
    j = np.arange(len(points), dtype=float)
    return neighborhood_sums(points, centers, r, np.column_stack([np.ones_like(j), j, j * j]))


def test_empty_index_queries_empty():
    got = neighborhood_sums(np.zeros((0, 2)), [0.0, 0.0], 5.0, np.zeros((0, 2)))
    assert got.shape == (1, 2) and not got.any()


def test_basic_1d_query():
    assert [s.tolist() for s in neighbour_sets([0.0, 0.5, 2.0], [0.0], 1.0)] == [[0, 1]]


def test_boundary_point_excluded():
    # strict inequality: a point at distance exactly r is not a neighbor
    assert [s.tolist() for s in neighbour_sets([0.0, 1.0], [0.0], 1.0)] == [[0]]


def test_far_center_empty():
    assert [len(s) for s in neighbour_sets([0.0, 0.5], [100.0], 1.0)] == [0]


def test_self_always_included():
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 1, size=(50, 2))
    for i, nbr in enumerate(neighbour_sets(pts, pts, 0.1)):
        assert i in nbr


def test_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        neighborhood_sums(np.array([[0.0, np.nan]]), np.zeros((1, 2)), 1.0, np.ones(1))
    pts = np.zeros((3, 2))
    with pytest.raises(InvalidInputError):
        neighborhood_sums(pts, np.zeros((1, 2)), 0.0, np.ones(3))
    with pytest.raises(InvalidInputError):
        neighborhood_sums(pts, np.zeros((1, 2)), -1.0, np.ones(3))
    with pytest.raises(InvalidInputError):
        neighborhood_sums(pts, np.zeros((1, 3)), 1.0, np.ones(3))
    with pytest.raises(InvalidInputError):
        neighborhood_sums(pts, np.zeros((1, 2)), 1.0, np.ones(4))
    for dim in (1, 2):
        pts = np.zeros((3, dim))
        with pytest.raises(InvalidInputError):
            neighborhood_sums(pts, np.zeros((1, dim)), 1.0, [1.0, np.inf, 1.0])
        with pytest.raises(InvalidInputError):
            neighborhood_sums(pts, np.full((1, dim), np.nan), 1.0, np.ones(3))


def test_matches_brute_force_large_2d():
    rng = np.random.default_rng(42)
    pts = rng.uniform(0, 1, size=(10_000, 2))
    j = np.arange(len(pts))
    for _ in range(100):
        center = rng.uniform(0, 1, size=2)
        r = rng.uniform(0.01, 0.3)
        want = brute_force_radius(pts, center, r)
        got = sums_of_j(pts, center, r)
        assert got.tolist() == [[len(want), j[want].sum(), (j[want] ** 2).sum()]]


def test_insertion_order_invariance():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1, 1, size=(200, 2))
    perm = rng.permutation(200)
    center = np.array([0.1, -0.2])
    got_a = set(neighbour_sets(pts, center, 0.2)[0].tolist())
    got_b = {perm[i] for i in neighbour_sets(pts[perm], center, 0.2)[0]}
    assert got_a == got_b


@settings(max_examples=50, deadline=None)
@given(
    pts=st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)), max_size=40),
    center=st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
    r=st.floats(0.01, 3.0),
)
def test_property_matches_brute_force(pts, center, r):
    arr = np.array(pts, dtype=float).reshape(-1, 2)
    want = brute_force_radius(arr, np.array(center), r)
    assert np.array_equal(neighbour_sets(arr, np.array(center), r)[0], want)
    assert neighborhood_sums(arr, np.array(center), r, np.ones(len(arr)))[0, 0] == len(want)


def _lattice_1d_ties(rng):
    # tensor-grid x nodes at spacing 1/6 with r = 0.5, as in kinetic_two_bump:
    # nodes exactly r apart are decided by the rounding of (x_j - c)**2
    x = -2.0 + (np.arange(24) + 0.5) / 6.0
    pts = np.repeat(x, 72)[:, None]
    return pts, pts, 0.5


def _random_2d_off_points(rng):
    # arbitrary centres that are not the points, like the Picard field nodes
    return rng.uniform(-1, 1, (1500, 2)), rng.uniform(-1.2, 1.2, (300, 2)), 0.3


def _empty_index(rng):
    return np.zeros((0, 2)), rng.uniform(-1, 1, (20, 2)), 0.3


def _centres_in_empty_cells(rng):
    pts = rng.uniform(0, 0.5, (200, 2))
    centers = np.vstack([rng.uniform(3, 9, (30, 2)), rng.uniform(0, 0.5, (30, 2))])
    return pts, centers, 0.2


def _radius_above_cell_size(rng):
    # 3D, with cells of size r = 0.5: four to a side of the box
    return rng.uniform(-1, 1, (800, 3)), rng.uniform(-1, 1, (100, 3)), 0.5


@pytest.mark.parametrize("pair_block", [spatial.PAIR_BLOCK, 7])
@pytest.mark.parametrize("case", [_lattice_1d_ties, _random_2d_off_points, _empty_index,
                                  _centres_in_empty_cells, _radius_above_cell_size])
def test_neighborhood_sums_match_brute_force(case, pair_block, monkeypatch):
    monkeypatch.setattr(spatial, "PAIR_BLOCK", pair_block)
    rng = np.random.default_rng(11)
    pts, centers, r = case(rng)
    j = np.arange(len(pts), dtype=float)
    weights = np.column_stack([np.ones(len(pts)), j, j * j,
                               rng.uniform(0.5, 1.5, (len(pts), 2))])
    got = neighborhood_sums(pts, centers, r, weights)
    assert got.shape == (len(centers), 5)
    for c, row in zip(centers, got):
        nbr = brute_force_radius(pts, c, r)
        assert row[:3].tolist() == [len(nbr), j[nbr].sum(), (j[nbr] ** 2).sum()]
        np.testing.assert_allclose(row[3:], weights[nbr, 3:].sum(axis=0), rtol=1e-12, atol=0)


def _counts_across_pairwise_thresholds(rng):
    # numpy's pairwise sum changes method at 8 and blocks at 128 terms: one
    # isolated cluster of c points around each centre, c = 0 .. 300
    counts = [0, 1, 7, 8, 9, 127, 128, 129, 300]
    centers = 10.0 * np.arange(len(counts))
    pts = np.concatenate([c + rng.uniform(-0.4, 0.4, n) for c, n in zip(centers, counts)])
    return pts[:, None], centers[:, None], 0.5


def _candidate_row_wider_than_pair_block(rng):
    # more candidates than PAIR_BLOCK, so every block holds one centre
    pts = rng.uniform(0, 0.5, (spatial.PAIR_BLOCK + 100, 1))
    return pts, rng.uniform(0, 0.5, (4, 1)), 0.25


def _signed_weights(rng, n, k):
    # the first k of: -0.0 only, mixed sign, -0.0 mixed with both signs,
    # and mixed sign with magnitudes from 1e-8 to 1e8
    cols = [-np.zeros(n), rng.normal(size=n),
            np.where(rng.random(n) < 0.5, -0.0, rng.normal(size=n) * 1e3)]
    cols.append(rng.uniform(-1, 1, n) * 10.0 ** rng.integers(-8, 8, n))
    return np.column_stack(cols[:k])


def correctly_rounded(values):
    """math.fsum(values): the exact sum rounded once to nearest-even, +0.0
    if zero.  fsum raises OverflowError when a partial sum overflows, even
    if the exact sum is finite; the exact rational sum decides then."""
    try:
        return math.fsum(values) + 0.0
    except OverflowError:
        total = sum(map(Fraction, values))
        try:
            return float(total)
        except OverflowError:
            return math.inf if total > 0 else -math.inf


def test_neighborhood_sums_equal_numpy_sums_of_neighbour_lists(monkeypatch):
    # each column is the exact sum over the neighbour list rounded once, so
    # sums agree bit for bit with math.fsum of weights[brute_force_radius(pts, c, r), col]
    # (a zero sum, even of -0.0 weights, is +0.0)
    for pair_block in (spatial.PAIR_BLOCK, 7):
        monkeypatch.setattr(spatial, "PAIR_BLOCK", pair_block)
        for case in (_counts_across_pairwise_thresholds, _random_2d_off_points,
                     _candidate_row_wider_than_pair_block):
            for k in (1, 2, 3, 4):
                rng = np.random.default_rng(12 + k)
                pts, centers, r = case(rng)
                weights = _signed_weights(rng, len(pts), k)
                got = neighborhood_sums(pts, centers, r, weights)
                for c, row in zip(centers, got):
                    nbr = brute_force_radius(pts, c, r)
                    want = np.array([correctly_rounded(weights[nbr, col]) for col in range(k)])
                    assert row.tobytes() == want.tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_permuting_the_particles_permutes_the_sums(dim, monkeypatch):
    # the sums depend on the neighbour set only: the order of the points and
    # the block size change no bit
    rng = np.random.default_rng(20 + dim)
    pts = np.round(rng.uniform(-1, 1, (600, dim)), 1)  # many shared coordinates
    weights = _signed_weights(rng, len(pts), 4)
    centers = rng.uniform(-1.2, 1.2, (50, dim))
    perm = rng.permutation(len(pts))
    want = neighborhood_sums(pts, pts, 0.3, weights)
    want_off = neighborhood_sums(pts, centers, 0.3, weights)
    monkeypatch.setattr(spatial, "PAIR_BLOCK", 7)
    permuted = pts[perm]
    got = neighborhood_sums(permuted, permuted, 0.3, weights[perm])
    assert got.tobytes() == want[perm].tobytes()
    assert neighborhood_sums(permuted, centers, 0.3, weights[perm]).tobytes() == want_off.tobytes()


def _adversarial_weights(rng, n):
    """Columns whose sums are hard to round: subnormals down to 5e-324,
    values whose sums overflow, pairs that cancel exactly, and sums that
    fall on or next to a half-ulp tie with the deciding bits in other limbs."""
    sign = rng.choice([-1.0, 1.0], n)
    subnormal = sign * rng.integers(1, 1 << 52, n) * 5e-324
    subnormal[::7] = 5e-324
    huge = rng.choice([1.7e308, -1.7e308, 9e307], n)
    cancel = rng.normal(size=n // 2) * 10.0 ** rng.integers(-30, 30, n // 2)
    cancel = np.repeat(cancel, 2) * np.tile([1.0, -1.0], n // 2)
    tie = rng.choice([1.0, 3.0, 2.0 ** -53, 2.0 ** -54, 2.0 ** -106, -2.0 ** -106, 2.0 ** -300], n)
    wide = sign * 10.0 ** rng.uniform(-40, 40, n)
    return np.column_stack([subnormal, huge, cancel, tie * sign[::-1], tie, wide])


@pytest.mark.parametrize("dim", [1, 2])
def test_neighborhood_sums_round_adversarial_columns_exactly(dim):
    rng = np.random.default_rng(30 + dim)
    # points in coincident pairs, so each cancelling pair shares its neighbourhoods
    pts = np.repeat(rng.uniform(-1, 1, (300, dim)), 2, axis=0)
    weights = _adversarial_weights(rng, len(pts))
    centers = np.vstack([pts[::5], rng.uniform(-1.2, 1.2, (40, dim))])
    with pytest.warns(RuntimeWarning, match="overflow"):  # numpy's, as for its own sums
        got = neighborhood_sums(pts, centers, 0.25, weights)
    for c, row in zip(centers, got):
        nbr = brute_force_radius(pts, c, 0.25)
        want = np.array([correctly_rounded(weights[nbr, col]) for col in range(weights.shape[1])])
        assert row.tobytes() == want.tobytes()
    assert np.all(got[:, 2] == 0.0) and not np.signbit(got[:, 2]).any()
    assert np.isinf(got[:, 1]).any() and np.isfinite(got[:, 1]).any()
    assert (got[:, 0] != 0).all() and (np.abs(got[:, 0]) < 2.0 ** -1022).any()


def test_count_column_equals_brute_force_counts_on_the_lattice():
    # the 1/6 lattice with r = 0.5: every point has 72 copies, and centres
    # that are not points sit exactly r from nodes, between nodes, or past
    # the ends; the count, sum of j and sum of j**2 pin each neighbour set,
    # a run of consecutive indices here
    pts, _, r = _lattice_1d_ties(None)
    nodes = np.unique(pts)
    centers = np.concatenate([nodes, nodes - r, nodes + r, nodes + 1 / 12,
                              [-3.0, 2.5, -2.0 - r, 2.0 + r]])
    j = np.arange(len(pts))
    want = [[len(nbr), j[nbr].sum(), (j[nbr] ** 2).sum()]
            for nbr in (brute_force_radius(pts, c, r) for c in centers)]
    assert sums_of_j(pts, centers, r).tolist() == want


def test_self_consistent_field_is_bounded_by_the_neighbour_speeds():
    # |E_i| <= max |v_j| over the neighbours of i; the weights m_j v_j, the
    # two sums and the quotient are rounded once each, which allows a few
    # units in the last place where every neighbour has the same speed (the
    # last 300 points, in clusters of 10 far apart)
    rng = np.random.default_rng(40)
    x = np.concatenate([np.round(rng.normal(size=2000), 2), np.repeat(10.0 + np.arange(30), 10)])
    v = rng.uniform(-1, 1, 2300) * 10.0 ** rng.integers(-3, 1, 2300)
    v[2000:] = np.repeat(rng.uniform(0.01, 3, 30), 10)
    mass = rng.uniform(0.1, 1.0, 2300) * 10.0 ** rng.integers(-6, 0, 2300)
    rho, j = neighborhood_sums(x, x, 0.05, np.column_stack([mass, mass * v])).T
    for i in range(0, 2300, 7):
        vmax = np.abs(v[brute_force_radius(x, x[i], 0.05)]).max()
        for delta in (0.0, 1e-3):
            assert abs(j[i] / (delta + rho[i])) <= vmax * (1 + 2.0 ** -50)


@pytest.mark.parametrize("case", [_lattice_1d_ties, _random_2d_off_points,
                                  _counts_across_pairwise_thresholds])
def test_neighborhood_sums_reuse_the_index_grouping_for_its_own_points(case, monkeypatch):
    # in 2D and 3D, centres that are the points array itself take the
    # points' cell grouping instead of grouping again, with the same sums
    # as a copy of the array; 1D groups nothing
    rng = np.random.default_rng(13)
    pts, _, r = case(rng)
    weights = _signed_weights(rng, len(pts), 3)
    group_rows, calls = spatial._group_rows, []
    monkeypatch.setattr(spatial, "_group_rows", lambda keys: calls.append(keys) or group_rows(keys))
    want = neighborhood_sums(pts, pts.copy(), r, weights)
    calls_for_copy = len(calls)
    got = neighborhood_sums(pts, pts, r, weights)
    groupings = 1 if pts.shape[1] > 1 else 0
    assert (calls_for_copy, len(calls) - calls_for_copy) == (2 * groupings, groupings)
    assert got.tobytes() == want.tobytes()


def _split_limb_last(weights):
    """The former limbs.split: the same limbs with the limb axis last,
    (n, k, L), from masked reductions."""
    mant, exp = np.frexp(weights)
    m = (mant * 2.0 ** 53).astype(np.int64)
    live = m != 0
    low = np.minimum.reduce(exp, axis=0, where=live, initial=1 << 20).astype(np.int64)
    s = exp - low
    shift = s[..., None] - limbs._LIMB_BITS[:int(s.max(where=live, initial=0)) // limbs.BITS + 3]
    parts = (m[..., None] << np.maximum(shift, 0)) >> np.maximum(-shift, 0)
    parts[..., :-1] &= limbs.MASK
    return parts, low - 53


def _limb_cases():
    rng = np.random.default_rng(50)
    cases = [pytest.param(_adversarial_weights(rng, 600), id="adversarial")]
    cases += [pytest.param(_signed_weights(rng, n, k), id=f"signed-{n}x{k}")
              for k in (1, 2, 3, 4) for n in (1, 2, 300)]
    wide = rng.normal(size=(40, 3))
    wide[:, 1] = 0.0  # an all-zero column
    wide[::2, 2] = 5e-324  # about 83 limbs: 5e-324 and 1.7e308 in one column
    wide[1::2, 2] = 1.7e308
    cases += [pytest.param(w, id=name) for name, w in [
        ("zero-and-widest-columns", wide), ("zero-and-widest-n1", wide[:1]),
        ("zero-and-widest-n2", wide[:2]), ("all-zero", np.zeros((2, 2))),
        ("tiny-and-huge-n1", np.array([[5e-324, -1.7e308]]))]]
    return cases


def _check_split(weights):
    """split(weights) is the limb-last split transposed to (L, n, k), bit
    for bit, with the same base."""
    got, base = limbs.split(weights)
    want, want_base = _split_limb_last(weights)
    assert got.dtype == np.int64 and got.shape == want.shape[2:] + want.shape[:2]
    assert got.tobytes() == np.ascontiguousarray(want.transpose(2, 0, 1)).tobytes()
    assert base.tobytes() == want_base.tobytes()


def _check_rounded(weights):
    """rounded, on the exact limb sums over all rows, no row and three
    random subsets of rows, gives math.fsum's value of each subset."""
    parts, base = limbs.split(weights)
    masks = np.random.default_rng(len(weights)).random((5, len(weights))) < 0.5
    masks[0], masks[1] = True, False
    sums = np.stack([parts[:, mask].sum(axis=1) for mask in masks], axis=1)  # (L, 5, k)
    with np.errstate(over="ignore"):  # sums beyond the double range round to +-inf
        got = limbs.rounded(sums, base)
    want = np.array([[correctly_rounded(weights[mask, c]) for c in range(weights.shape[1])]
                     for mask in masks])
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("weights", _limb_cases())
def test_split_is_the_limb_last_split_transposed(weights):
    _check_split(weights)


def test_split_takes_83_limbs_for_the_widest_column():
    assert len(limbs.split(np.array([[5e-324], [1.7e308]]))[0]) == 83


@pytest.mark.parametrize("weights", _limb_cases())
def test_rounded_limb_sums_are_correctly_rounded(weights):
    _check_rounded(weights)


_FINITE_BITS = st.integers(0, (1 << 64) - 1).filter(lambda b: (b >> 52) & 0x7FF != 0x7FF)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 12), k=st.integers(1, 4), data=st.data())
def test_property_split_and_rounded_on_random_bit_patterns(n, k, data):
    bits = data.draw(st.lists(_FINITE_BITS, min_size=n * k, max_size=n * k))
    weights = np.array(bits, dtype=np.uint64).view(np.float64).reshape(n, k)
    _check_split(weights)
    _check_rounded(weights)
