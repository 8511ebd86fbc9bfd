import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kinflock import spatial
from kinflock.errors import InvalidInputError
from kinflock.spatial import SpatialIndex, brute_force_radius, build_index, query_radius


def test_1d_construction_two_occupied_cells():
    idx = build_index(np.array([0.0, 0.5, 2.0]), cell_size=1.0)
    assert idx.n_occupied_cells == 2


def test_empty_index_queries_empty():
    idx = build_index(np.zeros((0, 2)), cell_size=1.0)
    assert len(query_radius(idx, [0.0, 0.0], 5.0)) == 0


def test_basic_1d_query():
    idx = build_index(np.array([0.0, 0.5, 2.0]), cell_size=1.0)
    hit = query_radius(idx, [0.0], 1.0)
    assert hit.tolist() == [0, 1]


def test_boundary_point_excluded():
    # strict inequality: a point at distance exactly r is not a neighbor
    idx = build_index(np.array([0.0, 1.0]), cell_size=1.0)
    hit = query_radius(idx, [0.0], 1.0)
    assert hit.tolist() == [0]


def test_far_center_empty():
    idx = build_index(np.array([0.0, 0.5]), cell_size=1.0)
    assert len(query_radius(idx, [100.0], 1.0)) == 0


def test_self_always_included():
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 1, size=(50, 2))
    idx = build_index(pts, cell_size=0.1)
    for i in range(50):
        assert i in query_radius(idx, pts[i], 0.1)


def test_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        build_index(np.array([[0.0, np.nan]]), cell_size=1.0)
    with pytest.raises(InvalidInputError):
        build_index(np.zeros((3, 2)), cell_size=0.0)
    idx = build_index(np.zeros((3, 2)), cell_size=1.0)
    with pytest.raises(InvalidInputError):
        query_radius(idx, [0.0, 0.0], -1.0)
    with pytest.raises(InvalidInputError):
        idx.neighborhood_sums(np.zeros((1, 2)), -1.0, np.ones(3))
    with pytest.raises(InvalidInputError):
        idx.neighborhood_sums(np.zeros((1, 3)), 1.0, np.ones(3))
    with pytest.raises(InvalidInputError):
        idx.neighborhood_sums(np.zeros((1, 2)), 1.0, np.ones(4))


def test_matches_brute_force_large_2d():
    rng = np.random.default_rng(42)
    pts = rng.uniform(0, 1, size=(10_000, 2))
    idx = build_index(pts, cell_size=0.05)
    for _ in range(100):
        center = rng.uniform(0, 1, size=2)
        r = rng.uniform(0.01, 0.3)
        got = query_radius(idx, center, r)
        want = brute_force_radius(pts, center, r)
        assert np.array_equal(got, want)


def test_insertion_order_invariance():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1, 1, size=(200, 2))
    perm = rng.permutation(200)
    idx_a = build_index(pts, cell_size=0.2)
    idx_b = build_index(pts[perm], cell_size=0.2)
    center = np.array([0.1, -0.2])
    got_a = set(idx_a.query_radius(center, 0.2).tolist())
    got_b = {perm[i] for i in idx_b.query_radius(center, 0.2)}
    assert got_a == got_b


@settings(max_examples=50, deadline=None)
@given(
    pts=st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)), max_size=40),
    center=st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
    r=st.floats(0.01, 3.0),
    cell=st.floats(0.05, 2.0),
)
def test_property_matches_brute_force(pts, center, r, cell):
    arr = np.array(pts, dtype=float).reshape(-1, 2)
    idx = build_index(arr, cell_size=cell)
    got = query_radius(idx, np.array(center), r)
    want = brute_force_radius(arr, np.array(center), r)
    assert np.array_equal(got, want)
    assert idx.neighborhood_sums(np.array(center), r, np.ones(len(arr)))[0, 0] == len(want)


def _lattice_1d_ties(rng):
    # tensor-grid x nodes at spacing 1/6 with r = 0.5, as in kinetic_two_bump:
    # nodes exactly r apart are decided by the rounding of (x_j - c)**2
    x = -2.0 + (np.arange(24) + 0.5) / 6.0
    pts = np.repeat(x, 72)[:, None]
    return pts, pts, 0.5, 0.5


def _random_2d_off_points(rng):
    # arbitrary centres that are not the points, like the Picard field nodes
    return rng.uniform(-1, 1, (1500, 2)), rng.uniform(-1.2, 1.2, (300, 2)), 0.3, 0.3


def _empty_index(rng):
    return np.zeros((0, 2)), rng.uniform(-1, 1, (20, 2)), 0.3, 0.3


def _centres_in_empty_cells(rng):
    pts = rng.uniform(0, 0.5, (200, 2))
    centers = np.vstack([rng.uniform(3, 9, (30, 2)), rng.uniform(0, 0.5, (30, 2))])
    return pts, centers, 0.2, 0.2


def _radius_above_cell_size(rng):
    return rng.uniform(-1, 1, (800, 3)), rng.uniform(-1, 1, (100, 3)), 0.5, 0.2


@pytest.mark.parametrize("pair_block", [spatial.PAIR_BLOCK, 7])
@pytest.mark.parametrize("case", [_lattice_1d_ties, _random_2d_off_points, _empty_index,
                                  _centres_in_empty_cells, _radius_above_cell_size])
def test_neighborhood_sums_match_brute_force(case, pair_block, monkeypatch):
    monkeypatch.setattr(spatial, "PAIR_BLOCK", pair_block)
    rng = np.random.default_rng(11)
    pts, centers, r, cell = case(rng)
    weights = np.column_stack([np.ones(len(pts)), rng.uniform(0.5, 1.5, (len(pts), 2))])
    got = SpatialIndex(pts, cell).neighborhood_sums(centers, r, weights)
    assert got.shape == (len(centers), 3)
    for c, row in zip(centers, got):
        nbr = brute_force_radius(pts, c, r)
        assert row[0] == len(nbr)
        np.testing.assert_allclose(row[1:], weights[nbr, 1:].sum(axis=0), rtol=1e-12, atol=0)


def _counts_across_pairwise_thresholds(rng):
    # numpy's pairwise sum changes method at 8 and blocks at 128 terms: one
    # isolated cluster of c points around each centre, c = 0 .. 300
    counts = [0, 1, 7, 8, 9, 127, 128, 129, 300]
    centers = 10.0 * np.arange(len(counts))
    pts = np.concatenate([c + rng.uniform(-0.4, 0.4, n) for c, n in zip(centers, counts)])
    return pts[:, None], centers[:, None], 0.5, 0.5


def _candidate_row_wider_than_pair_block(rng):
    # more candidates than PAIR_BLOCK, so every block holds one centre
    pts = rng.uniform(0, 0.5, (spatial.PAIR_BLOCK + 100, 1))
    return pts, rng.uniform(0, 0.5, (4, 1)), 0.25, 0.5


def _signed_weights(rng, n, k):
    # the first k of: -0.0 only, mixed sign, -0.0 mixed with both signs,
    # and mixed sign with magnitudes from 1e-8 to 1e8
    cols = [-np.zeros(n), rng.normal(size=n),
            np.where(rng.random(n) < 0.5, -0.0, rng.normal(size=n) * 1e3)]
    cols.append(rng.uniform(-1, 1, n) * 10.0 ** rng.integers(-8, 8, n))
    return np.column_stack(cols[:k])


def test_neighborhood_sums_equal_numpy_sums_of_neighbour_lists(monkeypatch):
    # each column is summed as numpy sums the neighbour list in index order,
    # so sums agree bit for bit (sign of zero included) with
    # weights[query_radius(c, r), col].sum()
    for pair_block in (spatial.PAIR_BLOCK, 7):
        monkeypatch.setattr(spatial, "PAIR_BLOCK", pair_block)
        for case in (_counts_across_pairwise_thresholds, _random_2d_off_points,
                     _candidate_row_wider_than_pair_block):
            for k in (1, 2, 3, 4):
                rng = np.random.default_rng(12 + k)
                pts, centers, r, cell = case(rng)
                weights = _signed_weights(rng, len(pts), k)
                idx = SpatialIndex(pts, cell)
                got = idx.neighborhood_sums(centers, r, weights)
                for c, row in zip(centers, got):
                    nbr = query_radius(idx, c, r)
                    want = np.array([weights[nbr, col].sum() for col in range(k)])
                    assert row.tobytes() == want.tobytes()


@pytest.mark.parametrize("case", [_lattice_1d_ties, _random_2d_off_points,
                                  _counts_across_pairwise_thresholds])
def test_neighborhood_sums_reuse_the_index_grouping_for_its_own_points(case, monkeypatch):
    # centres that are the indexed array take the index's cell grouping
    # instead of grouping again, with the same sums as a copy of the array
    rng = np.random.default_rng(13)
    pts, _, r, cell = case(rng)
    weights = _signed_weights(rng, len(pts), 3)
    idx = SpatialIndex(pts, cell)
    want = idx.neighborhood_sums(pts.copy(), r, weights)
    calls = []
    monkeypatch.setattr(spatial, "_group_rows", lambda keys: calls.append(keys))
    got = idx.neighborhood_sums(idx.positions, r, weights)
    assert calls == []
    assert got.tobytes() == want.tobytes()
