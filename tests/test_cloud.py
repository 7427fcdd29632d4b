import re
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixbar import InputError, LabeledPointCloud, PointCloud, cloud, pairwise_distances, rips, subsample
from mixbar.cloud import distance_blocks, parse_distance_matrix, parse_point_table
from helpers import reference_distances


def test_parse_whitespace_table():
    points, labels = parse_point_table("0 0\n1 0\n0.5 2\n")
    assert points.shape == (3, 2)
    assert points[2, 1] == 2.0
    assert labels is None


def test_parse_csv_table_with_comments():
    text = "# header comment\n0,0\n1,0  # trailing\n\n2,0\n"
    points, _ = parse_point_table(text)
    assert list(points[:, 0]) == [0.0, 1.0, 2.0]


def test_parse_labeled_table():
    points, labels = parse_point_table("0,0,0\n1,0,0\n5,5,1\n", labeled=True)
    cloud = LabeledPointCloud(PointCloud(points), labels)
    assert cloud.label_values == [0, 1]
    assert list(cloud.indices_of(0)) == [0, 1]
    assert list(cloud.indices_excluding(0)) == [2]


def test_parse_labeled_rejects_fractional_label():
    with pytest.raises(InputError):
        parse_point_table("0,0,0.5\n", labeled=True)


def test_parse_rejects_ragged_rows():
    with pytest.raises(InputError):
        parse_point_table("0 0\n1 0 3\n")


def test_parse_empty_gives_empty_cloud():
    points, labels = parse_point_table("# nothing but comments\n")
    assert points.size == 0
    assert labels is None


def test_parse_rejects_non_numeric():
    with pytest.raises(InputError):
        parse_point_table("0 zero\n")


def test_cloud_rejects_non_finite():
    with pytest.raises(InputError):
        PointCloud(np.array([[0.0, np.inf]]))


@pytest.mark.parametrize("shape", [(3,), (2, 2, 2)])
def test_cloud_rejects_points_that_are_not_2d(shape):
    message = f"point array must be 2-dimensional, got shape {shape}"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        PointCloud(np.zeros(shape))


@pytest.mark.parametrize("labels", [[0, 1], [0, 1, 1, 0], [[0], [1], [1]]])
def test_labels_need_one_entry_per_point(labels):
    with pytest.raises(InputError, match="^label array must have one entry per point$"):
        LabeledPointCloud(PointCloud(np.zeros((3, 2))), labels)


def test_float_labels_are_kept_only_when_integral():
    cloud = PointCloud(np.zeros((3, 2)))
    labeled = LabeledPointCloud(cloud, np.array([0.0, 2.0, -1.0]))
    assert labeled.labels.dtype.kind == "i"
    assert labeled.labels.tolist() == [0, 2, -1]
    with pytest.raises(InputError, match="^labels must be integers$"):
        LabeledPointCloud(cloud, np.array([0.0, 0.5, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e300])
def test_float_labels_past_int64_are_refused_before_the_cast(bad):
    """Casting them would warn "invalid value encountered in cast"."""
    with pytest.raises(InputError, match="^labels must be integers$"):
        LabeledPointCloud(PointCloud(np.zeros((2, 2))), np.array([0.0, bad]))


def test_distances_reject_an_unknown_metric():
    with pytest.raises(InputError, match="^cannot compute distances for metric 'matrix'$"):
        pairwise_distances(np.zeros((2, 2)), "matrix")


def test_euclidean_distances():
    pts = np.array([[0.0, 0.0], [3.0, 4.0]])
    d = pairwise_distances(pts)
    assert d[0, 1] == 5.0
    assert d[1, 0] == 5.0
    assert d[0, 0] == 0.0


def test_sqeuclidean_is_square_of_euclidean():
    rng = np.random.default_rng(0)
    pts = rng.random((12, 3))
    sq = pairwise_distances(pts, "sqeuclidean")
    eu = pairwise_distances(pts, "euclidean")
    assert np.array_equal(eu, np.sqrt(sq))


def test_block_of_joint_matrix_is_bitwise_identical():
    # Distances are computed entrywise, so adding extra rows must not
    # perturb the A-against-A block in even the last bit.
    rng = np.random.default_rng(1)
    a = rng.random((9, 4))
    b = rng.random((5, 4))
    joint = pairwise_distances(np.vstack([a, b]))
    alone = pairwise_distances(a)
    assert np.array_equal(joint[:9, :9], alone)


@pytest.mark.parametrize("metric", ["euclidean", "sqeuclidean"])
@pytest.mark.parametrize("budget", [1, 50, 1000, None])
@pytest.mark.parametrize("shape", [(0, 3), (1, 1), (7, 3), (40, 17), (65, 2)])
def test_blocked_distances_equal_one_shot(shape, budget, metric):
    """Runs of any size give the one-shot matrix bit for bit; a budget of 1
    difference entry is one row per run, 50 a few rows, 1000 a ragged last
    run."""
    pts = np.random.default_rng(shape[0]).normal(size=shape) * 10.0 ** np.arange(shape[1])
    with mock.patch.object(cloud, "BLOCK_BYTES", 8 * budget if budget else cloud.BLOCK_BYTES):
        got = pairwise_distances(pts, metric)
    want = reference_distances(pts, metric)
    assert got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.array_equal(got.view(np.int64), got.T.view(np.int64))


@pytest.mark.parametrize("entry", [(0, 1), (3, 27), (1, 0), (28, 29), (29, 28), (5, 4), (12, 11)])
def test_asymmetry_found_in_any_tile(entry):
    """check_distance_matrix compares the matrix with its transpose in
    tiles of four rows here: one bad entry is found in the first tile, in
    the ragged last one (rows 28 and 29) and just below the diagonal,
    inside a tile or across two (12, 11)."""
    d = pairwise_distances(np.random.default_rng(3).random((30, 2)))
    with mock.patch.object(cloud, "BLOCK_BYTES", 8 * 30 * 4):
        assert cloud.runs(30, 8 * 30)[-1] == slice(28, 32)
        cloud.check_distance_matrix(d)
        d[entry] += 0.5
        with pytest.raises(InputError, match="distance matrix is not symmetric"):
            cloud.check_distance_matrix(d)


@pytest.mark.parametrize(
    "first,last,message",
    [
        (((0, 1), -1.0), ((5, 4), np.nan), "has non-finite entries"),
        (((0, 1), -1.0), ((5, 4), np.inf), "has non-finite entries"),
        (((0, 1), np.nan), ((5, 4), -1.0), "has non-finite entries"),
        (((0, 0), 1.0), ((5, 4), -1.0), "has negative entries"),
        (((0, 1), 2.0), ((5, 5), 1.0), "has a nonzero diagonal"),
        (((0, 1), 2.0), ((5, 4), 3.0), "is not symmetric"),
    ],
)
def test_errors_keep_their_order_across_runs(first, last, message):
    """check_distance_matrix takes one row at a time here: of an entry in
    the first run and one in the last, the one whose rule comes first is
    reported (non-finite, negative, nonzero diagonal, not symmetric)."""
    d = pairwise_distances(np.random.default_rng(4).random((6, 2)))
    for entry, value in (first, last):
        d[entry] = value
    with mock.patch.object(cloud, "BLOCK_BYTES", 1):
        assert len(cloud.runs(6, d[0].nbytes)) == 6
        with pytest.raises(InputError, match=f"^distance matrix {message}$"):
            cloud.check_distance_matrix(d)


def test_distance_check_forms_no_whole_matrix_temporary():
    """With runs of a sixteenth of the matrix's bytes, half the bytes of a
    whole boolean matrix, the check's tracemalloc peak stays within them."""
    d = pairwise_distances(np.random.default_rng(5).random((1000, 3)))
    d[-1, 0] = np.nan
    with mock.patch.object(cloud, "BLOCK_BYTES", d.nbytes // 16):
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match="non-finite"):
                cloud.check_distance_matrix(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cloud.BLOCK_BYTES < d.size


@st.composite
def points_and_index_sets(draw):
    """A cloud with some repeated rows, over several scales, and index sets
    that are random subsets (in random order) or permutations of it."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4, size=d)
    if n > 1 and draw(st.booleans()):
        pts[rng.integers(0, n, size=n // 2)] = pts[rng.integers(0, n, size=n // 2)]
    sets = []
    for _ in range(draw(st.integers(0, 5))):
        size = n if draw(st.booleans()) else draw(st.integers(0, n))
        sets.append(rng.permutation(n)[:size])
    return pts, sets


@settings(max_examples=200, deadline=None)
@given(points_and_index_sets(), st.sampled_from(cloud.METRICS), st.booleans())
def test_distances_of_a_subset_are_the_block_of_the_whole(case, metric, one_row):
    """pairwise_distances(points[s]) is bit for bit the (s, s) block of the
    whole matrix, so distance_blocks gives the same bits on either branch."""
    pts, sets = case
    with mock.patch.object(cloud, "BLOCK_BYTES", 1 if one_row else cloud.BLOCK_BYTES):
        whole = pairwise_distances(pts, metric)
        got = [block for block, _ in distance_blocks(pts, metric, sets)]
        assert len(got) == len(sets)
        for s, block in zip(sets, got):
            want = whole[np.ix_(s, s)]
            assert np.array_equal(pairwise_distances(pts[s], metric), want)
            assert block.shape == want.shape and np.array_equal(block, want)


def test_distance_blocks_computes_the_cheaper_side():
    rows = []
    real = cloud.pairwise_distances
    pts = np.random.default_rng(2).random((10, 2))
    with mock.patch.object(
        cloud, "pairwise_distances", lambda p, m: rows.append(len(p)) or real(p, m)
    ):
        list(distance_blocks(pts, "euclidean", [np.arange(7), np.arange(3, 10)]))
        assert rows == [7, 7]  # 98 < 100 entries
        list(distance_blocks(pts, "euclidean", [np.arange(8), np.arange(2, 8)]))
        assert rows == [7, 7, 10]  # 100 entries: the whole matrix
        # the whole matrix fits the budget alone, not with the 8-point block
        with mock.patch.object(cloud, "MAX_MATRIX_BYTES", 9 * (100 + 64) - 1):
            list(distance_blocks(pts, "euclidean", [np.arange(8), np.arange(2, 8)]))
        assert rows == [7, 7, 10, 8, 6]
        # nor with the entries held beside the 8-point block, one past its own
        with mock.patch.object(cloud, "MAX_MATRIX_BYTES", 9 * (100 + 64)):
            list(distance_blocks(pts, "euclidean", [np.arange(8), np.arange(2, 8)], [65, 36]))
            assert rows == [7, 7, 10, 8, 6, 8, 6]
            list(distance_blocks(pts, "euclidean", [np.arange(8), np.arange(2, 8)], [64, 36]))
        assert rows == [7, 7, 10, 8, 6, 8, 6, 10]


def test_distance_blocks_after_the_whole_matrix_is_dropped():
    """Each block comes with the list that holds the whole matrix; once a
    consumer empties it, the matrix is freed and the later blocks are
    computed from their own rows, with the same bits."""
    rows, alive = [], []
    real = cloud.pairwise_distances
    pts = np.random.default_rng(2).random((10, 2))
    sets = [np.arange(8), np.arange(2, 8), np.arange(1, 9)]

    def distances(p, m):
        rows.append(len(p))
        out = real(p, m)
        alive.append(weakref.ref(out))
        return out

    with mock.patch.object(cloud, "pairwise_distances", distances):
        blocks = distance_blocks(pts, "euclidean", sets)
        block, whole = next(blocks)
        assert rows == [10] and len(whole) == 1 and np.array_equal(block, real(pts[sets[0]], "euclidean"))
        whole.clear()
        assert alive[0]() is None
        got = [(block, list(held)) for block, held in blocks]
    assert rows == [10, 6, 8]
    for s, (block, held) in zip(sets[1:], got):
        assert held == [] and np.array_equal(block, real(pts[s], "euclidean"))


def test_distance_matrix_over_the_byte_budget_is_refused_before_allocation(monkeypatch):
    """9 bytes per entry (the matrix and a Rips mask) against
    MAX_MATRIX_BYTES, which allows 29,814 points; past it nothing of the
    matrix's size is allocated. The bound is lowered to 400 points here, so
    a regression allocates 1.3 MB rather than 7 GB."""
    assert 9 * 29_814**2 <= cloud.MAX_MATRIX_BYTES < 9 * 29_815**2
    monkeypatch.setattr(cloud, "MAX_MATRIX_BYTES", 9 * 400**2)
    pts = np.zeros((401, 1))
    assert pairwise_distances(pts[:400]).shape == (400, 400)
    tracemalloc.start()
    with pytest.raises(InputError) as exc:
        pairwise_distances(pts)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 401 * 401
    assert str(exc.value) == (
        "the distance matrix of 401 points would take 1,447,209 bytes with its Rips "
        "mask, more than the budget of 1,440,000 (mixbar.cloud.MAX_MATRIX_BYTES)"
    )


def test_runs_split_rows_within_the_budget():
    """Runs cover the rows in order, each within BLOCK_BYTES or a single
    row. rips and subsample split through this same function, which reads
    the budget at each call, so one patch of it reaches every blocked loop."""
    assert cloud.runs(0, 8) == []
    assert cloud.runs(5, cloud.BLOCK_BYTES // 2) == [slice(0, 2), slice(2, 4), slice(4, 6)]
    assert cloud.runs(2, 2 * cloud.BLOCK_BYTES) == [slice(0, 1), slice(1, 2)]
    with mock.patch.object(cloud, "BLOCK_BYTES", 1):
        assert cloud.runs(3, 8) == [slice(0, 1), slice(1, 2), slice(2, 3)]
    assert rips.runs is subsample.runs is cloud.runs


def test_parse_full_square_matrix():
    d = parse_distance_matrix("0 1 2\n1 0 3\n2 3 0\n")
    assert d.shape == (3, 3)
    assert d[1, 2] == 3.0


def test_parse_lower_triangle_with_diagonal():
    d = parse_distance_matrix("0\n1 0\n2 3 0\n")
    assert d.shape == (3, 3)
    assert d[0, 1] == 1.0
    assert d[2, 1] == 3.0


def test_parse_strict_lower_triangle():
    # Strict triangle: row lengths 1..n with nonzero leading entries;
    # these are the rows of points 1..n of an (n+1)-point space.
    d = parse_distance_matrix("1\n2 3\n")
    assert d.shape == (3, 3)
    assert d[0, 1] == 1.0
    assert d[0, 2] == 2.0
    assert d[1, 2] == 3.0
    assert np.array_equal(d, d.T)


def test_cloud_has_no_matrix_metric():
    with pytest.raises(InputError, match="unknown metric"):
        PointCloud(np.zeros((2, 2)), metric="matrix")


def test_parse_matrix_rejects_bad_shape():
    with pytest.raises(InputError):
        parse_distance_matrix("0 1 2\n1 0\n")


def test_parse_labels_accept_integral_floats_below_2_53():
    """np.savetxt writes labels as floats; those stay readable."""
    text = "0 0 0.000000000000000000e+00\n1 1 3.0\n2 2 -4\n3 3 9007199254740991.0\n"
    _, labels = parse_point_table(text, labeled=True)
    assert labels.dtype == np.int64
    assert labels.tolist() == [0, 3, -4, 9007199254740991]


def test_parse_labels_keep_the_int64_range_exactly():
    text = "0 -9223372036854775808\n1 9223372036854775807\n"
    _, labels = parse_point_table(text, labeled=True)
    assert labels.tolist() == [-(2**63), 2**63 - 1]
    with pytest.raises(InputError, match="64-bit range"):
        parse_point_table("0 -9223372036854775809\n", labeled=True)


def test_parse_triangle_with_negative_zero_diagonal():
    """-0 equals 0, so these rows are the triangle with its diagonal."""
    d = parse_distance_matrix("-0\n1 -0\n2 3 -0\n")
    assert d.tolist() == [[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]]


@pytest.mark.parametrize("one_row", [False, True])
@pytest.mark.parametrize(
    "points",
    [[[0.0], [1.0], [1e160]], [[1e308, 0.0], [-1e308, 0.0]]],
    ids=["squares-overflow", "differences-overflow"],
)
def test_overflowing_squared_distances_are_an_input_error(points, one_row):
    """Finite coordinates whose squared distances overflow raise before any
    inf enters the matrix; a RuntimeWarning would fail this test."""
    with mock.patch.object(cloud, "BLOCK_BYTES", 1 if one_row else cloud.BLOCK_BYTES):
        with pytest.raises(InputError, match="^squared distances between the points overflow to inf"):
            pairwise_distances(np.array(points))
