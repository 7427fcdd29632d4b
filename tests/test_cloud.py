from unittest import mock

import numpy as np
import pytest

from mixbar import InputError, LabeledPointCloud, PointCloud, cloud, pairwise_distances
from mixbar.cloud import parse_distance_matrix, parse_point_table
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
    """Row blocks of any size give the one-shot matrix bit for bit; budget 1
    is one row per block, 50 a few rows, 1000 a ragged last block."""
    pts = np.random.default_rng(shape[0]).normal(size=shape) * 10.0 ** np.arange(shape[1])
    with mock.patch.object(cloud, "DIFF_BUDGET", budget or cloud.DIFF_BUDGET):
        got = pairwise_distances(pts, metric)
    want = reference_distances(pts, metric)
    assert got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


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


def test_parse_matrix_rejects_asymmetry():
    with pytest.raises(InputError):
        parse_distance_matrix("0 1\n2 0\n")


def test_parse_matrix_rejects_negative():
    with pytest.raises(InputError):
        parse_distance_matrix("0 -1\n-1 0\n")


def test_parse_matrix_rejects_non_finite():
    with pytest.raises(InputError, match="non-finite"):
        parse_distance_matrix("0 inf\ninf 0\n")


def test_cloud_has_no_matrix_metric():
    with pytest.raises(InputError, match="unknown metric"):
        PointCloud(np.zeros((2, 2)), metric="matrix")


def test_parse_matrix_rejects_bad_shape():
    with pytest.raises(InputError):
        parse_distance_matrix("0 1 2\n1 0\n")
