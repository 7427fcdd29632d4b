import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixbar import InputError, cloud, k_medoids, k_medoids_indices, pairwise_distances
from mixbar.subsample import MedoidSelection, _build, _cost, _swap, check_budget
from helpers import reference_build, reference_swap


def test_line_single_medoid():
    sel = k_medoids(pairwise_distances(np.array([[0.0], [10.0], [20.0]])), 1)
    assert sel.indices == (1,)
    assert sel.cost == 20.0


def test_a_point_cloud_is_subsampled_from_its_unchecked_matrix():
    points = cloud.PointCloud(np.random.default_rng(0).normal(size=(30, 3)), "sqeuclidean")
    with mock.patch("mixbar.subsample.check_distance_matrix", side_effect=AssertionError("checked")):
        sel = k_medoids(points, 4)
    assert sel == k_medoids(points.distance_matrix(), 4)
    with pytest.raises(InputError, match="cannot subsample an empty cloud"):
        k_medoids(cloud.PointCloud(np.zeros((0, 3))), 1)


def test_k_at_least_n_returns_everything(monkeypatch):
    """A size that covers every point keeps them all at cost 0, and of a
    point cloud computes no distance; a matrix is still checked first."""
    sel = k_medoids(np.zeros((4, 4)), 7)
    assert sel.indices == (0, 1, 2, 3)
    assert sel.cost == 0.0

    def no_distances(*args, **kwargs):
        raise AssertionError("computed distances")

    monkeypatch.setattr(cloud, "pairwise_distances", no_distances)
    points = cloud.PointCloud(np.random.default_rng(0).normal(size=(5, 2)))
    for k in (5, 9):
        assert k_medoids(points, k) == MedoidSelection(indices=(0, 1, 2, 3, 4), cost=0.0)
    with pytest.raises(InputError, match="not symmetric"):
        k_medoids(np.array([[0.0, 1.0], [2.0, 0.0]]), 2)


def test_rejects_bad_k():
    with pytest.raises(InputError):
        k_medoids(np.zeros((3, 3)), 0)
    with pytest.raises(InputError):
        k_medoids(np.zeros((0, 0)), 1)
    # the rule lives in k_medoids_indices, which k_medoids calls
    dist = pairwise_distances(np.arange(10.0)[:, None])
    for k in (0, -3):
        with pytest.raises(InputError, match=f"k must be positive, got {k}"):
            k_medoids_indices(dist, k)


def test_check_budget_is_the_one_sizing_rule(monkeypatch):
    """k-medoids chooses among n points only where some size falls short of
    n, and then only where their n × n matrix fits cloud.MAX_MATRIX_BYTES at
    9 bytes per entry, here n <= 4; the error names the options that fall
    short. A size equal to n covers the points, as do all sizes of an empty
    set."""
    monkeypatch.setattr(cloud, "MAX_MATRIX_BYTES", 9 * 4 * 4)
    both = {"--subsample-a": 4, "--subsample-b": 2}
    assert check_budget(0, both) is False
    assert check_budget(2, both) is False
    assert check_budget(3, both) is True
    assert check_budget(4, both) is True
    assert check_budget(4, {"--subsample-a": 4}) is False
    assert check_budget(9, {"--subsample-a": 9, "--subsample-b": 10}) is False
    with pytest.raises(InputError) as exc:
        check_budget(5, both)
    assert str(exc.value) == (
        "k-medoids for --subsample-a and --subsample-b would choose among 5 points, whose "
        "distance matrix is over the budget of 144 bytes (mixbar.cloud.MAX_MATRIX_BYTES); use "
        "fewer points, or set --subsample-a and --subsample-b to at least 5 to keep them all"
    )
    with pytest.raises(InputError, match="k-medoids for --subsample-b would choose among 5 points"):
        check_budget(5, {"--subsample-a": 5, "--subsample-b": 2})


def test_rejects_invalid_matrix():
    with pytest.raises(InputError, match="not symmetric"):
        k_medoids(np.array([[0.0, 1.0], [2.0, 0.0]]), 1)


def test_selection_is_sorted_and_deterministic():
    rng = np.random.default_rng(2)
    dist = pairwise_distances(rng.random((15, 3)))
    one = k_medoids(dist, 4)
    two = k_medoids(dist, 4)
    assert one == two
    assert list(one.indices) == sorted(one.indices)


def exhaustive_best(dist, k):
    n = dist.shape[0]
    return min(
        _cost(dist, sel) for sel in itertools.combinations(range(n), k)
    )


def test_near_optimal_on_small_instances():
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(1, min(3, n) + 1))
        pts = rng.random((n, 2))
        dist = pairwise_distances(pts)
        got = _cost(dist, k_medoids_indices(dist, k))
        best = exhaustive_best(dist, k)
        assert got <= best * 1.05 + 1e-12


def test_locally_optimal_under_single_swaps():
    rng = np.random.default_rng(14)
    pts = rng.random((20, 2))
    dist = pairwise_distances(pts)
    selected = k_medoids_indices(dist, 5)
    base = _cost(dist, selected)
    others = [i for i in range(20) if i not in selected]
    for pos in range(len(selected)):
        for cand in others:
            trial = list(selected)
            trial[pos] = cand
            assert _cost(dist, trial) >= base - 1e-12


@st.composite
def pam_instances(draw):
    """A distance matrix and k: random clouds, integer grids with duplicate
    points, distances rounded to one decimal (many exact ties), and all-zero
    matrices; k is 1, n - 1 or anything between."""
    n = draw(st.integers(2, 24))
    kind = draw(st.sampled_from(["cloud", "grid", "rounded", "zeros"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "cloud":
        dist = pairwise_distances(rng.random((n, draw(st.integers(1, 4)))))
    elif kind == "grid":
        dist = pairwise_distances(rng.integers(0, 3, size=(n, 2)).astype(float))
    elif kind == "rounded":
        dist = np.round(pairwise_distances(rng.random((n, 2))), 1)
    else:
        dist = np.zeros((n, n))
    k = draw(st.sampled_from([1, n - 1]) | st.integers(1, n - 1))
    return dist, k, rng


@settings(max_examples=300, deadline=None)
@given(pam_instances())
def test_build_and_swap_match_classic_pam(instance):
    """The same medoid list as classic PAM, in position order: from BUILD's
    start, and from a random start, which takes SWAP through more exchanges."""
    dist, k, rng = instance
    start = _build(dist, k)
    assert start == reference_build(dist, k)
    assert _swap(dist, start) == reference_swap(dist, start)
    start = [int(i) for i in rng.permutation(dist.shape[0])[:k]]
    assert _swap(dist, start) == reference_swap(dist, start)


def assert_classic(dist, k, start=None):
    """BUILD, and SWAP from BUILD's start or from the given one, give classic
    PAM's medoid list, in position order."""
    if start is None:
        start = _build(dist, k)
        assert start == reference_build(dist, k)
    assert _swap(dist, start) == reference_swap(dist, start)


@pytest.mark.parametrize("k", [1, 30, 150, 299])
def test_classic_pam_on_300_points(k):
    """Long incremental runs: 299 BUILD steps, and SWAP with one medoid, with
    one candidate, and in between."""
    dist = pairwise_distances(np.random.default_rng(k).normal(size=(300, 4)))
    assert_classic(dist, k)


def test_classic_pam_on_duplicate_points():
    """300 points on 60 sites, five copies of each: ties in every gain and
    delta, medoids that are nobody's nearest, and zero-cost exchanges."""
    rng = np.random.default_rng(5)
    dist = pairwise_distances(np.repeat(rng.normal(size=(60, 3)), 5, axis=0)[rng.permutation(300)])
    for k in (40, 60, 90):
        assert_classic(dist, k)


@pytest.mark.parametrize("k", [1, 30, 150, 299])
def test_classic_pam_in_one_row_runs(k):
    """Every blocked loop of BUILD and SWAP split into runs of one row; at
    n = 300 the default budget makes each of them a single run."""
    with mock.patch.object(cloud, "BLOCK_BYTES", 1):
        test_classic_pam_on_300_points(k)


def test_classic_pam_on_duplicate_points_in_one_row_runs():
    with mock.patch.object(cloud, "BLOCK_BYTES", 1):
        test_classic_pam_on_duplicate_points()


def test_classic_pam_across_twelve_orders_of_magnitude():
    """Points at scales from 1e-6 to 1e6, so distances span 1e-6 to 1e6: the
    cost falls by orders of magnitude as medoids are added, which is where
    the rounding accumulated by the updates must be bounded or recomputed."""
    rng = np.random.default_rng(6)
    scales = 10.0 ** rng.integers(-6, 7, size=300)
    dist = pairwise_distances(rng.normal(size=(300, 2)) * scales[:, None])
    for k in (20, 150):
        assert_classic(dist, k)


@pytest.mark.parametrize("k", [1, 5, 30])
def test_classic_swap_from_random_starts(k):
    """A random start takes SWAP through many more exchanges than BUILD's."""
    rng = np.random.default_rng(k + 100)
    dist = pairwise_distances(rng.random((300, 2)))
    assert_classic(dist, k, [int(i) for i in rng.permutation(300)[:k]])
