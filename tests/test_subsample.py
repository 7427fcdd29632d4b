import itertools

import numpy as np
import pytest

from mixbar import (
    InputError,
    PointCloud,
    k_medoids,
    k_medoids_indices,
    pairwise_distances,
)
from mixbar.subsample import _cost


def test_line_single_medoid():
    cloud = PointCloud(np.array([[0.0], [10.0], [20.0]]))
    sel = k_medoids(cloud, 1)
    assert sel.indices == (1,)
    assert sel.cost == 20.0


def test_k_at_least_n_returns_everything():
    cloud = PointCloud(np.zeros((4, 2)))
    sel = k_medoids(cloud, 7)
    assert sel.indices == (0, 1, 2, 3)
    assert sel.cost == 0.0


def test_rejects_bad_k():
    cloud = PointCloud(np.zeros((3, 2)))
    with pytest.raises(InputError):
        k_medoids(cloud, 0)
    with pytest.raises(InputError):
        k_medoids(PointCloud.empty(2), 1)


def test_selection_is_sorted_and_deterministic():
    rng = np.random.default_rng(2)
    cloud = PointCloud(rng.random((15, 3)))
    one = k_medoids(cloud, 4)
    two = k_medoids(cloud, 4)
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
