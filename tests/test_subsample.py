import itertools

import numpy as np
import pytest

from mixbar import InputError, k_medoids, k_medoids_indices, pairwise_distances
from mixbar.subsample import _cost


def test_line_single_medoid():
    sel = k_medoids(pairwise_distances(np.array([[0.0], [10.0], [20.0]])), 1)
    assert sel.indices == (1,)
    assert sel.cost == 20.0


def test_k_at_least_n_returns_everything():
    sel = k_medoids(np.zeros((4, 4)), 7)
    assert sel.indices == (0, 1, 2, 3)
    assert sel.cost == 0.0


def test_rejects_bad_k():
    with pytest.raises(InputError):
        k_medoids(np.zeros((3, 3)), 0)
    with pytest.raises(InputError):
        k_medoids(np.zeros((0, 0)), 1)


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
