"""Deterministic k-medoids subsampling (PAM: greedy BUILD plus SWAP).

Cost is the sum over all points of the dissimilarity to the nearest chosen
medoid. BUILD inserts greedily; SWAP repeatedly applies the best improving
single exchange until none exists, so the result is locally optimal under
single swaps. All ties break toward the lowest index, which makes the
procedure fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cloud import check_distance_matrix
from .errors import InputError


@dataclass(frozen=True)
class MedoidSelection:
    indices: tuple[int, ...]
    cost: float


def k_medoids(dist: np.ndarray, k: int) -> MedoidSelection:
    """Select k medoids of the points of a distance matrix; indices ascending."""
    dist = np.asarray(dist, dtype=float)
    check_distance_matrix(dist)
    if dist.shape[0] == 0:
        raise InputError("cannot subsample an empty cloud")
    if k <= 0:
        raise InputError(f"k must be positive, got {k}")
    idx = k_medoids_indices(dist, k)
    return MedoidSelection(indices=tuple(int(i) for i in idx), cost=_cost(dist, idx))


def k_medoids_indices(dist: np.ndarray, k: int) -> list[int]:
    """PAM on an explicit dissimilarity matrix; returns ascending indices."""
    n = dist.shape[0]
    if k >= n:
        return list(range(n))
    selected = _build(dist, k)
    selected = _swap(dist, selected)
    return sorted(selected)


def _cost(dist: np.ndarray, selected: Sequence[int]) -> float:
    return float(dist[:, list(selected)].min(axis=1).sum())


def _build(dist: np.ndarray, k: int) -> list[int]:
    n = dist.shape[0]
    first = int(np.argmin(dist.sum(axis=0)))
    selected = [first]
    nearest = dist[:, first].copy()
    chosen = np.zeros(n, dtype=bool)
    chosen[first] = True
    while len(selected) < k:
        cands = np.flatnonzero(~chosen)
        # cost after adding each candidate; argmin picks the lowest index on ties
        costs = np.minimum(nearest[:, None], dist[:, cands]).sum(axis=0)
        best = cands[int(np.argmin(costs))]
        selected.append(int(best))
        chosen[best] = True
        nearest = np.minimum(nearest, dist[:, best])
    return selected


def _swap(dist: np.ndarray, selected: list[int]) -> list[int]:
    n = dist.shape[0]
    selected = list(selected)
    k = len(selected)
    current = _cost(dist, selected)
    while True:
        d_sel = dist[:, selected]
        order = np.argsort(d_sel, axis=1, kind="stable")
        rows = np.arange(n)
        nearest_pos = order[:, 0]
        nearest = d_sel[rows, nearest_pos]
        second = d_sel[rows, order[:, 1]] if k > 1 else np.full(n, np.inf)
        chosen = np.zeros(n, dtype=bool)
        chosen[selected] = True
        cands = np.flatnonzero(~chosen)
        best_cost = current
        best_swap = None
        for pos in range(k):
            base = np.where(nearest_pos == pos, second, nearest)
            costs = np.minimum(base[:, None], dist[:, cands]).sum(axis=0)
            at = int(np.argmin(costs))
            if costs[at] < best_cost:
                best_cost = float(costs[at])
                best_swap = (pos, int(cands[at]))
        if best_swap is None:
            return selected
        pos, newcomer = best_swap
        selected[pos] = newcomer
        current = best_cost
