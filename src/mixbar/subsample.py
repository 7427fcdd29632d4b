"""Deterministic k-medoids subsampling: PAM's greedy BUILD, then an exact
FastPAM1 SWAP.

Cost is the sum over all points of the dissimilarity to the nearest chosen
medoid. BUILD inserts, one at a time, the point that lowers the cost most.
SWAP then applies the best improving exchange of one medoid for one
non-medoid until none exists, so the result is locally optimal under single
swaps. Ties break toward the lowest medoid position, then the lowest
candidate index, which makes the procedure fully deterministic.

Classic PAM prices each of the k medoid positions with its own pass over the
n×(n−k) candidate block, O(k·n·(n−k)) per SWAP iteration. FastPAM1
(Schubert & Rousseeuw, "Faster k-Medoids Clustering", SISAP 2019) prices all
k·(n−k) exchanges in one O(n·(n−k)) pass: from each point's nearest and
second-nearest medoid distance, the change in cost of putting candidate c at
position p is a term shared by all positions plus a sum over the points whose
nearest medoid is at p. Those deltas round differently from the totals PAM
compares, so here they only screen. The positions whose best delta lies
within a stated rounding bound of the overall best are the finalists, and
their total costs are evaluated by PAM's own expression and compared in PAM's
order. The chosen exchange, and so every result, is the one classic PAM
picks. With one finalist, which is the usual case on real-valued data, an
iteration costs a few O(n·(n−k)) passes instead of k of them.
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
    """PAM on a distance matrix; returns ascending indices.

    dist must pass cloud.check_distance_matrix (k_medoids checks it). The
    search reads candidate columns as rows, which needs dist symmetric.
    """
    dist = np.asarray(dist, dtype=float)
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
    # One buffer holds every step's candidate block, so a step allocates no
    # n×(n−1) temporaries. Its transpose has the values of dist[:, cands]
    # (dist is symmetric) in the column-by-column layout numpy gives that
    # gather, so the column sums are PAM's to the bit.
    buf = np.empty(n * (n - 1))
    while len(selected) < k:
        cands = np.flatnonzero(~chosen)
        cand_rows = buf[: cands.size * n].reshape(cands.size, n)
        np.take(dist, cands, axis=0, out=cand_rows, mode="clip")
        block = cand_rows.T
        # cost after adding each candidate; argmin picks the lowest index on ties
        costs = np.minimum(nearest[:, None], block, out=block).sum(axis=0)
        best = cands[int(np.argmin(costs))]
        selected.append(int(best))
        chosen[best] = True
        nearest = np.minimum(nearest, dist[:, best])
    return selected


def _swap(dist: np.ndarray, selected: list[int]) -> list[int]:
    n = dist.shape[0]
    selected = list(selected)
    k = len(selected)
    rows = np.arange(n)
    current = _cost(dist, selected)
    while True:
        d_sel = dist[:, selected]
        nearest_pos = d_sel.argmin(axis=1)
        nearest = d_sel[rows, nearest_pos]
        d_sel[rows, nearest_pos] = np.inf
        second = d_sel.min(axis=1)  # inf everywhere when k == 1
        chosen = np.zeros(n, dtype=bool)
        chosen[selected] = True
        cands = np.flatnonzero(~chosen)
        # as in _build, block is dist[:, cands] in values and layout
        cand_rows = dist[cands]
        block = cand_rows.T
        best_delta = _swap_deltas(cand_rows, nearest_pos, nearest, second, k).min(axis=0)
        lowest = float(best_delta.min())
        slack = _delta_slack(n, nearest, second)
        if lowest >= slack:
            return selected
        best_cost = current
        best_swap = None
        for pos in np.flatnonzero(best_delta <= lowest + 2 * slack):
            # PAM's own total for this position, so the comparison is PAM's
            base = np.where(nearest_pos == pos, second, nearest)
            costs = np.minimum(base[:, None], block).sum(axis=0)
            at = int(np.argmin(costs))
            if costs[at] < best_cost:
                best_cost = float(costs[at])
                best_swap = (int(pos), int(cands[at]))
        if best_swap is None:
            return selected
        pos, newcomer = best_swap
        selected[pos] = newcomer
        current = best_cost


def _swap_deltas(
    cand_rows: np.ndarray, nearest_pos: np.ndarray, nearest: np.ndarray, second: np.ndarray, k: int
) -> np.ndarray:
    """FastPAM1: the (m, k) change in cost of putting candidate c, whose
    distances are row c of cand_rows, at medoid position p.

    With lo = min(d(c, o), nearest[o]), point o's cost after the exchange is
    lo, unless its nearest medoid is the one leaving; then it is
    min(d(c, o), second[o]). So delta[c, p] = Σ_o (lo − nearest[o]) +
    Σ_{o: nearest_pos[o] = p} (min(d(c, o), second[o]) − lo). The points are
    grouped by nearest position so np.add.reduceat sums the second term.
    """
    order = np.argsort(nearest_pos, kind="stable")
    counts = np.bincount(nearest_pos, minlength=k)
    grouped = np.take(cand_rows, order, axis=1)
    near = nearest[order]
    lo = np.minimum(grouped, near)
    gain = np.minimum(grouped, second[order], out=grouped)
    gain -= lo
    lo -= near
    delta = np.zeros((cand_rows.shape[0], k))
    # reduceat cannot sum an empty group (a medoid that is nobody's nearest,
    # such as a duplicate of one at a lower position), so those stay zero
    filled = counts > 0
    delta[:, filled] = np.add.reduceat(gain, (np.cumsum(counts) - counts)[filled], axis=1)
    delta += lo.sum(axis=1)[:, None]
    return delta


def _delta_slack(n: int, nearest: np.ndarray, second: np.ndarray) -> float:
    """A bound on the rounding that separates a screening delta from PAM's
    comparison of totals, so that screening can never change the result.

    With u = 2^-53, γ_j = j·u/(1 − j·u), S1 = Σ nearest and S2 = Σ second:
    - PAM's total for an exchange sums n exact terms, each at most
      second[o]; in any summation order it errs by at most γ_{n−1}·S2. The
      current cost it is compared with sums the n nearest distances: at most
      γ_{n−1}·S1.
    - A delta's terms are one subtraction each, of magnitude at most
      nearest[o] (shared term) or second[o] (per-position term), then sums of
      at most n terms and one addition: at most γ_{n+1}·(S1 + S2).
    So total = current + delta + e with |e| ≤ 2·γ_{n+1}·(S1 + S2), about
    2·(n + 1)·u·(S1 + S2). The slack is four times that, 8·(n + 2)·u·(S1 + S2).
    Then no exchange lowers PAM's total when min delta ≥ slack, and every
    exchange PAM can pick has delta ≤ min delta + 2·slack. A larger slack
    only evaluates more finalists. With k == 1, second is inf and so is the
    slack: the one position is always evaluated.
    """
    return 4.0 * (n + 2) * float(np.finfo(float).eps) * float(nearest.sum() + second.sum())
