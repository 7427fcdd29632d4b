"""Deterministic k-medoids subsampling: PAM's greedy BUILD, then PAM's SWAP,
both exact and both incremental.

Cost is the sum over all points of the dissimilarity to the nearest chosen
medoid. BUILD inserts, one at a time, the point that lowers the cost most.
SWAP then applies the best improving exchange of one medoid for one
non-medoid until none exists, so the result is locally optimal under single
swaps. Ties break toward the lowest medoid position, then the lowest
candidate index, which makes the procedure fully deterministic.

Classic PAM prices every candidate with its own pass over the n points: a
BUILD step reads an n×(n−|selected|) block, a SWAP iteration one such block
per medoid position, O(k·n·(n−k)). Here both keep their prices between
steps and update them only from the points whose nearest medoids change:
- BUILD keeps each candidate's gain, Σ_o max(0, nearest[o] − d(c, o)).
  Adding a medoid lowers nearest[o] only for the points it is now nearest
  to, so the gains move by those points' old-minus-new contributions:
  O(|changed|·n) per step instead of O(n·(n−|selected|)).
- SWAP keeps, per point, the position and distance of its nearest and
  second-nearest medoid. FastPAM1 (Schubert & Rousseeuw, "Faster k-Medoids
  Clustering", SISAP 2019) writes the change in cost of putting candidate c
  at position p as minus c's BUILD gain, shared by all positions, plus a
  sum over the points whose nearest medoid is at p; both are kept for
  every candidate, as FasterPAM (Schubert & Rousseeuw, Information
  Systems 2021) keeps its per-point state. After an exchange at p, only
  the points whose nearest or second medoid was at p, or which the
  newcomer is closer to than their second, change state, and only their
  contributions are moved: O(|moved|·(n−k)) per iteration, plus one
  O(n) column for the medoid that became a candidate and an O(k·(n−k))
  scan for the best delta. FasterPAM's eager swapping changes results, so
  it is not used.

Updated values round differently from the totals PAM compares, so they
only screen. Their rounding is bounded (see _rounding): the bound of their
last computation from scratch plus the magnitude of every update since,
and when that would exceed four times the bound on PAM's own sums they are
computed from scratch again. The candidates (BUILD) or exchanges (SWAP)
whose screening value lies within twice the slack of the best are the
finalists; their totals are evaluated by PAM's own expression and compared
in PAM's order. The chosen medoid or exchange, and so every result, is the
one classic PAM picks. With one finalist, the usual case on real-valued
data, a step costs a few passes over the changed points' rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import cloud
from .cloud import check_distance_matrix, runs
from .errors import InputError

EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class MedoidSelection:
    indices: tuple[int, ...]
    cost: float


def k_medoids(data: np.ndarray | cloud.PointCloud, k: int) -> MedoidSelection:
    """Select k medoids of the points of a distance matrix, which is checked
    first, or of a point cloud, whose computed matrix needs no check;
    indices ascending. A k that covers every point keeps them all, at cost
    0, before any distance is computed."""
    if isinstance(data, cloud.PointCloud):
        n = data.n_points
    else:
        data = np.asarray(data, dtype=float)
        check_distance_matrix(data)
        n = data.shape[0]
    if n == 0:
        raise InputError("cannot subsample an empty cloud")
    if k >= n:
        return MedoidSelection(indices=tuple(range(n)), cost=0.0)
    if isinstance(data, cloud.PointCloud):
        data = cloud.pairwise_distances(data.points, data.metric)
    idx = k_medoids_indices(data, k)
    return MedoidSelection(indices=tuple(int(i) for i in idx), cost=_cost(data, idx))


def check_sizes(*sizes: int) -> None:
    """The rule on subsample sizes given from outside: each at least 1."""
    if min(sizes) < 1:
        raise InputError("subsample sizes must be at least 1")


def check_budget(n: int, sizes: Mapping[str, int]) -> int:
    """The entries k-medoids holds at once among n points, at sizes that map
    each size option to its value: 0 when every size covers the n points,
    which are then all kept. Otherwise their matrix and, for the size k
    below n that makes it largest, SWAP's k × (n − k) table (see _screen),
    which must fit cloud.within_budget before any distance is computed; the
    error names the options that fall short, and the table where the
    matrix alone fits."""
    short = {opt: k for opt, k in sizes.items() if k < n}
    options = " and ".join(short)
    k = max(short.values(), key=lambda size: size * (n - size), default=0)
    entries = n * n + k * (n - k) if short else 0
    if not cloud.within_budget(entries):
        over = (
            "whose distance matrix is"
            if not cloud.within_budget(n * n)
            else f"where SWAP's {k:,} x {n - k:,} table would take their distance matrix"
        )
        raise InputError(
            f"k-medoids for {options} would choose among {n:,} points, {over} over the budget "
            f"of {cloud.MAX_MATRIX_BYTES:,} bytes (mixbar.cloud.MAX_MATRIX_BYTES); "
            f"use fewer points, or set {options} to at least {n:,} to keep them all"
        )
    return entries


def k_medoids_indices(dist: np.ndarray, k: int) -> list[int]:
    """PAM on a distance matrix; returns ascending indices.

    dist must pass cloud.check_distance_matrix, which is not made here: a
    matrix computed from coordinates passes it, and k_medoids checks any
    other. The search reads candidate columns as rows, which needs dist
    symmetric.
    """
    if k <= 0:
        raise InputError(f"k must be positive, got {k}")
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
    nearest = dist[first].copy()
    total = float(nearest.sum())
    gain = _gains(dist, nearest, selected)
    err = _rounding(n, total)
    while len(selected) < k:
        slack = _rounding(n, total) + err
        finalists = (gain >= gain[gain.argmax()] - 2 * slack).nonzero()[0]
        # PAM's own totals; argmin picks the lowest index on ties, as PAM's
        # does. A lone finalist is PAM's pick without them.
        at = np.argmin(_totals(dist, finalists, lambda _: nearest[None])) if finalists.size > 1 else 0
        best = int(finalists[at])
        selected.append(best)
        if len(selected) == k:
            break
        row = dist[best]
        changed = (row < nearest).nonzero()[0]
        old, new = nearest[changed], row[changed]
        nearest[changed] = new
        dropped = float(old.sum())
        # both sums below add terms of at most the changed points' old
        # distances; each addition into a gain is one rounding of a value at
        # most twice the total
        parts = runs(changed.size, 8 * n)
        err += EPS * ((changed.size + 1) * dropped + 2 * (len(parts) + 1) * total)
        total = float(nearest.sum())
        if err > 4 * _rounding(n, total):
            gain = _gains(dist, nearest, selected)
            err = _rounding(n, total)
            continue
        # Σ_o max(0, old − d) − max(0, new − d) = Σ_o old − clip(d, new, old)
        for part in parts:
            block = dist[changed[part]]
            np.minimum(block, old[part, None], out=block)
            np.maximum(block, new[part, None], out=block)
            gain += block.sum(axis=0)
        gain -= dropped
        gain[best] = -np.inf
    return selected


def _gains(dist: np.ndarray, nearest: np.ndarray, selected: list[int]) -> np.ndarray:
    """Each point's BUILD gain, Σ_o max(0, nearest[o] − d(c, o)), from
    scratch; -inf for the selected points, so they are never picked."""
    n = len(nearest)
    gain = np.empty(n)
    for part in runs(n, 8 * n):
        block = np.minimum(dist[part], nearest)
        gain[part] = np.subtract(nearest, block, out=block).sum(axis=1)
    gain[selected] = -np.inf
    return gain


def _swap(dist: np.ndarray, selected: list[int]) -> list[int]:
    n = dist.shape[0]
    selected = list(selected)
    k = len(selected)
    chosen = np.zeros(n, dtype=bool)
    chosen[selected] = True
    # the medoids, then the candidates; column s of the screening arrays
    # prices candidate slots[s], and a medoid swapped out takes the column
    # of the candidate swapped in
    cols = np.concatenate([selected, np.flatnonzero(~chosen)])
    medoids, slots = cols[:k], cols[k:]
    slot_of = np.full(n, -1)
    slot_of[slots] = np.arange(n - k)
    # per point: the positions (row 0) and distances (row 1) of its nearest
    # medoid (column 0) and of the nearest at any other position
    pos, dists = np.empty((2, n), dtype=np.intp), np.empty((2, n))
    for part in runs(n, 8 * k):
        pos[:, part], dists[:, part] = _nearest_two(dist[part][:, medoids])
    near, second = dists
    # the values _cost sums, in its order, so the same bits
    current = float(near.sum())
    total = float(dists.sum())
    gain, per = _screen(dist, slots, pos[0], dists, k)
    err = _rounding(n, total)
    while True:
        # delta[p, s] = per[p, s] − gain[s], the change in cost of putting
        # slots[s] at position p; by_slot is its minimum over p
        by_slot = per.min(axis=0)
        by_slot -= gain
        lowest = float(by_slot[by_slot.argmin()])
        slack = _rounding(n, total) + err
        if lowest >= slack:
            return selected
        bar = lowest + 2 * slack
        close = (by_slot <= bar).nonzero()[0]
        at_pos, at_slot = (per[:, close] - gain[close] <= bar).nonzero()
        cands = slots[close[at_slot]]
        # PAM's own totals in PAM's order, positions ascending and then
        # candidates, so argmin picks the exchange PAM picks
        order = np.lexsort((cands, at_pos))
        at_pos, cands = at_pos[order], cands[order]
        costs = _totals(
            dist, cands, lambda part: np.where(pos[0] == at_pos[part, None], second, near)
        )
        i = int(costs.argmin())
        if costs[i] >= current:
            return selected
        p, newcomer = int(at_pos[i]), int(cands[i])
        leaving = selected[p]
        selected[p] = newcomer
        current = float(costs[i])
        s = slot_of[newcomer]
        medoids[p], slots[s] = newcomer, leaving
        slot_of[leaving] = s

        # only these points' nearest or second medoid changes
        moved = ((dist[newcomer] < second) | (pos[0] == p) | (pos[1] == p)).nonzero()[0]
        mag = adds = 0
        # _move's (4, rows, n - k) minima are the largest block
        for part in runs(moved.size, 32 * n):
            ids = moved[part]
            rows = dist[ids][:, cols]
            old_pos, old = pos[0, ids], dists[:, ids]
            new_pos, new = _nearest_two(rows[:, :k])
            pos[:, ids], dists[:, ids] = new_pos, new
            run = _move(rows[:, k:], gain, per, (old_pos, new_pos[0]), (old, new))
            mag += run[0]
            adds += run[1]
        new_total = float(dists.sum())
        # each moved point's terms are one rounding of at most its nearest or
        # second distance, summed over the moved points; each addition into a
        # screening value is one more rounding, of a value at most the old
        # total plus the moved points' distances
        err += EPS * ((moved.size + 2) * mag + adds * (total + new_total))
        total = new_total
        if err > 4 * _rounding(n, total):
            del gain, per, by_slot  # before the new table, not beside it
            gain, per = _screen(dist, slots, pos[0], dists, k)
            err = _rounding(n, total)
            continue
        # the swapped-out medoid's column, from scratch
        low = np.minimum(dist[leaving], dists)
        gain[s] = (near - low[0]).sum()
        per[:, s] = np.bincount(pos[0], low[1] - low[0], k)


def _nearest_two(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """From the distances d (overwritten) of some points to the k medoids:
    the (2, a) positions and distances of each point's nearest medoid, then
    of the nearest among the other positions (inf when k == 1). Ties go to
    the lowest position."""
    rows = np.arange(d.shape[0])
    first = d.argmin(axis=1)
    near = d[rows, first]
    d[rows, first] = np.inf
    second = d.argmin(axis=1)
    return np.array([first, second]), np.array([near, d[rows, second]])


def _screen(
    dist: np.ndarray, slots: np.ndarray, pos: np.ndarray, dists: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """FastPAM1's screening arrays from scratch: gain[s] and per[p, s], whose
    difference per[p, s] − gain[s] is the change in cost of putting
    candidate c = slots[s] at medoid position p.

    With near, second = dists and lo = min(d(c, o), near[o]), point o's
    cost after the exchange is lo, unless its nearest medoid (at pos[o]) is
    the one leaving; then it is min(d(c, o), second[o]). So gain[s] =
    Σ_o (near[o] − lo), BUILD's gain, and per[p, s] =
    Σ_{o: pos[o] = p} (min(d(c, o), second[o]) − lo). The points are grouped
    by nearest position so np.add.reduceat sums the second term.
    """
    order = np.argsort(pos, kind="stable")
    counts = np.bincount(pos, minlength=k)
    # reduceat cannot sum an empty group (a medoid that is nobody's nearest,
    # such as a duplicate of one at a lower position), so those stay zero
    filled = counts > 0
    starts = (np.cumsum(counts) - counts)[filled]
    near, second = dists[:, order]
    gain = np.empty(slots.size)
    per = np.zeros((k, slots.size))
    for part in runs(slots.size, 8 * len(pos)):
        rows = np.take(dist[slots[part]], order, axis=1)
        low = np.minimum(rows, near)
        gain[part] = (near - low).sum(axis=1)
        rows = np.minimum(rows, second, out=rows)
        per[filled, part] = np.add.reduceat(np.subtract(rows, low, out=rows), starts, axis=1).T
    return gain, per


def _move(block: np.ndarray, gain: np.ndarray, per: np.ndarray, pos, dists) -> tuple[float, int]:
    """Move the contributions of some points in gain and per from their old
    to their new state. block holds their distances to the candidates, one
    row per point; pos holds their old and new nearest positions, dists
    their old and new (2, a) nearest and second distances. Returns the sum
    of those distances and the most additions made to one value."""
    bounds = np.concatenate(dists)
    low = np.minimum(block, bounds[:, :, None])
    sums = bounds.sum(axis=1)
    # Σ_o (near[o] − lo), old minus new, out of each candidate's gain
    gain += low[0].sum(axis=0) - low[2].sum(axis=0) + (sums[2] - sums[0])
    # min(d, second) − lo out of each point's old position, into its new
    terms = low[1::2] - low[0::2]
    for i, (was, now) in enumerate(zip(pos[0].tolist(), pos[1].tolist())):
        per[was] -= terms[0, i]
        per[now] += terms[1, i]
    return float(sums.sum()), int(np.bincount(np.concatenate(pos)).max())


def _totals(dist: np.ndarray, cands: np.ndarray, bases) -> np.ndarray:
    """PAM's total Σ_o min(base[o], d(c, o)) for each candidate c = cands[j],
    where bases(part) gives the bases of the run cands[part], one row for
    all of them or one per candidate. Each is summed as classic PAM sums it:
    down a column of the column-major block that dist[:, cands] is. Taking
    rows and transposing gives the same values (dist is symmetric) in that
    layout."""
    out = np.empty(cands.size)
    for part in runs(cands.size, 8 * dist.shape[0]):
        block = dist[cands[part]].T
        out[part] = np.minimum(bases(part).T, block, out=block).sum(axis=0)
    return out


def _rounding(n: int, total: float) -> float:
    """A bound on the rounding of a sum of at most n + 1 computed terms whose
    magnitudes add up to total: 2·(n + 2)·eps·total, with eps = 2^-52 = 2u,
    about four times γ_{n+1}·total = (n + 1)·u/(1 − (n + 1)·u)·total.

    It bounds both sides of every comparison screening stands in for:
    - PAM's total for a candidate sums n exact terms, each at most the
      point's current nearest (BUILD) or second distance (SWAP); the
      current cost it is compared with sums the n nearest distances.
    - Screening values computed from scratch: each term is one subtraction,
      then sums of at most n terms and, for a SWAP delta, one subtraction.
    With total = S1 (BUILD) or S1 + S2 (SWAP), S1 = Σ nearest and
    S2 = Σ second, and err the bound on the screening values (the bound
    when they were last computed from scratch, plus the magnitude of every
    update since), slack = _rounding(n, total) + err. Then no exchange
    lowers PAM's total when min delta ≥ slack, and every candidate or
    exchange PAM can pick lies within 2·slack of the best screening value.
    A larger slack only evaluates more finalists. With k == 1, second is inf
    and so is the slack: every candidate is evaluated.
    """
    return 2.0 * (n + 2) * EPS * total
