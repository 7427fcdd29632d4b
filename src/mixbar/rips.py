"""Vietoris-Rips construction for a pair of point clouds A and B.

The full complex is built on A followed by B; a simplex belongs to the
subcomplex L exactly when all of its vertices come from A. Simplex values
are diameters (largest pairwise dissimilarity, 0 for vertices) and the
cell order is (value, dim, L before ambient-only, lexicographic vertices),
which puts every face before its cofaces and is a total order, so repeated
builds are identical.
"""

from __future__ import annotations

import numpy as np

from .cloud import PointCloud, check_distance_matrix, pairwise_distances
from .errors import InputError
from .filtration import MEMBER_K, MEMBER_L, Cell, FilteredPair


def check_rips_params(r_max: float, k_max: int) -> None:
    """The rule on every Rips build: r_max finite and > 0, k_max >= 0."""
    if not (np.isfinite(r_max) and r_max > 0):
        raise InputError(f"r_max must be a finite number > 0, got {r_max}")
    if k_max < 0:
        raise InputError(f"k_max must be non-negative, got {k_max}")


def build_rips_pair(
    a: PointCloud,
    b: PointCloud | None,
    r_max: float,
    k_max: int,
) -> FilteredPair:
    """Rips filtration of A ∪ B with the A-spanned simplices marked as L.

    Simplices up to dimension k_max + 1 and diameter at most r_max are
    included, enough to resolve barcodes through degree k_max.
    """
    check_rips_params(r_max, k_max)
    if a.n_points == 0:
        raise InputError("cloud A must be nonempty")
    points = a.points
    if b is not None and b.n_points:
        if b.metric != a.metric:
            raise InputError(f"metric mismatch: A is {a.metric}, B is {b.metric}")
        if b.dim != a.dim:
            raise InputError(f"dimension mismatch: A is in R^{a.dim}, B in R^{b.dim}")
        points = np.concatenate([a.points, b.points], axis=0)
    dist = pairwise_distances(points, a.metric)
    return rips_pair_from_distances(dist, a.n_points, r_max, k_max)


def rips_pair_from_distances(
    dist: np.ndarray,
    n_a: int,
    r_max: float,
    k_max: int,
) -> FilteredPair:
    """Rips pair over an explicit dissimilarity matrix.

    Rows 0..n_a-1 are the A-points (the subcomplex L), the rest are B.
    """
    dist = np.asarray(dist, dtype=float)
    check_distance_matrix(dist)
    n = dist.shape[0]
    if not 1 <= n_a <= n:
        raise InputError(f"A must hold between 1 and {n} of the {n} points, got {n_a}")
    check_rips_params(r_max, k_max)

    simplices = _enumerate_simplices(dist, r_max, k_max + 1)
    simplices.sort(key=lambda s: (s[1], len(s[0]) - 1, 0 if s[0][-1] < n_a else 1, s[0]))

    id_of: dict[tuple[int, ...], int] = {}
    cells: list[Cell] = []
    for verts, value in simplices:
        cid = len(cells) + 1
        id_of[verts] = cid
        if len(verts) == 1:
            boundary: tuple[int, ...] = ()
        else:
            boundary = tuple(
                sorted(id_of[verts[:i] + verts[i + 1 :]] for i in range(len(verts)))
            )
        cells.append(
            Cell(
                id=cid,
                dim=len(verts) - 1,
                value=value,
                member=MEMBER_L if verts[-1] < n_a else MEMBER_K,
                boundary=boundary,
                vertices=verts,
            )
        )
    return FilteredPair.from_cells(cells)


def _enumerate_simplices(dist: np.ndarray, r_max: float, max_dim: int):
    """All cliques of the r_max-neighborhood graph up to max_dim vertices-1.

    Returns (vertex tuple ascending, diameter) pairs in no particular order.
    """
    n = dist.shape[0]
    out: list[tuple[tuple[int, ...], float]] = [((v,), 0.0) for v in range(n)]
    if max_dim == 0 or n == 0:
        return out
    within = dist <= r_max
    np.fill_diagonal(within, False)
    later = [np.flatnonzero(within[v] & (np.arange(n) > v)) for v in range(n)]

    def extend(verts: tuple[int, ...], value: float, cands: np.ndarray) -> None:
        for w in cands:
            w = int(w)
            new_value = max(value, float(dist[w, list(verts)].max()))
            new_verts = verts + (w,)
            out.append((new_verts, new_value))
            if len(new_verts) <= max_dim:
                extend(new_verts, new_value, np.intersect1d(cands, later[w], assume_unique=True))

    for v in range(n):
        extend((v,), 0.0, later[v])
    return out
