"""Vietoris-Rips construction for a pair of point clouds A and B.

The full complex is built on A followed by B; a simplex belongs to the
subcomplex L exactly when all of its vertices come from A. Simplex values
are diameters (largest pairwise dissimilarity, 0 for vertices) and the
cell order is (value, dim, L before ambient-only, lexicographic vertices),
which puts every face before its cofaces and is a total order, so repeated
builds are identical.

The build works on arrays, one dimension at a time, with no per-simplex
Python: edges come from an upper-triangle threshold mask, and each higher
dimension extends every simplex by the common later neighbours of its
vertices (the expansion step of Zomorodian, "Fast construction of the
Vietoris-Rips complex", 2010). Simplices are then addressed by position,
as in Ripser, rather than through a dict of vertex tuples: a face is found
by searchsorted on (parent position, last vertex). One lexsort gives the
cell order, and the result is the array layout of FilteredPair, checked by
its validate() like any other input.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import cloud
from .cloud import PointCloud, check_distance_matrix, pairwise_distances, runs
from .errors import InputError
from .filtration import FilteredPair

# A k-simplex brings k + 1 points and 2^(k+1) - 1 cells, itself and its faces;
# past k = MAX_K = 22 no build holding one fits cloud.within_budget.
MAX_K = max(k for k in range(64) if cloud.within_budget((k + 1) ** 2, 2 ** (k + 1) - 1))


def check_rips_params(r_max: float, k_max: int) -> None:
    """The rule on every Rips build: r_max finite and > 0, 0 <= k_max <= MAX_K."""
    if not (np.isfinite(r_max) and r_max > 0):
        raise InputError(f"r_max must be a finite number > 0, got {r_max}")
    if k_max < 0:
        raise InputError(f"k_max must be non-negative, got {k_max}")
    if k_max > MAX_K:
        raise InputError(f"k_max must be at most {MAX_K} (mixbar.rips.MAX_K), got {k_max}")


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

    layers = _expand(dist, r_max, k_max + 1)
    dims = np.concatenate([np.full(len(lay.last), d) for d, lay in enumerate(layers)])
    value = np.concatenate([lay.value for lay in layers])
    ambient = np.concatenate([lay.last for lay in layers]) >= n_a
    # generation order is (dim, vertices); a stable sort keeps it within ties
    order = np.lexsort((ambient, dims, value))
    position = np.empty(len(order), dtype=np.int64)
    position[order] = np.arange(len(order))

    counts = np.where(dims > 0, dims + 1, 0)[order]
    indptr = np.zeros(len(order) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int64)
    offset = len(layers[0].last)
    for d in range(1, len(layers)):
        m = len(layers[d].last)
        own = position[offset : offset + m]
        face_ids = np.sort(position[offset - len(layers[d - 1].last) + layers[d].faces] + 1, axis=1)
        indices[(indptr[own][:, None] + np.arange(d + 1)).ravel()] = face_ids.ravel()
        offset += m
    return FilteredPair(dims[order], value[order], ~ambient[order], indptr, indices)


class _Layer(NamedTuple):
    """The d-simplices of a Rips complex in lexicographic vertex order.

    Simplex i is the (d-1)-simplex `parent[i]` of the layer below extended
    by the vertex `last[i]`, larger than all of its vertices; `faces[i, j]`
    is the position in the layer below of the face without vertex j. In
    the vertex layer, parent and last are the vertex itself.
    """

    parent: np.ndarray
    last: np.ndarray
    value: np.ndarray
    faces: np.ndarray


def _expand(dist: np.ndarray, r_max: float, max_dim: int) -> list[_Layer]:
    """All cliques of the r_max-neighborhood graph up to dimension max_dim.

    Each layer extends every simplex of the one below by the common later
    neighbours of its vertices: the AND of their rows of `later`, over
    runs of simplices (cloud.runs), one n-byte mask row each. A face of a
    simplex (v_0..v_d) without v_j, j < d, is the face of its parent
    without v_j, extended by v_d, so it is found by
    searchsorted on the key parent * n + last. That key is below n times
    the length of an array in memory, far from 2^63 for any n whose n x n
    matrix fits in memory; a mixed-radix key over the vertex tuple would
    overflow once n^(d+1) >= 2^63.

    The cells are counted as they are found, the edges before they are
    listed and each run's cofaces before a layer is assembled; once they and
    the n x n matrix are over cloud.within_budget, the build stops with an InputError.
    """
    n = dist.shape[0]
    verts = np.arange(n)
    layers = [_Layer(verts, verts, np.zeros(n), np.empty((n, 0), dtype=np.int64))]
    # keep the mask above the diagonal, clearing it a run of rows at a time:
    # one temporary within BLOCK_BYTES, so the build's peak is the 9 bytes per
    # entry cloud.MAX_MATRIX_BYTES counts (np.triu would add two n^2 masks)
    later = dist <= r_max
    for part in runs(n, n):
        block = later[part, : part.stop]
        block &= np.tri(block.shape[1], len(block), -part.start - 1, dtype=bool).T  # j > i
    cells = _counted(n, n + np.count_nonzero(later))
    u, w = np.nonzero(later)
    layers.append(_Layer(u, w, dist[u, w], np.stack([w, u], axis=1)))
    simplices = np.stack([u, w], axis=1)  # vertices of the top layer
    for d in range(2, max_dim + 1):
        below = layers[-1]
        parents, lasts = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
        for part in runs(len(simplices), n):
            rows = simplices[part]
            mask = later[rows[:, 0]]
            for j in range(1, d):
                mask &= later[rows[:, j]]
            p, v = np.nonzero(mask)
            cells = _counted(n, cells + len(p))
            parents.append(p + part.start)
            lasts.append(v)
        parent = np.concatenate(parents)
        last = np.concatenate(lasts)
        if not len(parent):
            break
        simplices = np.concatenate([simplices[parent], last[:, None]], axis=1)
        value = np.maximum(below.value[parent], dist[simplices[:, :-1], last[:, None]].max(axis=1))
        key = below.parent * n + below.last
        faces = np.empty((len(parent), d + 1), dtype=np.int64)
        for j in range(d):
            faces[:, j] = np.searchsorted(key, below.faces[parent, j] * n + last)
        faces[:, d] = parent
        layers.append(_Layer(parent, last, value, faces))
    return layers


def _counted(n: int, cells: int) -> int:
    """The running cell count of a build over n points, within the budget."""
    if not cloud.within_budget(n * n, cells):
        raise InputError(
            f"the Rips build of {n:,} points and {cells:,} cells counted so far is over the budget of "
            f"{cloud.MAX_MATRIX_BYTES:,} bytes (mixbar.cloud.MAX_MATRIX_BYTES); lower --rmax or --kmax"
        )
    return cells
