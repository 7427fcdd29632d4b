"""Vietoris-Rips construction for a pair of point clouds A and B.

The full complex is built on A followed by B; a simplex belongs to the
subcomplex L exactly when all of its vertices come from A. Simplex values
are diameters (largest pairwise dissimilarity, 0 for vertices) and the
cell order is (value, dim, L before ambient-only, lexicographic vertices),
which puts every face before its cofaces and is a total order, so repeated
builds are identical.

The build works on arrays, one dimension at a time, with no per-simplex
Python: edges come from an upper-triangle threshold mask, and each higher
dimension joins every simplex with its later siblings, the simplices of
the same parent whose last vertices neighbour its own (the expansion step
of the simplex tree, Boissonnat & Maria, "The Simplex Tree", 2014), so the
work follows the cofaces and their candidates rather than n-wide rows of
the mask. Simplices are then addressed by position, as in Ripser, rather
than through a dict of vertex tuples: a face is found by searchsorted on
(parent position, last vertex). One lexsort gives the cell order, and the
result is the array layout of FilteredPair.

That layout is handed over unvalidated, through FilteredPair's one private
route for it: the build meets every rule of validate() by construction.
Each face is found in the layer below it, so its dimension is one less
and its id earlier; a face's value is never above its coface's, so the
lexsort on (value, dim, ...) puts it first; and a simplex on A-points has
only A-point faces, so L is closed. The tests call validate() on builds
over random clouds instead: on a 2M-cell build the check takes longer
than the build and more than doubles its peak memory.
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
    held: list[np.ndarray] | None = None,
) -> FilteredPair:
    """Rips pair over an explicit dissimilarity matrix.

    Rows 0..n_a-1 are the A-points (the subcomplex L), the rest are B.
    The matrix and the parameters are checked; the pair built from them is
    not, as it meets validate()'s rules by construction (module docstring).
    `held` lists other dense matrices in use while the build runs, such as
    the whole matrix dist was sliced from. The build is charged them beside
    its own matrix and cells while they fit, and empties the list once they
    do not, so that its owner frees them; only a build that is over the
    budget alone is refused.
    """
    dist = np.asarray(dist, dtype=float)
    check_distance_matrix(dist)
    n = dist.shape[0]
    if not 1 <= n_a <= n:
        raise InputError(f"A must hold between 1 and {n} of the {n} points, got {n_a}")
    check_rips_params(r_max, k_max)

    layers = _expand(dist, r_max, k_max + 1, held)
    dims = np.concatenate([np.full(len(lay.last), d, dtype=np.int64) for d, lay in enumerate(layers)])
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
    return FilteredPair._built(dims[order], value[order], ~ambient[order], indptr, indices)


class _Layer(NamedTuple):
    """The d-simplices of a Rips complex in lexicographic vertex order.

    Simplex i is the (d-1)-simplex `parent[i]` of the layer below extended
    by the vertex `last[i]`, larger than all of its vertices; `faces[i, j]`
    is the position in the layer below of the face without vertex j. In
    the vertex layer, parent and last are the vertex itself. The order
    keeps the simplices of one parent, siblings, together and ascending in
    last.
    """

    parent: np.ndarray
    last: np.ndarray
    value: np.ndarray
    faces: np.ndarray


def _expand(dist: np.ndarray, r_max: float, max_dim: int, held: list | None = None) -> list[_Layer]:
    """All cliques of the r_max-neighborhood graph up to dimension max_dim.

    The edges are the pairs i < j of the mask `later`. Each higher layer
    joins a simplex i with its later siblings j, the simplices after it
    that extend the same parent: last[j] neighbours every vertex of the
    parent, so i extended by last[j] is a clique exactly when last[i] and
    last[j] are neighbours too (the expansion step of the simplex tree,
    Boissonnat & Maria, "The Simplex Tree", 2014). The candidates are these
    pairs, not n-wide rows of the mask, and the coface's diameter is the
    max of its two siblings' and of the edge between their last vertices.

    A face of a coface (v_0..v_d) without v_j, j < d - 1, is the face of
    its parent without v_j, extended by v_d, so it is found by
    searchsorted on the key parent * n + last. That key is below n times
    the length of an array in memory, far from 2^63 for any n whose n x n
    matrix fits in memory; a mixed-radix key over the vertex tuple would
    overflow once n^(d+1) >= 2^63. The faces without v_(d-1) and v_d are
    the two siblings themselves.

    The cells are counted as they are found, the edges before they are
    listed and each run's cofaces before a layer is assembled; once they and
    the n x n matrix are over cloud.within_budget, the build stops with an
    InputError. The matrices of `held` are charged beside them until they
    take the count over, and then dropped from the list.
    """
    n = dist.shape[0]
    verts = np.arange(n)
    layers = [_Layer(verts, verts, np.zeros(n), np.empty((n, 0), dtype=np.int64))]
    # keep the mask above the diagonal, clearing it a run of rows at a time:
    # one temporary within BLOCK_BYTES, so the build's peak is the 9 bytes per
    # entry cloud.MAX_MATRIX_BYTES counts (np.triu would add two n^2 masks)
    later = np.less_equal(dist, r_max, order="C")
    for part in runs(n, n):
        block = later[part, : part.stop]
        block &= np.tri(block.shape[1], len(block), -part.start - 1, dtype=bool).T  # j > i
    flat = later.ravel()  # a view: entry (v, w) is flat[v * n + w]
    cells = _counted(n, n + np.count_nonzero(flat), held)
    u, w = np.divmod(np.flatnonzero(flat), n)
    layers.append(_Layer(u, w, dist[u, w], np.stack([w, u], axis=1)))
    for d in range(2, max_dim + 1):
        below = layers[-1]
        # simplex i's candidates are the siblings after it, i + 1 .. end[i] - 1;
        # a run takes as many simplices as the largest family fits in its bytes
        end = np.searchsorted(below.parent, below.parent, side="right")
        width = int((end - np.arange(len(end))).max(initial=1))
        pairs = [np.empty((2, 0), dtype=np.int64)]
        for part in runs(len(end), 8 * width):
            own = np.arange(*part.indices(len(end)))
            count = end[own] - own - 1
            i = np.repeat(own, count)
            j = i + 1 + np.arange(len(i)) - np.repeat(np.cumsum(count) - count, count)
            ok = np.flatnonzero(flat[below.last[i] * n + below.last[j]])
            cells = _counted(n, cells + len(ok), held)
            pairs.append(np.stack([i[ok], j[ok]]))
        parent, sibling = np.concatenate(pairs, axis=1)
        if not len(parent):
            break
        last = below.last[sibling]
        value = np.maximum(
            np.maximum(below.value[parent], below.value[sibling]), dist[below.last[parent], last]
        )
        key = below.parent * n + below.last
        faces = np.empty((len(parent), d + 1), dtype=np.int64)
        for k in range(d - 1):
            faces[:, k] = np.searchsorted(key, below.faces[parent, k] * n + last)
        faces[:, d - 1] = sibling
        faces[:, d] = parent
        layers.append(_Layer(parent, last, value, faces))
    return layers


def _counted(n: int, cells: int, held: list | None) -> int:
    """The running cell count of a build over n points, within the budget;
    held is emptied once its matrices would take the count over."""
    if held and not cloud.within_budget(n * n + sum(m.size for m in held), cells):
        held.clear()
    if not cloud.within_budget(n * n, cells):
        raise InputError(
            f"the Rips build of {n:,} points and {cells:,} cells counted so far is over the budget of "
            f"{cloud.MAX_MATRIX_BYTES:,} bytes (mixbar.cloud.MAX_MATRIX_BYTES); lower --rmax or --kmax"
        )
    return cells
