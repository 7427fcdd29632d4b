"""Mixup triples over Z/2 under the image row order.

The persistence pairing of the ambient complex K and of the subcomplex L
are read off the same matrix under one shared row order that lists the
L-cells first. Reducing the ambient matrix under that order pairs each
L-cycle with the earliest column of K that kills it (the image death, or
premature death); reducing only the L-columns pairs it with its death
inside L. The two deaths bracket each bar of L into an image sub-bar
[b, d') and a mixup sub-bar [d', d).

Both pairings of degree k come from passes over coboundaries. The pivot
pairing of a matrix equals that of its anti-transpose, because both are
read off the ranks of the same lower-left submatrices (de Silva, Morozov &
Vejdemo-Johansson, "Dualities in persistent (co)homology", 2011). So a
pass takes k-cells as columns in reverse image order and their (k+1)-cell
cofaces as rows, a column's pivot being its earliest coface; each pair
(k-cell, (k+1)-cell) is the one the boundary matrix gives. The K pass
runs over all (k+1)-cells in filtration order, the L pass over the
L-cells alone; each returns, per column, the cell that kills it (0 for
none). A pass over vertex columns is union-find by image position: the
pivot of an edge column is the youngest vertex of the component it
merges into an older one (the elder rule), so union-find over the edges
in the order given pairs the same cells and builds no column. Coboundary
columns pair vertices up to 1.5x faster on dense clouds (47k-93k cells)
and up to 6x slower on sparse ones, but can grow into cluster cuts: for
1,000 points at x = i^2 listed in reverse, all in A, r_max past the
diameter (500,500 cells), degree 0 takes 0.24-0.27 s at 160 B per cell
by union-find and 12.3 s at 2,746 B per cell by coboundary columns
(tracemalloc peaks, 2-CPU VM). An edge with one boundary vertex joins a
ground node older than every vertex; an edge with none merges nothing.

One chain gives the columns of every degree k, and most columns never
need reducing:

- Clearing (Chen & Kerber, "Persistent homology computation with a
  twist", 2011). The chain keeps the vertices in image order. For each
  j = 1..k a pass over the kept (j-1)-cells, with the j-cells as rows in
  image order, pairs exactly the j-cells whose boundary columns do not
  reduce to zero under the image order: the set of pivot rows of a matrix
  depends only on its row order, not on its column order. Such a j-cell
  is never a pivot row one degree up, so its column is dropped, and the
  others are kept. The order must be the image order: clearing K by the
  filtration-order forest gives wrong triples.
- L needs no clearing of its own. Image order lists the L-cells first, so
  whether an L-column reduces to zero depends on L-columns alone, and the
  kept L k-cells are the k-cycle creators of L.
- Columns as sorted arrays of rows, the first the pivot: views of one
  sort, so they cost their nonzeros (PHAT, Bauer et al., 2017). A column
  whose pivot is unclaimed claims it as it stands (an emergent pair,
  Bauer, "Ripser", 2021); only a column that absorbs others is stored
  again, summed first in one flag per row, as long chains make it dense.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError
from .filtration import FilteredPair

INF = math.inf


def reduce_columns(pivots, column, m: int) -> dict[int, int]:
    """Left-to-right reduction of columns over the rows 0..m-1, given as
    (column id, first pivot) pairs in column order, the pivot -1 for a zero
    column; column(column id) returns the column's rows, ascending.

    A column whose pivot no earlier column owns claims it as it stands (an
    emergent pair). Any other absorbs the owner of its pivot until the pivot
    is unclaimed or the column is zero. Returns the pairing (pivot row ->
    column id), which does not depend on the order of valid additions.
    """
    owner: dict[int, int] = {}
    reduced: dict[int, np.ndarray] = {}  # pivot row -> its owner's column, where added to
    work = np.zeros(m, dtype=bool)  # the column being reduced: an addition flips rows
    for cid, p in pivots:
        if p < 0:
            continue
        if p not in owner:
            owner[p] = cid
            continue
        terms = [column(cid)]
        work[terms[0]] = True
        while True:
            prev = reduced[p] if p in reduced else column(owner[p])
            work[prev] = ~work[prev]
            terms.append(prev)
            p += int(work[p:].argmax())  # no row before p is set, nor p itself
            if not work[p]:
                break  # a zero column leaves no row set
            if p not in owner:
                owner[p] = cid
                # the rows left set, each once; clearing them clears the scratch
                rows = np.concatenate(terms)
                rows = np.sort(rows[work[rows]])
                work[rows] = False
                reduced[p] = rows[np.concatenate(([True], rows[1:] != rows[:-1]))]
                break
    return owner


def merge_edges(fp: FilteredPair, cols: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Pairing of the coboundaries of the vertices cols, given in image
    order, restricted to the 1-cells rows: elder-rule union-find over rows
    in the order given. Entry i is the edge that kills cols[i], 0 for none.

    Every end of an edge in rows is in cols, or is missing: the ground
    node, older than every vertex. Union-find keys a vertex by its place in
    cols, counted from 1, and the ground node by 0. An edge pairs with the
    root of the younger of the two components it merges; the edges left
    out merge nothing, and their columns reduce to zero.
    """
    key = np.zeros(fp.n + 1, dtype=np.int64)
    key[cols] = np.arange(1, len(cols) + 1)
    faces, bounds = fp.faces_of(rows)
    padded = np.append(key[faces], [0, 0])
    count = np.diff(bounds)
    ends = [np.where(count > i, padded[bounds[:-1] + i], 0).tolist() for i in (0, 1)]
    parent = list(range(len(cols) + 1))
    death = [0] * (len(cols) + 1)  # 1 + the place in rows of the edge that kills a root
    for i, u, w in zip(range(1, len(rows) + 1), *ends):
        # the roots of u and w, halving their paths
        while (up := parent[u]) != u:
            parent[u] = u = parent[up]
        while (up := parent[w]) != w:
            parent[w] = w = parent[up]
        if u == w:
            continue
        if u > w:
            u, w = w, u
        parent[w] = u
        death[w] = i
    return np.append(0, rows)[death[1:]]


def _coboundary_pairs(fp: FilteredPair, cols: np.ndarray, cofaces: np.ndarray) -> np.ndarray:
    """Pairing of the coboundaries of the j-cells cols, given in image order
    and reduced in the reverse of it, restricted to the (j+1)-cells cofaces:
    the pairs of the reduced boundary matrix whose columns are the cofaces
    in the order given and whose rows the j-cells in image order. Entry i
    is the coface that kills cols[i], 0 for none.

    A column's rows are its cofaces' positions, so its pivot is its earliest
    coface. One sort of the keys column·m + position, m = len(cofaces), lists
    each column's entries together; taken mod m in place, column i is
    rows[starts[i] : starts[i + 1]].
    """
    m = len(cofaces)
    place = np.full(fp.n + 1, -1, dtype=np.int64)
    place[cols] = np.arange(len(cols) - 1, -1, -1)
    entries, bounds = fp.faces_of(cofaces)
    rows = place[entries] * m + np.repeat(np.arange(m), np.diff(bounds))
    rows = np.sort(rows[rows >= 0])
    starts = np.searchsorted(rows, np.arange(len(cols) + 1) * m)
    full = starts[1:] > starts[:-1]
    rows %= m
    top = np.full(len(cols), -1, dtype=np.int64)
    top[full] = rows[starts[:-1][full]]
    starts = starts.tolist()
    pairs = reduce_columns(enumerate(top.tolist()), lambda i: rows[starts[i] : starts[i + 1]], m)
    killer = np.zeros(len(cols), dtype=np.int64)  # in the reverse of cols, as reduced
    killer[list(pairs.values())] = cofaces[list(pairs)]
    return killer[::-1]


def mixup_barcode_indices(fp: FilteredPair, k: int) -> np.ndarray:
    """Mixup triples of degree k in cell ids: an (m, 3) float64 array, one
    (b, d', d) row per k-cycle creator of L, with b <= d' <= d.

    For each k-cell b of L whose reduced L-column is zero (it creates a
    class of H_k(L)), d is the column paired with it in the L-matrix and d'
    the column paired with it in the ambient matrix; either is +inf when no
    column claims it. float64 holds every cell id exactly, as the budget
    admits far fewer than 2^53 cells. One chain serves every degree (see
    the module docstring): the vertices are kept, each degree j = 1..k
    keeps the j-cells that a pass over the kept (j-1)-cells leaves
    unpaired, and the kept k-cells of L are the creators. A pass over the
    kept k-cells and all (k+1)-cells gives d', one over the creators and
    the (k+1)-cells of L gives d. A degree above the dimension of the
    complex has no cells, so it gives an empty (0, 3) array, at once; a
    negative degree is an InputError.
    """
    if k < 0:
        raise InputError(f"degree must be non-negative, got {k}")
    if k > fp.max_dim:
        return np.empty((0, 3))
    # the image order: L-cells first, then the ambient-only cells, each in
    # filtration order. Under it a reduced ambient column kills the youngest
    # ambient-only class whenever one is available, which makes the pairing
    # against L-cycles the image pairing.
    by_image = np.argsort(~fp.in_l, kind="stable") + 1
    dims = fp.dim[by_image - 1]
    passes = [merge_edges] + [_coboundary_pairs] * k  # pass j over j-cells; vertices by union-find
    kept = by_image[dims == 0]
    for j in range(1, k + 1):
        cells = by_image[dims == j]
        paired = np.zeros(fp.n + 1, dtype=bool)
        paired[passes[j - 1](fp, kept, cells)] = True  # entry 0 marks no cell
        kept = cells[~paired[cells]]
    born = kept[fp.in_l[kept - 1]]  # the leading kept cells, as image order lists L first
    cofaces = np.flatnonzero(fp.dim == k + 1) + 1
    image_deaths = passes[k](fp, kept, cofaces)[: len(born)]
    ids = np.stack((born, image_deaths, passes[k](fp, born, cofaces[fp.in_l[cofaces - 1]])), axis=1)
    return np.where(ids > 0, ids, INF)


def id_rows(ids: np.ndarray) -> list[list]:
    """The rows of an id array as int cell ids, +inf where a death never comes."""
    never = np.isinf(ids)
    rows = np.where(never, 0, ids).astype(np.int64).astype(object)
    rows[never] = INF
    return rows.tolist()
