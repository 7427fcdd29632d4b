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
L-cells alone. A pass over vertex columns is union-find: the pivot of an
edge column is the youngest vertex of the component it merges into an
older one (the elder rule), so union-find over the edges in the order
given pairs the same cells and builds no column, where most vertex
coboundaries collide. An edge with one boundary vertex joins a ground
node older than every vertex; an edge with none merges nothing.

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
- Columns built on collision. Each column's first pivot comes from numpy.
  A column whose pivot is unclaimed claims it as it stands (an emergent
  pair, Bauer, "Ripser", 2021), and a column becomes a Python-int bitset
  only when it, or an owner it must absorb, is added to. Addition is `^`
  and the pivot is the highest set bit.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InputError
from .filtration import FilteredPair

INF = math.inf


def reduce_columns(pivots, build) -> dict[int, int]:
    """Left-to-right reduction of columns given as (column id, first pivot)
    pairs in column order, the pivot -1 for a zero column.

    build(column id) returns the column as a Python-int bitset whose highest
    set bit is its first pivot; addition is `^`. A column whose pivot no
    earlier column owns is reduced as it stands and claims that pivot
    unbuilt (an emergent pair), so build runs only for a column that has to
    absorb an earlier one and for the owners it absorbs. Each column
    absorbs the owner of its pivot until the pivot is unclaimed or the
    column is zero. Returns the pairing (pivot row -> column id), which
    does not depend on the order of valid additions.
    """
    owner: dict[int, int] = {}
    reduced: dict[int, int] = {}  # pivot row -> bitset of its owner, once built
    for cid, p in pivots:
        if p < 0:
            continue
        if p not in owner:
            owner[p] = cid
            continue
        col = build(cid)
        while True:
            prev = reduced.get(p)
            if prev is None:
                # claimed unbuilt, so never reduced: its column is as built
                prev = reduced[p] = build(owner[p])
            col ^= prev
            if not col:
                break
            p = col.bit_length() - 1
            if p not in owner:
                owner[p] = cid
                reduced[p] = col
                break
    return owner


def merge_edges(fp: FilteredPair, cols: np.ndarray, rows: np.ndarray) -> dict[int, int]:
    """Pairing of the coboundaries of the vertices cols, given in image
    order, restricted to the 1-cells rows, keyed by vertex: elder-rule
    union-find over rows in the order given.

    A vertex's key is its place in cols, counted from 1; a missing end of
    an edge is the ground node, key 0, older than every vertex. An edge
    pairs with the root of the younger of the two components it merges;
    the edges left out merge nothing, and their columns reduce to zero.
    """
    key = np.zeros(fp.n + 1, dtype=np.int64)
    key[cols] = np.arange(1, len(cols) + 1)
    key = key.tolist()
    faces, bounds = fp.faces_of(rows)
    padded = np.append(faces, [0, 0])
    count = np.diff(bounds)
    ends = [np.where(count > i, padded[bounds[:-1] + i], 0).tolist() for i in (0, 1)]
    parent: dict[int, int] = {}
    deaths: dict[int, int] = {}
    for eid, u, w in zip(rows.tolist(), *ends):
        # the roots of u and w, halving their paths
        while (up := parent.get(u, u)) != u:
            parent[u] = u = parent.get(up, up)
        while (up := parent.get(w, w)) != w:
            parent[w] = w = parent.get(up, up)
        if u == w:
            continue
        if key[u] > key[w]:
            u, w = w, u
        parent[w] = u
        deaths[w] = eid
    return deaths


def _coboundary_pairs(fp: FilteredPair, cols: np.ndarray, cofaces: np.ndarray) -> dict[int, int]:
    """Pairing of the coboundaries of the j-cells cols, given in image order
    and reduced in the reverse of it, restricted to the (j+1)-cells cofaces,
    keyed by j-cell.

    A column's rows are its cofaces, the earliest in the order given the
    highest, so its pivot is its earliest coface; the pair (j-cell,
    (j+1)-cell) is the one the reduced boundary matrix gives when its
    columns are cofaces in that order and its rows the j-cells in image
    order. One sort of the keys column·m + coface position, m = len(cofaces),
    lists each column's entries together, earliest coface first, and the
    entries of column i are then its rows (i + 1)·m − 1 − key.
    """
    m = len(cofaces)
    place = np.full(fp.n + 1, -1, dtype=np.int64)
    place[cols] = np.arange(len(cols) - 1, -1, -1)
    entries, bounds = fp.faces_of(cofaces)
    key = place[entries] * m + np.repeat(np.arange(m), np.diff(bounds))
    key = np.sort(key[key >= 0])
    starts = np.searchsorted(key, np.arange(len(cols) + 1) * m)
    full = starts[1:] > starts[:-1]
    top = np.full(len(cols), -1, dtype=np.int64)
    top[full] = (np.flatnonzero(full) + 1) * m - 1 - key[starts[:-1][full]]
    top, starts = top.tolist(), starts.tolist()

    def build(i: int) -> int:
        # one bytearray and one conversion, not a big int per row
        col = bytearray((top[i] >> 3) + 1)
        for r in ((i + 1) * m - 1 - key[starts[i] : starts[i + 1]]).tolist():
            col[r >> 3] |= 1 << (r & 7)
        return int.from_bytes(col, "little")

    pairs = reduce_columns(enumerate(top), build)
    cols, cofaces = cols.tolist(), cofaces.tolist()
    return {cols[-1 - i]: cofaces[-1 - p] for p, i in pairs.items()}


class MixupTriple(NamedTuple):
    """(b, d', d): birth, image (premature) death, death, with b <= d' <= d.

    In filtration indices the entries are cell ids, in filtration values
    they are the values of those cells; a death is +inf for a class that
    never dies (in K, respectively in L). The order is not checked here:
    the reduction produces it, and a MixupBarcode checks every value row.
    """

    birth: float
    death_image: float
    death: float


def mixup_barcode_indices(fp: FilteredPair, k: int) -> list[MixupTriple]:
    """Mixup triples of degree k, one per k-cycle creator of L.

    For each k-cell of L whose reduced L-column is zero (it creates a class
    of H_k(L)), d is the column paired with it in the L-matrix and d' the
    column paired with it in the ambient matrix; either is +inf when no
    column claims it. One chain serves every degree (see the module
    docstring): the vertices are kept, each degree j = 1..k keeps the
    j-cells that a pass over the kept (j-1)-cells leaves unpaired, and the
    kept k-cells of L are the creators. A pass over the kept k-cells and
    all (k+1)-cells gives d', one over the creators and the (k+1)-cells of
    L gives d. A degree above the dimension of the complex keeps no cells,
    so it gives no triples; a negative degree is an InputError.
    """
    if k < 0:
        raise InputError(f"degree must be non-negative, got {k}")
    # the image order: L-cells first, then the ambient-only cells, each in
    # filtration order. Under it a reduced ambient column kills the youngest
    # ambient-only class whenever one is available, which makes the pairing
    # against L-cycles the image pairing.
    by_image = np.argsort(~fp.in_l, kind="stable") + 1
    dims = fp.dim[by_image - 1]

    def pairs(j: int, cols: np.ndarray, rows: np.ndarray) -> dict[int, int]:
        # vertices pair by union-find, which builds no column
        return (merge_edges if j == 0 else _coboundary_pairs)(fp, cols, rows)

    kept = by_image[dims == 0]
    for j in range(1, k + 1):
        cells = by_image[dims == j]
        paired = np.zeros(fp.n + 1, dtype=bool)
        paired[list(pairs(j - 1, kept, cells).values())] = True
        kept = cells[~paired[cells]]
    born = kept[fp.in_l[kept - 1]]
    cofaces = np.flatnonzero(fp.dim == k + 1) + 1
    deaths_k = pairs(k, kept, cofaces)
    deaths_l = pairs(k, born, cofaces[fp.in_l[cofaces - 1]])
    return [MixupTriple(c, deaths_k.get(c, INF), deaths_l.get(c, INF)) for c in born.tolist()]
