"""Mixup triples over Z/2 under the image row order.

The persistence pairing of the ambient complex K and of the subcomplex L
are read off the same matrix under one shared row order that lists the
L-cells first. Reducing the ambient matrix under that order pairs each
L-cycle with the earliest column of K that kills it (the image death, or
premature death); reducing only the L-columns pairs it with its death
inside L. The two deaths bracket each bar of L into an image sub-bar
[b, d') and a mixup sub-bar [d', d).

Degree 0 needs no matrix. The pivot of an edge column is the youngest
vertex of the component it merges into an older one (the elder rule), so
union-find over the edges in filtration order gives both pairings: over
all edges with vertices keyed by the image order for K, over the L-edges
alone for L. An edge with one boundary vertex joins a ground node older
than every vertex; an edge with none merges nothing.

Every degree k >= 1 reduces k-cell coboundaries instead of (k+1)-cell
boundaries. The pivot pairing of a matrix equals that of its
anti-transpose, because both are read off the ranks of the same lower-left
submatrices (de Silva, Morozov & Vejdemo-Johansson, "Dualities in
persistent (co)homology", 2011). So the columns are the k-cells in reverse
image order, a column's rows are its (k+1)-cell cofaces, and its pivot is
its earliest coface; each pair (k-cell, (k+1)-cell) is the one the
boundary matrix gives. Over L alone the same holds for the L-cells. Most
columns never need reducing:

- Clearing (Chen & Kerber, "Persistent homology computation with a
  twist", 2011). A k-cell whose boundary column does not reduce to zero
  under the image column order is never a pivot row of the (k+1)-boundary
  matrix under the image row order, so its column is dropped. For k = 1
  one union-find over all 1-cells in image order finds them: the edges
  that merge two components. For each j = 2..k a coboundary pass over the
  uncleared (j-1)-cells, with the j-cells as rows in image order, pairs
  exactly the j-cells to drop. They are its pivot rows, and the set of
  pivot rows of a matrix depends only on its row order, not on its column
  order; in the boundary matrix they are the j-columns that do not reduce
  to zero under the image order. The order must be the image order:
  clearing K by the filtration-order forest gives wrong triples.
- L needs no pass of its own. Image order lists the L-cells first, so
  whether an L-column reduces to zero depends on L-columns alone, and the
  uncleared L k-cells are the k-cycle creators of L.
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


def reduce_columns(pivots, build) -> tuple[dict[int, int], list[int]]:
    """Left-to-right reduction of columns given as (column id, first pivot)
    pairs in column order, the pivot -1 for a zero column.

    build(column id) returns the column as a Python-int bitset whose highest
    set bit is its first pivot; addition is `^`. A column whose pivot no
    earlier column owns is reduced as it stands and claims that pivot
    unbuilt (an emergent pair), so build runs only for a column that has to
    absorb an earlier one and for the owners it absorbs. Each column
    absorbs the owner of its pivot until the pivot is unclaimed or the
    column is zero. Returns the pairing (pivot row -> column id) and the ids
    of the columns that reduce to zero; the pairing does not depend on the
    order of valid additions.
    """
    owner: dict[int, int] = {}
    reduced: dict[int, int] = {}  # pivot row -> bitset of its owner, once built
    zeros: list[int] = []
    for cid, p in pivots:
        if p < 0:
            zeros.append(cid)
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
                zeros.append(cid)
                break
            p = col.bit_length() - 1
            if p not in owner:
                owner[p] = cid
                reduced[p] = col
                break
    return owner, zeros


def merge_edges(edges, key) -> tuple[dict[int, int], list[int]]:
    """Elder-rule union-find over 1-cells in filtration order.

    edges are (edge id, end, end) with 0 for a missing end, which stands for
    the ground node, older than every vertex; key[v] is the row key of
    vertex id v, at least 1, and key[0] = 0. Returns the pairing (vertex id
    -> id of the edge that merges the component whose oldest vertex it is
    into an older one) and the ids of the edges that merge nothing: exactly
    the pivots and the zero columns of the reduced edge columns.
    """
    parent: dict[int, int] = {}

    def find(v: int) -> int:
        while (up := parent.get(v, v)) != v:
            parent[v] = v = parent.get(up, up)
        return v

    deaths: dict[int, int] = {}
    cycles: list[int] = []
    for eid, u, w in edges:
        u, w = find(u), find(w)
        if u == w:
            cycles.append(eid)
            continue
        if key[u] > key[w]:
            u, w = w, u
        parent[w] = u
        deaths[w] = eid
    return deaths, cycles


def image_row_order(fp: FilteredPair) -> np.ndarray:
    """Row keys, indexed by cell id, that list all L-cells before all
    ambient-only cells; key 0 is left for the ground node.

    Relative order inside each group stays the filtration order. Under these
    keys a reduced ambient column kills the youngest ambient-only class
    whenever one is available, which is what makes the pairing against
    L-cycles the image pairing.
    """
    key = np.zeros(fp.n + 1, dtype=np.int64)
    key[1:][np.argsort(~fp.in_l, kind="stable")] = np.arange(1, fp.n + 1)
    return key


def _edges(fp: FilteredPair, ids: np.ndarray):
    """(id, end, end) of the 1-cells ids, 0 for a missing end."""
    faces, bounds = fp.faces_of(ids)
    padded = np.append(faces, [0, 0])
    count = np.diff(bounds)
    u = np.where(count >= 1, padded[bounds[:-1]], 0)
    w = np.where(count >= 2, padded[bounds[:-1] + 1], 0)
    return zip(ids.tolist(), u.tolist(), w.tolist())


def _reduce_csr(bits: np.ndarray, bounds: np.ndarray) -> tuple[dict[int, int], list[int]]:
    """reduce_columns over columns in CSR form: column i holds the rows
    bits[bounds[i]:bounds[i + 1]]. The first pivots (the highest rows) are
    taken with numpy; a column becomes a bitset only when it is built.
    Column ids are positions."""
    lo, hi = bounds[:-1], bounds[1:]
    first = np.full(len(lo), -1, dtype=np.int64)
    full = hi > lo
    if full.any():
        first[full] = np.maximum.reduceat(bits, lo[full])
    rows, lo, hi, top = bits.tolist(), lo.tolist(), hi.tolist(), first.tolist()

    def build(i: int) -> int:
        # one bytearray and one conversion, not a big int per row
        col = bytearray((top[i] >> 3) + 1)
        for r in rows[lo[i] : hi[i]]:
            col[r >> 3] |= 1 << (r & 7)
        return int.from_bytes(col, "little")

    return reduce_columns(enumerate(top), build)


def _coboundary_pairs(fp: FilteredPair, cols: np.ndarray, cofaces: np.ndarray) -> dict[int, int]:
    """Pairing of the coboundaries of the j-cells cols, in that column order,
    restricted to the (j+1)-cells cofaces, keyed by j-cell.

    Rows run backwards through cofaces, so a column's pivot is its earliest
    coface in the order given; the pair (j-cell, (j+1)-cell) is the one the
    reduced boundary matrix gives when its columns are cofaces in that order
    and its rows the j-cells in the reverse of cols.
    """
    place = np.full(fp.n + 1, -1, dtype=np.int64)
    place[cols] = np.arange(len(cols))
    entries, bounds = fp.faces_of(cofaces)
    col = place[entries]
    row = np.repeat(np.arange(len(cofaces) - 1, -1, -1), np.diff(bounds))
    keep = col >= 0
    col, row = col[keep], row[keep]
    order = np.argsort(col, kind="stable")
    starts = np.zeros(len(cols) + 1, dtype=np.int64)
    np.cumsum(np.bincount(col, minlength=len(cols)), out=starts[1:])
    pairs = _reduce_csr(row[order], starts)[0]
    cols, cofaces = cols.tolist(), cofaces.tolist()
    return {cols[i]: cofaces[-1 - p] for p, i in pairs.items()}


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
    column claims it. Degree 0 reads both pairings off union-find; every
    higher degree off coboundaries, cleared by a chain of passes that starts
    from union-find over the 1-cells (see the module docstring).
    """
    if not 0 <= k <= max(fp.max_dim, 0):
        raise InputError(f"degree {k} out of range for a complex of dimension {fp.max_dim}")
    key = image_row_order(fp)
    cofaces = np.flatnonzero(fp.dim == k + 1) + 1
    l_cofaces = cofaces[fp.in_l[cofaces - 1]]
    if k == 0:
        keys = key.tolist()
        deaths_k = merge_edges(_edges(fp, cofaces), keys)[0]
        deaths_l = merge_edges(_edges(fp, l_cofaces), keys)[0]
        born = np.flatnonzero((fp.dim == 0) & fp.in_l) + 1
    else:
        # the cells whose reduced boundary column is zero under the image
        # order; the others are never pivot rows one degree up, so cleared
        edges = np.flatnonzero(fp.dim == 1) + 1
        edges = edges[np.argsort(key[edges])]
        kept = np.array(merge_edges(_edges(fp, edges), key.tolist())[1], dtype=np.int64)
        for j in range(2, k + 1):
            cells = np.flatnonzero(fp.dim == j) + 1
            cells = cells[np.argsort(key[cells])]
            cleared = np.fromiter(_coboundary_pairs(fp, kept[::-1], cells).values(), dtype=np.int64)
            kept = cells[~np.isin(cells, cleared)]
        born = kept[fp.in_l[kept - 1]]
        deaths_k = _coboundary_pairs(fp, kept[::-1], cofaces)
        deaths_l = _coboundary_pairs(fp, born[::-1], l_cofaces)
    return [MixupTriple(c, deaths_k.get(c, INF), deaths_l.get(c, INF)) for c in born.tolist()]
