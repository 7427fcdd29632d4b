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
alone for L. The L-edges that merge nothing are the 1-cycle creators of L.
An edge with one boundary vertex joins a ground node older than every
vertex; an edge with none merges nothing. Columns of dimension 2 and up are
Python ints over rows numbered densely within the face dimension: addition
is `^` and the pivot is the highest set bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InputError
from .filtration import MEMBER_L, Cell, FilteredPair

INF = math.inf


def reduce_columns(columns) -> tuple[dict[int, int], list[int]]:
    """Left-to-right reduction of (column id, bitset) pairs in column order.

    Each column repeatedly absorbs the earlier reduced column owning its
    pivot until its pivot is unclaimed or it is zero. Returns the pairing
    (pivot row -> column id) and the ids of the columns that reduce to
    zero; the pairing does not depend on the order of valid additions.
    """
    owner: dict[int, int] = {}
    pairs: dict[int, int] = {}
    zeros: list[int] = []
    for cid, col in columns:
        while col:
            p = col.bit_length() - 1
            prev = owner.get(p)
            if prev is None:
                owner[p] = col
                pairs[p] = cid
                break
            col ^= prev
        else:
            zeros.append(cid)
    return pairs, zeros


def merge_edges(edges, key) -> tuple[dict[int, int], list[int]]:
    """Elder-rule union-find over 1-cells in filtration order.

    key maps vertex ids to row keys of at least 1; id 0 stands for the
    ground node, older than every vertex. Returns the pairing (vertex id ->
    id of the edge that merges the component whose oldest vertex it is into
    an older one) and the ids of the edges that merge nothing: exactly the
    pivots and the zero columns of the reduced edge columns.
    """
    parent: dict[int, int] = {}

    def find(v: int) -> int:
        while (up := parent.get(v, v)) != v:
            parent[v] = v = parent.get(up, up)
        return v

    deaths: dict[int, int] = {}
    cycles: list[int] = []
    for e in edges:
        u, w = (find(v) for v in (*e.boundary, 0, 0)[:2])  # missing ends: the ground
        if u == w:
            cycles.append(e.id)
            continue
        if key.get(u, 0) > key.get(w, 0):
            u, w = w, u
        parent[w] = u
        deaths[w] = e.id
    return deaths, cycles


def image_row_order(fp: FilteredPair) -> dict[int, int]:
    """Row keys that list all L-cells before all ambient-only cells.

    Relative order inside each group stays the filtration order. Under these
    keys a reduced ambient column kills the youngest ambient-only class
    whenever one is available, which is what makes the pairing against
    L-cycles the image pairing.
    """
    order: dict[int, int] = {}
    rank = 0
    for c in fp.cells:
        if c.member == MEMBER_L:
            rank += 1
            order[c.id] = rank
    for c in fp.cells:
        if c.member != MEMBER_L:
            rank += 1
            order[c.id] = rank
    return order


def _image_ordered(fp: FilteredPair, dim: int, order: dict[int, int]) -> list[int]:
    """Ids of the dim-cells in image order: their dense row numbers."""
    return sorted((c.id for c in fp.cells if c.dim == dim), key=order.__getitem__)


def _bitset_pairs(cells: list[Cell], faces: list[int]) -> tuple[dict[int, int], list[int]]:
    """reduce_columns over the boundaries of cells, with rows the faces
    listed in row order; the pairing is keyed by face id."""
    row = {cid: i for i, cid in enumerate(faces)}
    pairs, zeros = reduce_columns((c.id, sum(1 << row[b] for b in c.boundary)) for c in cells)
    return {faces[p]: cid for p, cid in pairs.items()}, zeros


@dataclass(frozen=True)
class MixupTriple:
    """(b, d', d): birth, image (premature) death, death, with b <= d' <= d.

    In filtration indices the entries are cell ids, in filtration values
    they are the values of those cells; a death is +inf for a class that
    never dies (in K, respectively in L).
    """

    birth: float
    death_image: float
    death: float

    def __post_init__(self) -> None:
        if not self.birth <= self.death_image <= self.death:
            raise InputError(
                f"triple out of order: b={self.birth}, d'={self.death_image}, d={self.death}"
            )

    @property
    def zero_persistence(self) -> bool:
        return self.death == self.birth


def mixup_barcode_indices(fp: FilteredPair, k: int) -> list[MixupTriple]:
    """Mixup triples of degree k, one per k-cycle creator of L.

    For each k-cell of L whose reduced L-column is zero (it creates a class
    of H_k(L)), d is the column paired with it in the L-matrix and d' the
    column paired with it in the ambient matrix; either is +inf when no
    column claims it.
    """
    if not 0 <= k <= max(fp.max_dim, 0):
        raise InputError(f"degree {k} out of range for a complex of dimension {fp.max_dim}")
    order = image_row_order(fp)
    creators = [c for c in fp.cells if c.dim == k and c.member == MEMBER_L]
    cofaces = [c for c in fp.cells if c.dim == k + 1]
    l_cofaces = [c for c in cofaces if c.member == MEMBER_L]
    if k == 0:
        deaths_k = merge_edges(cofaces, order)[0]
        deaths_l = merge_edges(l_cofaces, order)[0]
    else:
        faces = _image_ordered(fp, k, order)
        deaths_k = _bitset_pairs(cofaces, faces)[0]
        deaths_l = _bitset_pairs(l_cofaces, faces)[0]
        if k == 1:
            cycles = set(merge_edges(creators, order)[1])
        else:
            cycles = set(_bitset_pairs(creators, _image_ordered(fp, k - 1, order))[1])
        creators = [c for c in creators if c.id in cycles]
    return [MixupTriple(c.id, deaths_k.get(c.id, INF), deaths_l.get(c.id, INF)) for c in creators]

