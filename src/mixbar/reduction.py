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

Creators and cofaces are selected from the arrays of the pair by masks on
`dim` and `in_l`, and the image row keys are computed once per degree with
numpy; the union-find and the column reduction then run over plain int
lists built from the CSR boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .filtration import FilteredPair

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


def _rows(fp: FilteredPair, dim: int, key: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Ids of the dim-cells in image order, and each id's place in it."""
    ids = np.flatnonzero(fp.dim == dim) + 1
    ids = ids[np.argsort(key[ids])]
    row = np.zeros(fp.n + 1, dtype=np.int64)
    row[ids] = np.arange(len(ids))
    return ids.tolist(), row


def _bitset_pairs(fp: FilteredPair, ids: np.ndarray, rows) -> tuple[dict[int, int], list[int]]:
    """reduce_columns over the boundaries of the cells ids, with rows as
    given by _rows; the pairing is keyed by face id."""
    faces, row = rows
    entries, bounds = fp.faces_of(ids)
    bits, bounds = row[entries].tolist(), bounds.tolist()
    bit = (1).__lshift__
    pairs, zeros = reduce_columns(
        (cid, sum(map(bit, bits[lo:hi])))
        for cid, lo, hi in zip(ids.tolist(), bounds, bounds[1:])
    )
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
    key = image_row_order(fp)
    creators = np.flatnonzero((fp.dim == k) & fp.in_l) + 1
    cofaces = np.flatnonzero(fp.dim == k + 1) + 1
    l_cofaces = cofaces[fp.in_l[cofaces - 1]]
    if k == 0:
        keys = key.tolist()
        deaths_k = merge_edges(_edges(fp, cofaces), keys)[0]
        deaths_l = merge_edges(_edges(fp, l_cofaces), keys)[0]
        born = creators.tolist()
    else:
        rows = _rows(fp, k, key)
        deaths_k = _bitset_pairs(fp, cofaces, rows)[0]
        deaths_l = _bitset_pairs(fp, l_cofaces, rows)[0]
        if k == 1:
            born = merge_edges(_edges(fp, creators), key.tolist())[1]
        else:
            born = _bitset_pairs(fp, creators, _rows(fp, k - 1, key))[1]
    return [MixupTriple(c, deaths_k.get(c, INF), deaths_l.get(c, INF)) for c in born]
