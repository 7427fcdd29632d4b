"""Boundary-matrix reduction over Z/2 and mixup-triple extraction.

The persistence pairing of the ambient complex K and of the subcomplex L
are read off the same matrix under one shared row order that lists the
L-cells first. Reducing the ambient matrix under that order pairs each
L-cycle with the earliest column of K that kills it (the image death, or
premature death); reducing the copy whose ambient-only entries are zeroed
pairs it with its death inside L. The two deaths bracket each bar of L
into an image sub-bar [b, d') and a mixup sub-bar [d', d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InputError
from .filtration import MEMBER_L, FilteredPair

INF = math.inf


@dataclass
class SparseBoundaryMatrix:
    """Column-sparse Z/2 matrix.

    columns: per original column id, the ascending list of row keys with a
             nonzero entry. The largest key is the pivot.
    """

    columns: dict[int, list[int]]

    def column_ids(self) -> list[int]:
        return sorted(self.columns)

    def pivot(self, col_id: int) -> int | None:
        col = self.columns[col_id]
        return col[-1] if col else None

    def pivot_pairs(self) -> dict[int, int]:
        """Map row key -> column id over the nonzero columns."""
        pairs: dict[int, int] = {}
        for cid in self.column_ids():
            p = self.pivot(cid)
            if p is not None:
                pairs[p] = cid
        return pairs

    @classmethod
    def from_filtration(
        cls, fp: FilteredPair, dims: tuple[int, ...], row_order: dict[int, int]
    ) -> "SparseBoundaryMatrix":
        # row_order maps cell ids to row keys; pivots compare these keys, so
        # reordering rows never moves column contents
        columns = {
            c.id: sorted(row_order[b] for b in c.boundary)
            for c in fp.cells
            if c.dim in dims
        }
        return cls(columns=columns)


def _xor_sorted(a: list[int], b: list[int]) -> list[int]:
    # symmetric difference of two ascending lists: addition mod 2
    out: list[int] = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        x, y = a[i], b[j]
        if x == y:
            i += 1
            j += 1
        elif x < y:
            out.append(x)
            i += 1
        else:
            out.append(y)
            j += 1
    if i < na:
        out.extend(a[i:])
    if j < nb:
        out.extend(b[j:])
    return out


def reduce(matrix: SparseBoundaryMatrix) -> SparseBoundaryMatrix:
    """Left-to-right column reduction.

    Each column repeatedly absorbs the earlier column owning its pivot until
    its pivot is unclaimed or it is zero. The resulting pivots are unique per
    row and form the persistence pairing; the pairing does not depend on the
    order in which valid additions are applied.
    """
    cols = {cid: list(col) for cid, col in matrix.columns.items()}
    owner: dict[int, int] = {}
    for cid in sorted(cols):
        col = cols[cid]
        while col:
            p = col[-1]
            prev = owner.get(p)
            if prev is None:
                owner[p] = cid
                break
            col = _xor_sorted(col, cols[prev])
        cols[cid] = col
    return SparseBoundaryMatrix(columns=cols)


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


@dataclass(frozen=True)
class IndexMixupTriple:
    """(b, d', d) in filtration indices: birth, premature death, death.

    d' and d are ids of the killing cells, or +inf for classes that never
    die (in K, respectively in L).
    """

    birth: int
    death_image: float
    death: float
    degree: int

    def __post_init__(self) -> None:
        if not self.birth <= self.death_image <= self.death:
            raise InputError(
                f"triple out of order: b={self.birth}, d'={self.death_image}, d={self.death}"
            )


@dataclass(frozen=True)
class ValueMixupTriple:
    """(b, d', d) in filtration values; infinities pass through unchanged."""

    birth: float
    death_image: float
    death: float
    degree: int

    def __post_init__(self) -> None:
        if not self.birth <= self.death_image <= self.death:
            raise InputError(
                f"triple out of order: b={self.birth}, d'={self.death_image}, d={self.death}"
            )

    @property
    def zero_persistence(self) -> bool:
        return self.death == self.birth


def _degree_matrices(fp: FilteredPair, k: int):
    """The ambient matrix for degree k and its L-only copy, plus the row order.

    Columns cover the k- and (k+1)-cells. The L copy zeroes every
    ambient-only column and drops ambient-only rows; since L is closed under
    faces the row drop never removes anything from an L-column.
    """
    order = image_row_order(fp)
    bk = SparseBoundaryMatrix.from_filtration(fp, (k, k + 1), order)
    n_l = fp.l_cell_count()
    l_columns = {}
    for cid, col in bk.columns.items():
        if fp.cells[cid - 1].member == MEMBER_L:
            l_columns[cid] = [key for key in col if key <= n_l]
        else:
            l_columns[cid] = []
    bl = SparseBoundaryMatrix(columns=l_columns)
    return bk, bl, order


def mixup_barcode_indices(fp: FilteredPair, k: int) -> list[IndexMixupTriple]:
    """Mixup triples of degree k, one per k-cycle creator of L.

    For each k-cell of L whose reduced L-column is zero (it creates a class
    of H_k(L)), d is the column paired with it in the L-matrix and d' the
    column paired with it in the ambient matrix; either is +inf when no
    column claims it.
    """
    if not 0 <= k <= max(fp.max_dim, 0):
        raise InputError(f"degree {k} out of range for a complex of dimension {fp.max_dim}")
    bk, bl, order = _degree_matrices(fp, k)
    rbk = reduce(bk)
    rbl = reduce(bl)
    deaths_l = rbl.pivot_pairs()
    deaths_k = rbk.pivot_pairs()
    triples: list[IndexMixupTriple] = []
    for c in fp.cells:
        if c.dim != k or c.member != MEMBER_L:
            continue
        if rbl.columns[c.id]:
            continue  # not a creator in L
        key = order[c.id]
        d = deaths_l.get(key, INF)
        d_img = deaths_k.get(key, INF)
        triples.append(
            IndexMixupTriple(birth=c.id, death_image=d_img, death=d, degree=k)
        )
    return triples


def to_value_barcode(
    triples: list[IndexMixupTriple], fp: FilteredPair
) -> list[ValueMixupTriple]:
    """Map index triples through the filtration values; +inf is preserved."""

    def val(idx: float) -> float:
        if idx == INF:
            return INF
        return fp.value(int(idx))

    return [
        ValueMixupTriple(
            birth=val(t.birth),
            death_image=val(t.death_image),
            death=val(t.death),
            degree=t.degree,
        )
        for t in triples
    ]
