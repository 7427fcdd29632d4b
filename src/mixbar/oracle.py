"""Brute-force rank-function oracle, independent of the column-reduction path.

For prefixes i <= j of the filtration, r(i, j) is the dimension of the
degree-k persistent homology from index i to index j:

    standard_L: cycles of L_i modulo boundaries of L_j
    standard_K: cycles of K_i modulo boundaries of K_j
    image:      cycles of L_i modulo boundaries of K_j

computed as rank(Z_i | B_j) - rank(B_j) by Gaussian elimination over Z/2.
Cycle spaces are nested, so one elimination produces a basis adapted to
every prefix at once (each basis cycle is tagged with the index where it
appears); boundaries are then inserted left to right into an echelon form
expressed in those adapted coordinates, and the whole grid is filled in a
single sweep. Columns are int bitsets, where the fast path stores sorted
arrays of rows, so the two routes differ in representation as well as in
algorithm (rank grids here, union-find and column reduction there).

Barcodes follow from second differences of the grid; negative
multiplicities mean a corrupted rank function and raise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .filtration import FilteredPair

MODES = ("standard_L", "standard_K", "image")
SIZE_GUARD = 2000


@dataclass
class RankFunction:
    degree: int
    n: int
    grid: np.ndarray  # (n+1, n+1), entry [i, j] valid for 1 <= i <= j <= n

    def r(self, i: int, j: int) -> int:
        if not 1 <= i <= j <= self.n:
            raise InputError(f"rank undefined for (i, j) = ({i}, {j}), need 1 <= i <= j <= {self.n}")
        return int(self.grid[i, j])


def _bits(ids) -> int:
    """The bitset of distinct ids."""
    return sum(1 << i for i in ids)


def _cycle_flag(cells) -> tuple[list[int], list[int]]:
    """Nested cycle basis for k-cells in filtration order, given as
    (id, boundary ids) pairs.

    Returns (tops, masks): masks are bitsets over cell ids describing the
    cycles, each appearing the moment its top cell (the highest set bit)
    enters. The span of the masks with top <= i is exactly the cycle space
    of the length-i prefix.
    """
    echelon: dict[int, tuple[int, int]] = {}
    tops: list[int] = []
    masks: list[int] = []
    for cid, boundary in cells:
        face = _bits(boundary)
        comb = 1 << cid
        while face:
            p = face.bit_length() - 1
            entry = echelon.get(p)
            if entry is None:
                break
            face ^= entry[0]
            comb ^= entry[1]
        if face == 0:
            tops.append(cid)
            masks.append(comb)
        else:
            echelon[face.bit_length() - 1] = (face, comb)
    return tops, masks


def rank_function(fp: FilteredPair, k: int, mode: str) -> RankFunction:
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}, expected one of {MODES}")
    if k < 0:
        raise InputError(f"degree must be non-negative, got {k}")
    if fp.n > SIZE_GUARD:
        raise InputError(
            f"rank_function is a brute-force oracle, refusing {fp.n} cells (limit {SIZE_GUARD})"
        )
    n = fp.n
    ptr, faces = fp.indptr.tolist(), fp.indices.tolist()

    def cells(dim: int, l_only: bool) -> list[tuple[int, list[int]]]:
        """(id, boundary ids) of the dim-cells, of L only if l_only."""
        keep = (fp.dim == dim) & (fp.in_l | (not l_only))
        return [(i + 1, faces[ptr[i] : ptr[i + 1]]) for i in np.flatnonzero(keep).tolist()]

    tops, masks = _cycle_flag(cells(k, mode in ("standard_L", "image")))
    z_dim = len(tops)

    # z_count[i] = dim of the cycle space of the length-i prefix
    z_count = np.zeros(n + 1, dtype=np.int64)
    for q in tops:
        z_count[q:] += 1

    b_of = {cid: _bits(boundary) for cid, boundary in cells(k + 1, mode == "standard_L")}

    # Express a chain in coordinates adapted to the cycle flag: bit m is the
    # coefficient of cycle m, bits above z_dim are leftover cell coordinates.
    def adapted(vec: int) -> int:
        coeff = 0
        for m in range(z_dim - 1, -1, -1):
            if (vec >> tops[m]) & 1:
                vec ^= masks[m]
                coeff |= 1 << m
        return (vec << z_dim) | coeff

    grid = np.zeros((n + 1, n + 1), dtype=np.int32)
    # hit_count[i] = number of echelon boundary vectors lying inside the
    # cycle space of prefix i; rank(Z_i | B_j) - rank(B_j) drops by one for
    # each of them
    hit_count = np.zeros(n + 1, dtype=np.int64)
    echelon: dict[int, int] = {}
    pure_limit = 1 << z_dim
    for j in range(1, n + 1):
        face = b_of.get(j)
        if face is not None:
            vec = adapted(face)
            while vec:
                p = vec.bit_length() - 1
                entry = echelon.get(p)
                if entry is None:
                    break
                vec ^= entry
            if vec:
                echelon[vec.bit_length() - 1] = vec
                if vec < pure_limit:
                    # a boundary combination equal to a cycle of the flag;
                    # it enters the intersection at its top's prefix
                    m = vec.bit_length() - 1
                    hit_count[tops[m]:] += 1
        grid[1 : j + 1, j] = (z_count - hit_count)[1 : j + 1]
    return RankFunction(degree=k, n=n, grid=grid)


def barcode_from_ranks(rf: RankFunction) -> list[tuple[int, float]]:
    """Interval multiset of the persistence module behind a rank function.

    Bars are (birth index, death index) with math.inf for classes that
    survive to the end. Multiplicities come from second differences of r;
    a negative multiplicity raises.
    """
    n = rf.n
    if n == 0:
        return []
    r = rf.grid.astype(np.int64)
    # finite bars [b, d), 1 <= b < d <= n:
    # m = r(b, d-1) - r(b, d) - r(b-1, d-1) + r(b-1, d)
    m = r[1:, : n] - r[1:, 1:] - r[: n, : n] + r[: n, 1:]
    valid = np.triu(np.ones((n, n), dtype=bool), k=1)  # entry (b-1, d-1), d > b
    m = np.where(valid, m, 0)
    if (m < 0).any():
        raise InputError("corrupted rank function: negative interval multiplicity")
    bars: list[tuple[int, float]] = []
    for b_idx, d_idx in np.argwhere(m > 0):
        b, d = int(b_idx) + 1, int(d_idx) + 1
        bars.extend([(b, float(d))] * int(m[b_idx, d_idx]))
    essential = r[1:, n] - r[: n, n]
    if (essential < 0).any():
        raise InputError("corrupted rank function: negative essential multiplicity")
    for b_idx in np.flatnonzero(essential):
        bars.extend([(int(b_idx) + 1, math.inf)] * int(essential[b_idx]))
    bars.sort()
    return bars
