"""Filtered cell pairs: a complex K filtered cell by cell, with a marked
subcomplex L that enters at the same indices.

Cells are general (a 1-cell may have an empty boundary, e.g. a standalone
circle), so explicit inputs are not restricted to simplicial complexes.
Ids are the filtration order: 1-based, contiguous, and every boundary id
precedes the cell that lists it.

A pair is stored as arrays in filtration order, cell id = position + 1:
`dim`, `value`, the L mask `in_l`, and the boundaries in CSR form, the
faces of cell i being `indices[indptr[i]:indptr[i + 1]]` (1-based ids,
ascending). Every constructor validates through `validate()`, one
vectorised check for Rips builds and explicit files alike; `cells` is a
per-cell view built on first access, for readers that want one object per
cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cloud import data_lines
from .errors import InputError

MEMBER_L = "L"
MEMBER_K = "K"  # in K but not in L


@dataclass(frozen=True)
class Cell:
    id: int
    dim: int
    value: float
    member: str
    boundary: tuple[int, ...]


def _frozen(a, dtype, what: str) -> np.ndarray:
    try:
        a = np.array(a, dtype=dtype)
    except OverflowError:
        raise InputError(f"a {what} is out of range") from None
    a.flags.writeable = False
    return a


class FilteredPair:
    """A cell-wise filtration of K with the subcomplex membership recorded.

    The constructor validates all structural invariants (see validate());
    the algorithms in this package assume they hold. `ids` are the ids an
    explicit input gave its cells, checked to be 1..n in order.
    """

    def __init__(self, dim, value, in_l, indptr, indices, ids=None):
        self.dim = _frozen(dim, np.int64, "cell dimension")
        self.value = _frozen(value, np.float64, "cell value")
        self.in_l = _frozen(in_l, bool, "membership")
        self.indptr = _frozen(indptr, np.int64, "boundary offset")
        self.indices = _frozen(indices, np.int64, "boundary id")
        self.validate(ids)

    @classmethod
    def from_cells(cls, cells) -> "FilteredPair":
        cells = list(cells)
        for c in cells:
            if c.member not in (MEMBER_L, MEMBER_K):
                raise InputError(f"cell {c.id}: member must be L or K, got {c.member!r}")
        return cls._from_rows(
            [c.id for c in cells],
            [c.dim for c in cells],
            [c.value for c in cells],
            [c.member == MEMBER_L for c in cells],
            [sorted(c.boundary) for c in cells],
        )

    @classmethod
    def _from_rows(cls, ids, dims, values, in_l, boundaries) -> "FilteredPair":
        indptr = np.cumsum([0] + [len(b) for b in boundaries])
        indices = [fid for b in boundaries for fid in b]
        return cls(dims, values, in_l, indptr, indices, ids=ids)

    def __eq__(self, other) -> bool:
        return isinstance(other, FilteredPair) and all(
            np.array_equal(getattr(self, f), getattr(other, f))
            for f in ("dim", "value", "in_l", "indptr", "indices")
        )

    def __repr__(self) -> str:
        return f"FilteredPair(n={self.n}, max_dim={self.max_dim})"

    @property
    def n(self) -> int:
        return len(self.dim)

    @property
    def max_dim(self) -> int:
        return int(self.dim.max()) if self.n else -1

    @cached_property
    def cells(self) -> tuple[Cell, ...]:
        ptr = self.indptr.tolist()
        faces = self.indices.tolist()
        return tuple(
            Cell(i + 1, d, v, MEMBER_L if l else MEMBER_K, tuple(faces[ptr[i] : ptr[i + 1]]))
            for i, (d, v, l) in enumerate(
                zip(self.dim.tolist(), self.value.tolist(), self.in_l.tolist())
            )
        )

    def l_cell_count(self) -> int:
        return int(self.in_l.sum())

    def faces_of(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The boundaries of the cells ids, concatenated, and the offsets
        of each cell's run in them."""
        start = self.indptr[ids - 1]
        count = self.indptr[ids] - start
        bounds = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(count, out=bounds[1:])
        return self.indices[np.repeat(start - bounds[:-1], count) + np.arange(bounds[-1])], bounds

    def validate(self, ids=None) -> None:
        """Raise InputError naming the first cell that breaks a rule.

        Rules: ids 1..n in order, dim >= 0, values finite and never
        decreasing, face ids distinct, in range and earlier, of dim - 1 and,
        for an L-cell, in L; a 1-cell has at most two faces, and the
        boundary of the boundary of a cell is zero over Z/2. All cells are
        checked at once; the message comes from the per-cell rules applied
        to the first offending cell.
        """
        n = self.n
        if len(self.value) != n or len(self.in_l) != n or len(self.indptr) != n + 1:
            raise InputError("filtration arrays differ in length")
        count = np.diff(self.indptr)
        if self.indptr[0] != 0 or (count < 0).any() or self.indptr[-1] != len(self.indices):
            raise InputError("boundary offsets do not describe the boundary ids")
        dim, idx = self.dim, self.indices
        bad = (dim < 0) | ~np.isfinite(self.value)
        if ids is not None:
            bad |= np.asarray(ids) != np.arange(1, n + 1)
        bad[1:] |= self.value[1:] < self.value[:-1]
        bad |= (dim == 1) & (count > 2)
        owner = np.repeat(np.arange(n), count)
        in_range = (idx >= 1) & (idx <= owner)  # id = position + 1
        bad[owner[~in_range]] = True
        owner, faces = owner[in_range], idx[in_range] - 1
        bad[owner[dim[faces] != dim[owner] - 1]] = True
        bad[owner[self.in_l[owner] & ~self.in_l[faces]]] = True
        # a face repeated in a row: a row stored strictly ascending, as every
        # parser and the Rips build store them, has none; otherwise repeats
        # are equal neighbours among the sorted (owner, face) keys
        same_row = owner[1:] == owner[:-1]
        if (same_row & (faces[1:] <= faces[:-1])).any():
            key = np.sort(owner * (n + 1) + faces)
            bad[key[1:][key[1:] == key[:-1]] // (n + 1)] = True
        # boundary of the boundary: each face-of-face id an even number of times
        up = dim[owner] >= 2
        owner, faces = owner[up], faces[up]
        ff, bounds = self.faces_of(faces + 1)
        fcount = np.diff(bounds)
        # a face with an id out of range is an earlier offending cell itself
        kept = (ff >= 1) & (ff <= np.repeat(faces, fcount))
        key = np.sort(np.repeat(owner, fcount)[kept] * (n + 1) + ff[kept])
        # sorted keys pair off with their right neighbours while each occurs an
        # even number of times: the first that does not, or a last key left
        # over, is the least key that occurs an odd number of times
        odd = np.append(key[:-1:2] != key[1::2], len(key) % 2 == 1)
        if odd.any():
            bad[key[2 * odd.argmax()] // (n + 1)] = True
        first = np.flatnonzero(bad)
        if first.size:
            raise InputError(self._cell_error(int(first[0]), ids))

    def _cell_error(self, i: int, ids) -> str:
        """The message for cell position i, by the per-cell rules in order."""
        cid = i + 1
        if ids is not None and ids[i] != cid:
            return f"cell ids must be 1..n in order; position {cid} has id {ids[i]}"
        dim = int(self.dim[i])
        if dim < 0:
            return f"cell {cid}: negative dimension"
        if not np.isfinite(self.value[i]):
            return f"cell {cid}: value {float(self.value[i])} is not finite"
        if i > 0 and self.value[i] < self.value[i - 1]:
            return f"cell {cid}: value {float(self.value[i])} below value of cell {cid - 1}"
        boundary = self.indices[self.indptr[i] : self.indptr[i + 1]].tolist()
        seen: set[int] = set()
        for fid in boundary:
            if fid in seen:
                return f"cell {cid}: duplicate boundary id {fid}"
            seen.add(fid)
            if not 1 <= fid < cid:
                return f"cell {cid}: boundary id {fid} must name an earlier cell"
            face_dim = int(self.dim[fid - 1])
            if face_dim != dim - 1:
                return f"cell {cid} (dim {dim}): boundary cell {fid} has dim {face_dim}"
            if self.in_l[i] and not self.in_l[fid - 1]:
                return f"cell {cid} is in L but its face {fid} is not: L is not a subcomplex"
        if dim == 1 and len(boundary) > 2:
            return f"cell {cid}: a 1-cell has at most two boundary vertices"
        odd: set[int] = set()
        for fid in boundary:
            odd.symmetric_difference_update(
                self.indices[self.indptr[fid - 1] : self.indptr[fid]].tolist()
            )
        if dim >= 2 and odd:
            return (
                f"cell {cid}: the boundary of its boundary is not zero over Z/2 "
                f"(cells {sorted(odd)} appear an odd number of times)"
            )
        raise AssertionError(f"cell {cid} was flagged but breaks no rule")


def parse_explicit_pair(text: str) -> FilteredPair:
    """Parse an explicit filtration file.

    One cell per line: `id dim value member boundary_id...` where member is
    L (in the subcomplex) or K (ambient only). `#` starts a comment and
    empty lines are skipped. Empty input gives the empty pair.
    """
    rows: list[tuple[int, int, float, bool, list[int]]] = []
    seen: set[int] = set()
    for lineno, line in data_lines(text):
        parts = line.split()
        if len(parts) < 4:
            raise InputError(f"line {lineno}: expected `id dim value member [boundary...]`")
        try:
            cid = int(parts[0])
            dim = int(parts[1])
            value = float(parts[2])
        except ValueError:
            raise InputError(f"line {lineno}: id and dim must be integers, value a number") from None
        member = parts[3]
        if member not in (MEMBER_L, MEMBER_K):
            raise InputError(f"line {lineno}: member must be L or K, got {member!r}")
        try:
            boundary = sorted(int(p) for p in parts[4:])
        except ValueError:
            raise InputError(f"line {lineno}: boundary ids must be integers") from None
        if cid in seen:
            raise InputError(f"line {lineno}: duplicate cell id {cid}")
        seen.add(cid)
        rows.append((cid, dim, value, member == MEMBER_L, boundary))
    rows.sort(key=lambda r: r[0])
    return FilteredPair._from_rows(*(zip(*rows) if rows else ((),) * 5))
