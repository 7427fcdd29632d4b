"""Filtered cell pairs: a complex K filtered cell by cell, with a marked
subcomplex L that enters at the same indices.

Cells are general (a 1-cell may have an empty boundary, e.g. a standalone
circle), so explicit inputs are not restricted to simplicial complexes.
Ids are the filtration order: 1-based, contiguous, and every boundary id
precedes the cell that lists it.

A pair is stored as arrays in filtration order, cell id = position + 1:
`dim`, `value`, the L mask `in_l`, and the boundaries in CSR form, the
faces of cell i being `indices[indptr[i]:indptr[i + 1]]` (1-based ids,
ascending). Every pair is built from these arrays: the constructor
validates them through `validate()`, one vectorised check of every rule.
Two routes hand their own arrays over through the private `_built`,
uncopied: `parse_explicit_pair`, which then calls `validate()` with the
ids the file gave, and a Rips build, unchecked, because it meets the
rules by construction; the tests run `validate()` on random builds
instead. `cells` is a per-cell view of `dim` and `in_l`, built at each
access; only the benchmark tracer reads it.

An explicit file is read as bytes by `mixbar.explicit`, which
`parse_explicit_pair` imports on its first call, so only the commands that
read such a file compile it. It reads runs of whole lines of at most
`cloud.BLOCK_BYTES` / 32 characters (a longer line is a run of its own), so
the work arrays of a run stay within BLOCK_BYTES, and makes no Python object
per line or per token: the bytes of a run are classified by lookup tables
(field, blank, line break, `#`), its tokens are the edges of the field
mask and their lines a search over the breaks. Ids, dims and boundary ids
of at most 18 ASCII digits are read from their digits, values of digits,
signs, `.` and `e` by one cast of a fixed-width bytes array to float64,
which gives float()'s bits, and members from their one byte; any other
token (a signed integer, `_`, `inf`, a long or a non-ASCII token) goes to
Python's own int() or float(). So an ASCII file reads as if split into lines by
str.splitlines() and into fields by str.split(). The first line that
cannot be read stops the reading, and its message follows the rules of
one line at a time, unless an earlier line repeats an id. The faces of
each run are sorted by one lexsort when some row lists them out of order,
and the rows by one stable argsort of the ids when these are not
ascending.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cloud
from .errors import InputError

MEMBER_L = "L"
MEMBER_K = "K"  # in K but not in L


@dataclass(frozen=True)
class Cell:
    dim: int
    member: str  # MEMBER_L or MEMBER_K


def _frozen(a, dtype, what: str) -> np.ndarray:
    try:
        a = np.array(a, dtype=dtype)
    except OverflowError:
        raise InputError(f"a {what} is out of range") from None
    a.flags.writeable = False
    return a


class FilteredPair:
    """A cell-wise filtration of K with the subcomplex membership recorded.

    The constructor takes the arrays and validates all structural
    invariants (see validate()); the algorithms in this package assume they
    hold and read only the arrays. Only a Rips build, which meets them by
    construction, skips the check (see _built). `ids` are the ids an
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
    def _built(cls, dim, value, in_l, indptr, indices) -> "FilteredPair":
        """The pair of arrays that mixbar.rips or parse_explicit_pair
        assembled, kept as they are: neither copied nor validated. A Rips
        build meets every rule of validate() by construction, and the tests
        check that it does; the parser calls validate() itself. No other
        input may come through here."""
        fp = cls.__new__(cls)
        fp.dim, fp.value, fp.in_l, fp.indptr, fp.indices = dim, value, in_l, indptr, indices
        for a in (dim, value, in_l, indptr, indices):
            a.flags.writeable = False
        return fp

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

    @property
    def cells(self) -> tuple[Cell, ...]:
        """One Cell(dim, member) per cell in filtration order, built at each
        access. Only the benchmark tracer reads it; mixbar and its tests
        read the arrays."""
        return tuple(
            Cell(d, MEMBER_L if l else MEMBER_K) for d, l in zip(self.dim.tolist(), self.in_l.tolist())
        )

    def faces_of(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The boundaries of the cells ids, concatenated, and the offsets
        of each cell's run in them."""
        start = self.indptr[ids - 1]
        count = self.indptr[ids] - start
        bounds = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(count, out=bounds[1:])
        return self.indices[np.repeat(start - bounds[:-1], count) + np.arange(bounds[-1])], bounds

    def _face_rules(self, owner: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """One row of flags per face rule, in validate()'s order, over the
        boundary entries face id idx of the cell at position owner, grouped
        by owner with each row in its stored order."""
        ok = (idx >= 1) & (idx <= owner)  # id = position + 1
        face = np.where(ok, idx - 1, 0)
        repeat = np.zeros(len(idx), dtype=bool)
        # a strictly ascending row, as parsers and Rips builds store them, has
        # no repeat; else a stable sort of in-range keys flags each later copy
        if ((owner[1:] == owner[:-1]) & (idx[1:] <= idx[:-1])).any():
            at = np.flatnonzero(ok)
            key = owner[at] * self.n + face[at]
            order = np.argsort(key, kind="stable")
            repeat[at[order[1:][key[order[1:]] == key[order[:-1]]]]] = True
        wrong_dim = ok & (self.dim[face] != self.dim[owner] - 1)
        return np.stack([repeat, ~ok, wrong_dim, ok & self.in_l[owner] & ~self.in_l[face]])

    def validate(self, ids=None) -> None:
        """Raise InputError naming the first cell that breaks a rule.

        Rules, in order: ids 1..n in order, dim >= 0, values finite and
        never decreasing, face ids distinct, in range and earlier, of
        dim - 1 and, for an L-cell, in L; a 1-cell has at most two faces,
        and the boundary of the boundary of a cell is zero over Z/2. Each
        rule is one mask over all cells; the message names the first rule
        the earliest offending cell breaks, and for a face rule, its face.
        """
        n = self.n
        if len(self.value) != n or len(self.in_l) != n or len(self.indptr) != n + 1:
            raise InputError("filtration arrays differ in length")
        count = np.diff(self.indptr)
        if self.indptr[0] != 0 or (count < 0).any() or self.indptr[-1] != len(self.indices):
            raise InputError("boundary offsets do not describe the boundary ids")
        dim, value, idx = self.dim, self.value, self.indices
        misnumbered = np.zeros(n, dtype=bool) if ids is None else np.asarray(ids) != np.arange(1, n + 1)
        negative = dim < 0
        infinite = ~np.isfinite(value)
        falling = np.append(False, value[1:] < value[:-1])
        wide_edge = (dim == 1) & (count > 2)
        bad_face, open_cycle, key = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool), None
        # the face rules, one part of whole rows of about BLOCK_BYTES / 32
        # boundary entries at a time, so that their work arrays stay small
        at = np.arange(0, len(idx), max(1, cloud.BLOCK_BYTES // 32))
        cuts = np.searchsorted(self.indptr, at).tolist() + [n]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            owner = np.repeat(np.arange(lo, hi), count[lo:hi])
            row = idx[self.indptr[lo] : self.indptr[hi]]
            rules = self._face_rules(owner, row)
            bad_face[owner[rules.any(axis=0)]] = True
            if key is not None:
                continue
            # boundary of the boundary: each face-of-face id an even number of times
            up = ~rules[1] & (dim[owner] >= 2)
            del rules  # before the faces of faces, where the peak is
            owner, faces = owner[up], row[up]
            ff, bounds = self.faces_of(faces)
            fcount = np.diff(bounds)
            # a face with an id out of range is an earlier offending cell itself
            kept = (ff >= 1) & (ff < np.repeat(faces, fcount))
            part = np.sort(np.repeat(owner, fcount)[kept] * (n + 1) + ff[kept])
            # sorted keys pair off with their right neighbours while each occurs an
            # even number of times: the first that does not, or a last key left
            # over, is the least key that occurs an odd number of times
            odd = np.append(part[:-1:2] != part[1::2], len(part) % 2 == 1)
            if odd.any():
                key = part
                open_cycle[key[2 * odd.argmax()] // (n + 1)] = True
        bad = misnumbered | negative | infinite | falling | bad_face | wide_edge | open_cycle
        if not bad.any():
            return
        i = int(bad.argmax())
        cid = i + 1
        if misnumbered[i]:
            raise InputError(f"cell ids must be 1..n in order; position {cid} has id {ids[i]}")
        if negative[i]:
            raise InputError(f"cell {cid}: negative dimension")
        if infinite[i]:
            raise InputError(f"cell {cid}: value {float(value[i])} is not finite")
        if falling[i]:
            raise InputError(f"cell {cid}: value {float(value[i])} below value of cell {cid - 1}")
        if bad_face[i]:
            row = idx[self.indptr[i] : self.indptr[i + 1]]
            # the first flagged face in the row, and the first rule it breaks
            j, rule = np.argwhere(self._face_rules(np.full(len(row), i), row).T)[0]
            fid = int(row[j])
            if rule == 0:
                raise InputError(f"cell {cid}: duplicate boundary id {fid}")
            if rule == 1:
                raise InputError(f"cell {cid}: boundary id {fid} must name an earlier cell")
            if rule == 2:
                raise InputError(f"cell {cid} (dim {dim[i]}): boundary cell {fid} has dim {dim[fid - 1]}")
            raise InputError(f"cell {cid} is in L but its face {fid} is not: L is not a subcomplex")
        if wide_edge[i]:
            raise InputError(f"cell {cid}: a 1-cell has at most two boundary vertices")
        ff, times = np.unique(key[key // (n + 1) == i] % (n + 1), return_counts=True)
        raise InputError(
            f"cell {cid}: the boundary of its boundary is not zero over Z/2 "
            f"(cells {ff[times % 2 == 1].tolist()} appear an odd number of times)"
        )


def parse_explicit_pair(text: str) -> FilteredPair:
    """Parse an explicit filtration file.

    One cell per line: `id dim value member boundary_id...` where member is
    L (in the subcomplex) or K (ambient only). `#` starts a comment and
    empty lines are skipped. Empty input gives the empty pair.
    """
    from .explicit import read_pair  # compiled only by the commands that read a file

    return read_pair(text)
