"""Filtered cell pairs: a complex K filtered cell by cell, with a marked
subcomplex L that enters at the same indices.

Cells are general (a 1-cell may have an empty boundary, e.g. a standalone
circle), so explicit inputs are not restricted to simplicial complexes.
Ids are the filtration order: 1-based, contiguous, and every boundary id
precedes the cell that lists it.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    vertices: tuple[int, ...] | None = None
    label: int | None = None


class FilteredPair:
    """A cell-wise filtration of K with the subcomplex membership recorded.

    Construct through from_cells(), which validates all structural
    invariants; the algorithms in this package assume they hold.
    """

    def __init__(self, cells: tuple[Cell, ...]):
        self.cells = cells

    def __eq__(self, other) -> bool:
        return isinstance(other, FilteredPair) and self.cells == other.cells

    def __repr__(self) -> str:
        return f"FilteredPair(n={self.n}, max_dim={self.max_dim})"

    @classmethod
    def from_cells(cls, cells) -> "FilteredPair":
        pair = cls(tuple(cells))
        pair.validate()
        return pair

    @property
    def n(self) -> int:
        return len(self.cells)

    @property
    def max_dim(self) -> int:
        return max((c.dim for c in self.cells), default=-1)

    def cell(self, cid: int) -> Cell:
        if not 1 <= cid <= self.n:
            raise InputError(f"cell id {cid} out of range 1..{self.n}")
        return self.cells[cid - 1]

    def value(self, cid: int) -> float:
        return self.cell(cid).value

    def l_cell_count(self) -> int:
        return sum(1 for c in self.cells if c.member == MEMBER_L)

    def validate(self) -> None:
        for pos, c in enumerate(self.cells, start=1):
            if c.id != pos:
                raise InputError(
                    f"cell ids must be 1..n in order; position {pos} has id {c.id}"
                )
            if c.dim < 0:
                raise InputError(f"cell {c.id}: negative dimension")
            if c.member not in (MEMBER_L, MEMBER_K):
                raise InputError(f"cell {c.id}: member must be L or K, got {c.member!r}")
            if pos > 1 and c.value < self.cells[pos - 2].value:
                raise InputError(
                    f"cell {c.id}: value {c.value} below value of cell {c.id - 1}"
                )
            seen = set()
            for fid in c.boundary:
                if fid in seen:
                    raise InputError(f"cell {c.id}: duplicate boundary id {fid}")
                seen.add(fid)
                if not 1 <= fid < c.id:
                    raise InputError(
                        f"cell {c.id}: boundary id {fid} must name an earlier cell"
                    )
                face = self.cells[fid - 1]
                if face.dim != c.dim - 1:
                    raise InputError(
                        f"cell {c.id} (dim {c.dim}): boundary cell {fid} has dim {face.dim}"
                    )
                if c.member == MEMBER_L and face.member != MEMBER_L:
                    raise InputError(
                        f"cell {c.id} is in L but its face {fid} is not: L is not a subcomplex"
                    )
            if c.dim == 1 and len(c.boundary) > 2:
                raise InputError(f"cell {c.id}: a 1-cell has at most two boundary vertices")
            if c.dim >= 2:
                odd: set[int] = set()
                for fid in c.boundary:
                    odd.symmetric_difference_update(self.cells[fid - 1].boundary)
                if odd:
                    raise InputError(
                        f"cell {c.id}: the boundary of its boundary is not zero over Z/2 "
                        f"(cells {sorted(odd)} appear an odd number of times)"
                    )


def parse_explicit_pair(text: str) -> FilteredPair:
    """Parse an explicit filtration file.

    One cell per line: `id dim value member boundary_id...` where member is
    L (in the subcomplex) or K (ambient only). `#` starts a comment and
    empty lines are skipped. Empty input gives the empty pair.
    """
    cells: list[Cell] = []
    seen: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
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
            boundary = tuple(sorted(int(p) for p in parts[4:]))
        except ValueError:
            raise InputError(f"line {lineno}: boundary ids must be integers") from None
        if cid in seen:
            raise InputError(f"line {lineno}: duplicate cell id {cid}")
        seen.add(cid)
        cells.append(Cell(id=cid, dim=dim, value=value, member=member, boundary=boundary))
    cells.sort(key=lambda c: c.id)
    return FilteredPair.from_cells(cells)


def format_explicit_pair(fp: FilteredPair) -> str:
    """Inverse of parse_explicit_pair, mostly useful for debugging and tests."""
    lines = []
    for c in fp.cells:
        parts = [str(c.id), str(c.dim), repr(c.value), c.member]
        parts.extend(str(b) for b in c.boundary)
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


def restrict_to_L(fp: FilteredPair) -> FilteredPair:
    """The subcomplex L as a standalone pair (every cell member L).

    Cells are renumbered 1..m in their original relative order; each keeps
    its original id in the `label` field.
    """
    remap: dict[int, int] = {}
    out: list[Cell] = []
    for c in fp.cells:
        if c.member != MEMBER_L:
            continue
        new_id = len(out) + 1
        remap[c.id] = new_id
        try:
            boundary = tuple(sorted(remap[b] for b in c.boundary))
        except KeyError as exc:
            raise InputError(
                f"cell {c.id} is in L but its face {exc.args[0]} is not: L is not a subcomplex"
            ) from None
        out.append(
            Cell(
                id=new_id,
                dim=c.dim,
                value=c.value,
                member=MEMBER_L,
                boundary=boundary,
                vertices=c.vertices,
                label=c.id if c.label is None else c.label,
            )
        )
    return FilteredPair.from_cells(out)
