"""Point clouds, distance matrices, and the input file formats for them.

A PointCloud is a coordinate array under the euclidean or squared
euclidean metric. A finite metric space that never had coordinates is a
plain distance matrix: `parse_distance_matrix` reads one, and its consumer
applies `check_distance_matrix`, the one rule every matrix from outside passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Sequence

import numpy as np

from .errors import InputError

METRICS = ("euclidean", "sqeuclidean")

# Bytes of a block of rows: every blocked loop of cloud, rips and subsample
# takes its rows in `runs`, so no block holds more than 2 MB whatever n is.
# Larger blocks measured no faster, and 8 MB distance blocks 1.7x slower.
BLOCK_BYTES = 1 << 21

# The one memory budget, as _charge counts it: 9 bytes per entry of a
# dense n × n matrix (a distance and the Rips mask over it; at most 29,814
# points) plus 950 per cell of a Rips build over it. A build peaks, per cell
# and matrix aside (tracemalloc), at 180-183 B at k_max 1, 220-230 B at 3 and
# at most 283 B up to k_max 18 (67k to 2.0M cells), its pairing at most 235 B,
# so the 950 B are 3-5 times the peak; a charge that follows the peak is open
# (ROADMAP.md, item 5).
MAX_MATRIX_BYTES = 8 * 10**9


@dataclass(eq=False)
class PointCloud:
    """A finite point set: (n, d) coordinates and the metric between them."""

    points: np.ndarray
    metric: str = "euclidean"

    def __post_init__(self) -> None:
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2:
            raise InputError(f"point array must be 2-dimensional, got shape {self.points.shape}")
        if self.metric not in METRICS:
            raise InputError(f"unknown metric {self.metric!r}, expected one of {METRICS}")
        if self.points.size and not np.isfinite(self.points).all():
            raise InputError("non-finite coordinates in point cloud")

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(eq=False)
class LabeledPointCloud:
    """A point cloud whose rows carry an integer class label."""

    cloud: PointCloud
    labels: np.ndarray

    def __post_init__(self) -> None:
        self.labels = np.asarray(self.labels)
        if self.labels.ndim != 1 or len(self.labels) != self.cloud.n_points:
            raise InputError("label array must have one entry per point")
        if self.labels.size and not np.issubdtype(self.labels.dtype, np.integer):
            # NaN, inf and floats past the int64 range are refused before the cast warns on them
            fits = self.labels.dtype.kind != "f" or (abs(self.labels) < 2.0**63).all()
            if not (fits and np.array_equal(as_int := self.labels.astype(int), self.labels)):
                raise InputError("labels must be integers")
            self.labels = as_int

    @property
    def label_values(self) -> list[int]:
        # not np.unique: in numpy 2 it imports numpy.ma, about 10 ms cold
        return sorted(set(self.labels.tolist()))

    def indices_of(self, label: int) -> np.ndarray:
        return np.flatnonzero(self.labels == label)

    def indices_excluding(self, label: int) -> np.ndarray:
        return np.flatnonzero(self.labels != label)


def pairwise_distances(points: np.ndarray, metric: str = "euclidean") -> np.ndarray:
    """Entrywise pairwise dissimilarity matrix.

    Each entry depends only on its own pair of rows, so the A-block of a
    stacked A+B matrix is bitwise identical to the matrix computed from A
    alone. Several exactness tests rely on that. Each run of rows is
    differenced against the points from its first row on; its squared norms
    fill its rows from the diagonal on and, once one max has found them
    finite, are mirrored below it. Entry (j, i) of the whole (n, n, d)
    tensor has the bits of (i, j): its differences are negated exactly and
    summed in the same order.
    """
    if metric not in METRICS:
        raise InputError(f"cannot compute distances for metric {metric!r}")
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if not within_budget(n * n):
        raise InputError(
            f"the distance matrix of {n:,} points would take {_charge(n * n):,} bytes with its Rips "
            f"mask, more than the budget of {MAX_MATRIX_BYTES:,} (mixbar.cloud.MAX_MATRIX_BYTES)"
        )
    out = np.empty((n, n))
    for part in runs(n, pts.nbytes):
        lo = part.start
        with np.errstate(over="ignore"):  # an overflow is the InputError below
            diff = pts[part, None, :] - pts[None, lo:, :]
        block = out[part, lo:]
        np.einsum("ijk,ijk->ij", diff, diff, out=block)
        if block.max() == np.inf:
            raise InputError("squared distances between the points overflow to inf; rescale the coordinates")
        out[lo:, part] = block.T
    if metric == "euclidean":
        np.sqrt(out, out=out)
    return out


def distance_blocks(
    points: np.ndarray,
    metric: str,
    index_sets: Sequence[np.ndarray],
    held: Sequence[int] | None = None,
) -> Iterator[np.ndarray]:
    """The matrix of pairwise_distances among points[s], for each s in turn.

    held[i] is the entries in use while block i is, the block included (by
    default the block alone). The whole matrix of all n points is computed
    once and each block sliced from it when the blocks hold at least its n^2
    entries and it fits the budget with the largest of held; otherwise each
    block is computed from its own rows. Both give the same bits, since each
    entry depends only on its own pair of rows. Blocks are computed as they
    are asked for.
    """
    n = len(points)
    entries = [len(s) ** 2 for s in index_sets]
    held = entries if held is None else held
    fits = sum(entries) >= n * n and within_budget(n * n + max(held, default=0))
    whole = pairwise_distances(points, metric) if fits else None
    for s in index_sets:
        yield pairwise_distances(points[s], metric) if whole is None else whole[np.ix_(s, s)]


def within_budget(entries: int, cells: int = 0) -> bool:
    """Whether dense matrices of `entries` in all and `cells` Rips cells fit MAX_MATRIX_BYTES."""
    return _charge(entries, cells) <= MAX_MATRIX_BYTES


def _charge(entries: int, cells: int = 0) -> int:
    """The bytes charged to dense matrices of `entries` in all and `cells` Rips cells."""
    return 9 * entries + 950 * cells


def runs(n: int, row_bytes: int) -> list[slice]:
    """Slices that split n rows of row_bytes bytes each into runs processed
    together, in order, each within BLOCK_BYTES (one row when a row alone
    exceeds it). BLOCK_BYTES is read at each call."""
    step = max(1, BLOCK_BYTES // max(1, row_bytes))
    return [slice(lo, lo + step) for lo in range(0, n, step)]


def check_distance_matrix(d: np.ndarray) -> None:
    """Square, finite, non-negative, symmetric, with a zero diagonal."""
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise InputError(f"distance matrix must be square, got shape {d.shape}")
    if d.size == 0:
        return
    # one pass over runs of rows, each compared from the diagonal on with its
    # columns; a running min or max is NaN for good from the first NaN on
    low, high, symmetric = 0.0, 0.0, True
    for part in runs(len(d), d[0].nbytes):
        low, high = np.minimum(low, d[part].min()), np.maximum(high, d[part].max())
        symmetric = symmetric and np.array_equal(d[part, part.start :], d[part.start :, part].T)
    if not (np.isfinite(low) and np.isfinite(high)):
        raise InputError("distance matrix has non-finite entries")
    if low < 0:
        raise InputError("distance matrix has negative entries")
    if np.diagonal(d).any():
        raise InputError("distance matrix has a nonzero diagonal")
    if not symmetric:
        raise InputError("distance matrix is not symmetric")


def data_lines(text: str):
    """Yield (line number, content) for each line that holds data: `#`
    starts a comment, and blank lines are skipped. Every line-based input
    format reads through this."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def read_text(path: str) -> str:
    """The text of an input file; an unreadable file is an input error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _data_rows(text: str) -> list[list[str]]:
    # fields keep their surrounding blanks: float() and int() skip them
    return [line.split(",") if "," in line else line.split() for _, line in data_lines(text)]


def parse_point_table(text: str, labeled: bool = False):
    """Parse a point table: one point per row, CSV or whitespace separated.

    With labeled=True the final column is an integer class label. Returns
    (points, labels) where labels is None for unlabeled input.
    """
    rows = _data_rows(text)
    if not rows:
        return np.zeros((0, 0)), (np.zeros(0, dtype=int) if labeled else None)
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise InputError("rows have inconsistent numbers of columns")
    if labeled and width < 2:
        raise InputError("labeled point table needs at least one coordinate column plus the label")
    try:
        data = np.array(list(map(float, chain.from_iterable(rows)))).reshape(len(rows), width)
    except ValueError as exc:
        raise InputError(f"non-numeric entry in point table: {exc}") from None
    if not labeled:
        return data, None
    return data[:, :-1], _labels([r[-1] for r in rows])


def _labels(tokens: list[str]) -> np.ndarray:
    """Class labels read as exact integers, so that distinct labels stay
    distinct however large. An integral float token such as 3.0 is read
    too, when below 2**53 in magnitude, where float64 holds every integer."""
    labels = [_label(t) for t in tokens]
    for extreme in (min(labels), max(labels)):
        if not -(2**63) <= extreme < 2**63:
            raise _label_error(str(extreme))
    return np.array(labels, dtype=np.int64)


def _label(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        value = float(token)  # parse_point_table has read every token as a float
    if not (value.is_integer() and abs(value) < 2.0**53):
        raise _label_error(token.strip())
    return int(value)


def _label_error(token: str) -> InputError:
    return InputError(
        "label column must contain integers within the 64-bit range (a label written "
        f"as a float must be integral and below 2**53 in magnitude), got {token!r}"
    )


def load_point_cloud(path: str, metric: str) -> PointCloud:
    points, _ = parse_point_table(read_text(path), labeled=False)
    return PointCloud(points, metric)


def load_labeled_point_cloud(path: str, metric: str) -> LabeledPointCloud:
    points, labels = parse_point_table(read_text(path), labeled=True)
    return LabeledPointCloud(PointCloud(points, metric), labels)


def parse_distance_matrix(text: str) -> np.ndarray:
    """Parse a lower-triangular distance matrix.

    Row i holds the distances from point i to points 0..i-1. The zero
    diagonal entry may be included (then the first row is the single entry
    0); without it the first row belongs to point 1, since point 0 has no
    row. A full square matrix is accepted as well. Whatever reads it checks it.
    """
    rows = _data_rows(text)
    if not rows:
        return np.zeros((0, 0))
    try:
        flat = np.array(list(map(float, chain.from_iterable(rows))))
    except ValueError as exc:
        raise InputError(f"non-numeric entry in distance matrix: {exc}") from None
    n = len(rows)
    lengths = [len(r) for r in rows]
    if lengths == [n] * n:
        d = flat.reshape(n, n)
    elif lengths == list(range(1, n + 1)):
        # with a zero diagonal the rows are points 0..n-1; else they are the
        # strict triangle of points 1..n, and point 0 has an empty row
        diagonal = flat[np.cumsum(np.arange(1, n + 1)) - 1]
        m, k = (n, 0) if (diagonal == 0.0).all() else (n + 1, -1)
        d = np.zeros((m, m))
        d[np.tril_indices(m, k)] = flat
        d = d + d.T
    else:
        raise InputError("distance matrix rows must form a square or a lower triangle")
    return d


def load_distance_matrix(path: str) -> np.ndarray:
    return parse_distance_matrix(read_text(path))
