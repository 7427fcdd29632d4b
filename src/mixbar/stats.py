"""Summary statistics over mixup barcodes.

Each bar [b, d) of the subcomplex splits at its premature death d' into an
image sub-bar [b, d') and a mixup sub-bar [d', d). A barcode holds its
triples as one (m, 3) array of (b, d', d) rows, checked once for
b <= d' <= d when it is built. The mixup of a triple is d - d', the share
of the bar lost to the ambient complex; percentages divide by the full
persistence d - b. Infinite deaths must be clamped to a finite horizon
before any length is computed; clamping never drops a bar, it only
truncates, and the clamped array is formed once per barcode. Every
statistic is an exact sum (math.fsum) of a column expression over it.
Zero-persistence bars keep their place in totals of absolute mixup but are
excluded from percentage statistics, where they would divide by zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping

import numpy as np

from .cloud import LabeledPointCloud, PointCloud, distance_blocks
from .errors import InputError
from .filtration import FilteredPair
from .reduction import INF, MixupTriple, mixup_barcode_indices
from .rips import check_rips_params, rips_pair_from_distances
from .subsample import check_budget, k_medoids_indices


def check_clamp(clamp: float | None) -> None:
    """The rule on a clamp given from outside: unset, or a finite number."""
    if clamp is not None and not math.isfinite(clamp):
        raise InputError(f"clamp must be a finite number, got {clamp}")


@dataclass(frozen=True)
class MixupBarcode:
    """All mixup triples of one degree: index triples and an (m, 3) array.

    Row i of `values` is (b, d', d) of index_triples[i] in filtration
    values, unclamped, +inf for a death that never comes; the constructor
    checks b <= d' <= d on every row. `clamp` is the horizon of `clamped`
    and of the statistics below (None means lengths involving +inf are an
    error); the constructor checks it first, by check_clamp.
    """

    degree: int
    index_triples: tuple[MixupTriple, ...]
    values: np.ndarray
    clamp: float | None = None

    def __post_init__(self) -> None:
        check_clamp(self.clamp)
        values = np.array(self.values, dtype=float).reshape(len(self.values), 3)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        bad = ~((values[:, 0] <= values[:, 1]) & (values[:, 1] <= values[:, 2]))
        if bad.any():
            b, dp, d = values[bad.argmax()].tolist()
            raise InputError(f"triple out of order: b={b}, d'={dp}, d={d}")

    @cached_property
    def clamped(self) -> np.ndarray:
        """`values` with both deaths truncated at `clamp`, never below the
        birth; computed once per barcode."""
        v = self.values
        if self.clamp is None:
            if np.isinf(v[:, 1:]).any():
                raise InputError("triple has an infinite death and no clamp value is set")
            return v
        births = v[:, :1]
        out = np.hstack([births, np.maximum(births, np.minimum(v[:, 1:], self.clamp))])
        out.flags.writeable = False
        return out

    @cached_property
    def triples(self) -> tuple[MixupTriple, ...]:
        """The rows of `values` as value triples."""
        return tuple(MixupTriple(*row) for row in self.values.tolist())


def compute_mixup_barcode(
    fp: FilteredPair, degree: int, clamp: float | None = None
) -> MixupBarcode:
    """Mixup barcode of one degree: index triples and their values.

    A degree above the dimension of the complex has no cells to carry a
    class, so its barcode is empty.
    """
    idx = tuple(mixup_barcode_indices(fp, degree))
    # cell id c sits at position c - 1; position n stands for +inf
    ids = np.array(idx, dtype=float).reshape(-1, 3)
    pos = np.where(np.isinf(ids), fp.n + 1, ids).astype(np.int64) - 1
    return MixupBarcode(degree, idx, np.append(fp.value, INF)[pos], clamp)


def _percentages(clamped: np.ndarray) -> np.ndarray:
    """(d - d') / (d - b) of each clamped row of positive persistence."""
    b, dp, d = clamped[clamped[:, 2] > clamped[:, 0]].T
    return (d - dp) / (d - b)


def mixup_percentage(t: MixupTriple, clamp: float | None = None) -> float:
    """Share (d - d') / (d - b) of the bar lost to the ambient complex."""
    pct = _percentages(MixupBarcode(0, (), [t], clamp).clamped)
    if not len(pct):
        raise InputError("mixup percentage of a zero-persistence bar is undefined")
    return float(pct[0])


def total_mixup(bc: MixupBarcode) -> float:
    return math.fsum((bc.clamped[:, 2] - bc.clamped[:, 1]).tolist())


def total_persistence(bc: MixupBarcode) -> float:
    return math.fsum((bc.clamped[:, 2] - bc.clamped[:, 0]).tolist())


def total_image_persistence(bc: MixupBarcode) -> float:
    return math.fsum((bc.clamped[:, 1] - bc.clamped[:, 0]).tolist())


def total_mixup_percentage(bc: MixupBarcode) -> float:
    return math.fsum(_percentages(bc.clamped).tolist())


def mean_mixup_percentage(bc: MixupBarcode) -> float:
    """Average percentage over the positive-persistence bars, 0 if none."""
    pcts = _percentages(bc.clamped).tolist()
    return math.fsum(pcts) / len(pcts) if pcts else 0.0


@dataclass(frozen=True)
class StatsConfig:
    """Settings shared by the interaction statistics.

    clamp defaults to r_max. Subsampling uses k-medoids with subsample_a
    points on the A side and subsample_b on the B side; in degree 0 all
    points are used.
    """

    r_max: float
    subsample_a: int = 500
    subsample_b: int = 100
    clamp: float | None = None
    profile_aggregate: str = "total"

    def __post_init__(self) -> None:
        check_rips_params(self.r_max, 0)
        check_clamp(self.clamp)
        if self.subsample_a < 1 or self.subsample_b < 1:
            raise InputError("subsample sizes must be at least 1")
        if self.profile_aggregate not in ("total", "mean"):
            raise InputError(
                f"profile aggregate must be 'total' or 'mean', got {self.profile_aggregate!r}"
            )

    def effective_clamp(self) -> float:
        return self.clamp if self.clamp is not None else self.r_max


def interaction_barcode(
    dist: np.ndarray, n_a: int, degree: int, config: StatsConfig
) -> MixupBarcode:
    """Mixup barcode of the first n_a points of dist into all of its points.

    The Rips pair stops at dimension degree + 1: the degree-k pairing reads
    only k- and (k+1)-cells, and dropping the higher cells leaves their
    relative order, and so every value, unchanged.
    """
    fp = rips_pair_from_distances(dist, n_a, config.r_max, degree)
    return compute_mixup_barcode(fp, degree, config.effective_clamp())


def _aggregate(bc: MixupBarcode, which: str) -> float:
    if which == "mean":
        return mean_mixup_percentage(bc)
    return total_mixup_percentage(bc)


def _subsampled(
    cloud: PointCloud, degree: int, requests: list[tuple[np.ndarray, dict[str, int]]]
) -> list[list[np.ndarray]]:
    """For each (indices, sizes), the k-medoids of those points of the cloud
    at each size; sizes maps the option that set a size to it. All of the
    points are kept in degree 0 or where a size covers them. The distances
    of every request come from one distance_blocks call, and each index
    set's block is formed once for all its sizes. Every k-medoids input
    passes subsample.check_budget before any distance is computed."""
    picked = [[idx] * len(sizes) for idx, sizes in requests]
    todo = [
        i
        for i, (idx, sizes) in enumerate(requests)
        if degree > 0 and min(sizes.values()) < len(idx)
    ]
    for i in todo:
        idx, sizes = requests[i]
        check_budget(len(idx), " and ".join(opt for opt, k in sizes.items() if k < len(idx)))
    blocks = distance_blocks(cloud.points, cloud.metric, [requests[i][0] for i in todo])
    for i, sub in zip(todo, blocks):
        idx, sizes = requests[i]
        picked[i] = [
            idx[np.asarray(k_medoids_indices(sub, k), dtype=int)] if k < len(idx) else idx
            for k in sizes.values()
        ]
    return picked


def _interactions(
    cloud: PointCloud,
    pairs: list[tuple[np.ndarray, np.ndarray]],
    degree: int,
    config: StatsConfig,
) -> Iterator[MixupBarcode]:
    """The interaction barcode of each (A indices, B indices) of the cloud."""
    ids = [np.concatenate([a, b]) for a, b in pairs]
    for (a, _), sub in zip(pairs, distance_blocks(cloud.points, cloud.metric, ids)):
        yield interaction_barcode(sub, len(a), degree, config)


def pairwise_matrix(
    x: LabeledPointCloud, degree: int, config: StatsConfig
) -> tuple[list[int], np.ndarray]:
    """Mean mixup percentage of class i against class j, for all i != j.

    Entry (i, j) subsamples class i to the A size and class j to the B size
    and measures how much of class i's degree-k structure the presence of
    class j destroys early. The diagonal is 0 by convention.
    """
    labels = x.label_values
    if len(labels) < 2:
        raise InputError("pairwise matrix needs at least two distinct labels")
    sizes = {"--subsample-a": config.subsample_a, "--subsample-b": config.subsample_b}
    sel = _subsampled(x.cloud, degree, [(x.indices_of(lab), sizes) for lab in labels])
    entries = [(i, j) for i in range(len(labels)) for j in range(len(labels)) if i != j]
    out = np.zeros((len(labels), len(labels)))
    barcodes = _interactions(x.cloud, [(sel[i][0], sel[j][1]) for i, j in entries], degree, config)
    for (i, j), bc in zip(entries, barcodes):
        out[i, j] = mean_mixup_percentage(bc)
    return labels, out


@dataclass(frozen=True)
class ProfileResult:
    layers: tuple[int, ...]
    steps: tuple[int, ...]
    values: np.ndarray  # shape (len(layers), len(steps))


def mixup_profile(
    series: Mapping[tuple[int, int], LabeledPointCloud],
    degree: int,
    config: StatsConfig,
) -> ProfileResult:
    """Per-(layer, step) entanglement: the worst class-vs-rest mixup percentage.

    For every cloud in the series and every label j, measures class j
    against the union of the other classes and keeps the maximum over j.
    Subsampling indices are chosen once on the reference cloud (the first
    key in sorted order) and reused everywhere, so the profile tracks the
    same examples across the whole series.
    """
    if not series:
        raise InputError("profile needs a nonempty series")
    keys = sorted(series)
    layers = tuple(sorted({k for k, _ in keys}))
    steps = tuple(sorted({t for _, t in keys}))
    if len(keys) != len(layers) * len(steps):
        raise InputError("profile series must cover the full (layer, step) grid")
    ref = series[keys[0]]
    labels = ref.label_values
    if len(labels) < 2:
        raise InputError("profile needs at least two distinct labels")
    for key in keys:
        cloud = series[key]
        if cloud.label_values != labels:
            raise InputError(f"cloud at {key} has a different label set")
        if cloud.cloud.n_points != ref.cloud.n_points:
            raise InputError(f"cloud at {key} has a different number of points")
        if not np.array_equal(cloud.labels, ref.labels):
            raise InputError(f"cloud at {key} has a different label layout")

    sel = _subsampled(
        ref.cloud,
        degree,
        [(ref.indices_of(lab), {"--subsample-a": config.subsample_a}) for lab in labels]
        + [(ref.indices_excluding(lab), {"--subsample-b": config.subsample_b}) for lab in labels],
    )
    pairs = [(a[0], b[0]) for a, b in zip(sel[: len(labels)], sel[len(labels) :])]

    values = np.zeros((len(layers), len(steps)))
    for li, layer in enumerate(layers):
        for si, step in enumerate(steps):
            best = 0.0
            for bc in _interactions(series[(layer, step)].cloud, pairs, degree, config):
                best = max(best, _aggregate(bc, config.profile_aggregate))
            values[li, si] = best
    return ProfileResult(layers=layers, steps=steps, values=values)
