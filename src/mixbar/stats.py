"""Summary statistics over mixup barcodes.

Each bar [b, d) of the subcomplex splits at its premature death d' into an
image sub-bar [b, d') and a mixup sub-bar [d', d). A barcode holds its
triples as two (m, 3) arrays of (b, d', d) rows, one in cell ids and one
in filtration values, the values checked once for b <= d' <= d when it is
built. The mixup of a triple is d - d', the share of the bar lost to the
ambient complex; percentages divide by the full persistence d - b.
Infinite deaths must be clamped to a finite horizon before any length is
computed; clamping never drops a bar, it only truncates, and the clamped
array is formed once per barcode. Every statistic is an exact sum
(math.fsum) of a column expression over it. Zero-persistence bars keep
their place in totals of absolute mixup but are excluded from percentage
statistics, where they would divide by zero.
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
from .reduction import INF, mixup_barcode_indices
from .rips import check_rips_params, rips_pair_from_distances
from .subsample import check_budget, check_sizes, k_medoids_indices


def check_clamp(clamp: float | None) -> None:
    """The rule on a clamp given from outside: unset, or a finite number."""
    if clamp is not None and not math.isfinite(clamp):
        raise InputError(f"clamp must be a finite number, got {clamp}")


@dataclass(frozen=True)
class MixupBarcode:
    """All mixup triples of one degree: two (m, 3) float64 arrays.

    Row i of `index_triples` is a bar (b, d', d) in cell ids and row i of
    `values` the same bar in filtration values, unclamped; both hold +inf
    for a death that never comes. The constructor checks b <= d' <= d on
    every row of `values`. `clamp` is the horizon of `clamped` and of the
    statistics below (None means lengths involving +inf are an error); the
    constructor checks it first, by check_clamp.
    """

    degree: int
    index_triples: np.ndarray
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


def compute_mixup_barcode(
    fp: FilteredPair, degree: int, clamp: float | None = None
) -> MixupBarcode:
    """Mixup barcode of one degree: the id array and the values it maps to.

    A degree above the dimension of the complex has no cells to carry a
    class, so its barcode is empty.
    """
    ids = mixup_barcode_indices(fp, degree)
    # cell id c sits at position c - 1; position n stands for +inf
    pos = np.where(np.isinf(ids), fp.n + 1, ids).astype(np.int64) - 1
    return MixupBarcode(degree, ids, np.append(fp.value, INF)[pos], clamp)


def _percentages(clamped: np.ndarray) -> np.ndarray:
    """(d - d') / (d - b) of each clamped row of positive persistence."""
    b, dp, d = clamped[clamped[:, 2] > clamped[:, 0]].T
    return (d - dp) / (d - b)


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

    An unset clamp is r_max. Subsampling uses k-medoids with subsample_a
    points on the A side and subsample_b on the B side; in degree 0 all
    points are used.
    """

    r_max: float
    subsample_a: int = 500
    subsample_b: int = 100
    clamp: float | None = None

    def __post_init__(self) -> None:
        check_rips_params(self.r_max, 0)
        check_clamp(self.clamp)
        check_sizes(self.subsample_a, self.subsample_b)


def interaction_barcode(
    dist: np.ndarray,
    n_a: int,
    degrees: list[int],
    config: StatsConfig,
    held: list[np.ndarray] | None = None,
) -> dict[int, MixupBarcode]:
    """Mixup barcode of the first n_a points of dist into all of its points,
    per degree, all from one Rips pair up to dimension max(degrees) + 1,
    whose build is charged the matrices of `held` beside dist while they
    fit (mixbar.rips.rips_pair_from_distances).

    The degree-k pairing reads only k- and (k+1)-cells, and the higher cells
    leave their relative order, and so every value, unchanged; only the ids
    of `index_triples` may differ from those of a build that stops at k + 1.
    """
    fp = rips_pair_from_distances(dist, n_a, config.r_max, max(degrees), held)
    clamp = config.r_max if config.clamp is None else config.clamp
    return {k: compute_mixup_barcode(fp, k, clamp) for k in degrees}


def _aggregate(bc: MixupBarcode, which: str) -> float:
    if which == "mean":
        return mean_mixup_percentage(bc)
    return total_mixup_percentage(bc)


def _passes(degrees: list[int]) -> list[list[int]]:
    """Degree 0, which reads all points, and the other degrees, which share
    one subsampling and one build per entry (a negative one is its InputError)."""
    high = [k for k in degrees if k != 0]
    return [[0]] * (0 in degrees) + [high] * bool(high)


def _subsampled(
    cloud: PointCloud, degrees: list[int], requests: list[tuple[np.ndarray, dict[str, int]]]
) -> list[list[np.ndarray]]:
    """For each (indices, sizes), the k-medoids of those points of the cloud
    at each size; sizes maps the option that set a size to it. All of the
    points are kept in degree 0 and where subsample.check_budget, which
    checks every request before any distance, finds that no k-medoids runs.
    One distance_blocks call serves every request, a whole matrix charged
    with what check_budget charges each block; each block serves all its
    sizes and is dropped before the next is formed, which a zip would not."""
    picked = [[idx] * len(sizes) for idx, sizes in requests]
    held = [check_budget(len(idx), sizes) if 0 not in degrees else 0 for idx, sizes in requests]
    todo = [i for i, entries in enumerate(held) if entries]
    blocks = distance_blocks(
        cloud.points, cloud.metric, [requests[i][0] for i in todo], [held[i] for i in todo]
    )
    for i in todo:
        idx, sizes = requests[i]
        sub, _ = next(blocks)
        picked[i] = [idx[np.asarray(k_medoids_indices(sub, k), dtype=int)] for k in sizes.values()]
        del sub
    return picked


def _interactions(
    cloud: PointCloud,
    pairs: list[tuple[np.ndarray, np.ndarray]],
    degrees: list[int],
    config: StatsConfig,
) -> Iterator[dict[int, MixupBarcode]]:
    """The interaction barcodes of each (A indices, B indices) of the cloud,
    each build charged the whole matrix its block is sliced from, if any."""
    blocks = distance_blocks(cloud.points, cloud.metric, [np.concatenate(pair) for pair in pairs])
    for a, _ in pairs:
        block, whole = next(blocks)
        barcodes = interaction_barcode(block, len(a), degrees, config, whole)
        del block  # before the next block is formed
        yield barcodes


def pairwise_matrix(
    x: LabeledPointCloud, degrees: list[int], config: StatsConfig
) -> tuple[list[int], dict[int, np.ndarray]]:
    """Mean mixup percentage of class i against class j, for all i != j,
    one matrix per degree.

    In degrees >= 1, entry (i, j) subsamples class i to the A size and class
    j to the B size; it measures how much of class i's degree-k structure
    the presence of class j destroys early. The diagonal is 0 by convention.
    """
    labels = x.label_values
    if len(labels) < 2:
        raise InputError("pairwise matrix needs at least two distinct labels")
    sizes = {"--subsample-a": config.subsample_a, "--subsample-b": config.subsample_b}
    entries = [(i, j) for i in range(len(labels)) for j in range(len(labels)) if i != j]
    out = {k: np.zeros((len(labels), len(labels))) for k in degrees}
    for ks in _passes(degrees):
        sel = _subsampled(x.cloud, ks, [(x.indices_of(lab), sizes) for lab in labels])
        barcodes = _interactions(x.cloud, [(sel[i][0], sel[j][1]) for i, j in entries], ks, config)
        for (i, j), bcs in zip(entries, barcodes):
            for k, bc in bcs.items():
                out[k][i, j] = mean_mixup_percentage(bc)
    return labels, out


def mixup_profile(
    series: Mapping[tuple[int, int], LabeledPointCloud],
    degrees: list[int],
    config: StatsConfig,
    aggregate: str = "total",
) -> tuple[tuple[int, ...], tuple[int, ...], dict[int, np.ndarray]]:
    """Per-(layer, step) entanglement: the worst class-vs-rest mixup percentage.

    For every cloud in the series and every label j, measures class j
    against the union of the other classes and keeps the maximum over j of
    the total or the mean mixup percentage, as aggregate says. Returns the
    layers, the steps and, per degree, a (layers, steps) grid of values.
    Subsampling indices are chosen once on the reference cloud (the first
    key in sorted order) and reused everywhere, so the profile tracks the
    same examples across the whole series.
    """
    if aggregate not in ("total", "mean"):
        raise InputError(f"profile aggregate must be 'total' or 'mean', got {aggregate!r}")
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

    requests = [(ref.indices_of(lab), {"--subsample-a": config.subsample_a}) for lab in labels]
    requests += [(ref.indices_excluding(lab), {"--subsample-b": config.subsample_b}) for lab in labels]
    grids = {k: np.zeros((len(layers), len(steps))) for k in degrees}
    for ks in _passes(degrees):
        sel = _subsampled(ref.cloud, ks, requests)
        pairs = [(a[0], b[0]) for a, b in zip(sel[: len(labels)], sel[len(labels) :])]
        for li, layer in enumerate(layers):
            for si, step in enumerate(steps):
                for bcs in _interactions(series[(layer, step)].cloud, pairs, ks, config):
                    for k, bc in bcs.items():
                        grids[k][li, si] = max(grids[k][li, si], _aggregate(bc, aggregate))
    return layers, steps, grids
