import math
import re
import tracemalloc

import numpy as np
import pytest

from mixbar import (
    INF,
    InputError,
    LabeledPointCloud,
    PointCloud,
    MixupBarcode,
    StatsConfig,
    build_rips_pair,
    compute_mixup_barcode,
    k_medoids_indices,
    mixup_profile,
    pairwise_distances,
    pairwise_matrix,
    rips_pair_from_distances,
    total_mixup,
)
from mixbar.stats import (
    interaction_barcode,
    mean_mixup_percentage,
    total_image_persistence,
    total_mixup_percentage,
    total_persistence,
)


NO_IDS = np.empty((0, 3))


def test_six_cell_statistics(six_cell_pair):
    bc = compute_mixup_barcode(six_cell_pair, 1, clamp=6.0)
    assert total_mixup(bc) == 4.0
    assert total_persistence(bc) == 8.0
    assert total_image_persistence(bc) == 4.0
    # per-bar ratios 2/5 and 2/3
    assert total_mixup_percentage(bc) == 1.0666666666666667
    assert mean_mixup_percentage(bc) == 0.5333333333333333


def test_mixup_and_percentage():
    bc = MixupBarcode(1, NO_IDS, [(1.0, 3.0, 5.0)])
    assert total_mixup(bc) == 2.0
    assert total_mixup_percentage(bc) == 0.5


def test_degree_above_dimension_gives_empty_barcode(six_cell_pair):
    bc = compute_mixup_barcode(six_cell_pair, 3, clamp=6.0)
    assert bc.index_triples.shape == bc.values.shape == (0, 3)
    assert total_mixup(bc) == 0.0


@pytest.mark.parametrize("clamp", [float("nan"), INF, -INF])
def test_barcode_rejects_non_finite_clamp(six_cell_pair, clamp):
    """The clamp rule holds wherever a barcode is built, before its rows are
    checked."""
    msg = f"clamp must be a finite number, got {clamp}"
    with pytest.raises(InputError, match=msg):
        compute_mixup_barcode(six_cell_pair, 0, clamp=clamp)
    with pytest.raises(InputError, match=msg):
        MixupBarcode(1, NO_IDS, [(2.0, 1.0, 0.0)], clamp)


def test_percentages_skip_zero_persistence():
    """A zero-persistence bar counts in totals of mixup, and in neither the
    sum nor the count of the percentages."""
    bc = MixupBarcode(1, NO_IDS, [(2.0, 2.0, 2.0), (1.0, 3.0, 5.0)])
    assert total_mixup(bc) == 2.0
    assert total_mixup_percentage(bc) == mean_mixup_percentage(bc) == 0.5


def clamped(rows, clamp):
    return MixupBarcode(1, NO_IDS, rows, clamp).clamped.tolist()


def test_clamp_truncates_both_deaths():
    assert clamped([(1.0, 3.0, 5.0)], 2.5) == [[1.0, 2.5, 2.5]]
    assert clamped([(1.0, 3.0, 5.0)], 4.0) == [[1.0, 3.0, 4.0]]
    # row by row, each against the same horizon
    rows = [(1.0, 3.0, 5.0), (0.0, 1.0, 2.0), (2.0, 2.0, INF)]
    assert clamped(rows, 2.5) == [[1.0, 2.5, 2.5], [0.0, 1.0, 2.0], [2.0, 2.0, 2.5]]


def test_clamp_floors_at_birth():
    bc = MixupBarcode(1, NO_IDS, [(2.0, 3.0, 4.0)], 1.0)
    assert bc.clamped.tolist() == [[2.0, 2.0, 2.0]]
    # a bar clamped to zero persistence counts in no percentage
    assert total_persistence(bc) == 0.0
    assert mean_mixup_percentage(bc) == 0.0


def test_clamp_resolves_infinite_deaths():
    assert clamped([(0.0, INF, INF)], 7.0) == [[0.0, 7.0, 7.0]]


def test_infinite_death_needs_clamp():
    with pytest.raises(InputError, match="clamp"):
        MixupBarcode(1, NO_IDS, [(0.0, 1.0, INF)]).clamped
    with pytest.raises(InputError, match="clamp"):
        total_mixup_percentage(MixupBarcode(1, NO_IDS, [(0.0, 1.0, INF)]))
    assert total_mixup(MixupBarcode(1, NO_IDS, [(0.0, 1.0, INF)], clamp=3.0)) == 2.0


def test_barcode_values_are_one_read_only_array(six_cell_pair):
    bc = compute_mixup_barcode(six_cell_pair, 1, clamp=5.5)
    assert bc.values.shape == (2, 3) and bc.values.dtype == np.float64
    assert bc.index_triples.tolist() == [[1.0, 4.0, 6.0], [2.0, 3.0, 5.0]]
    assert bc.clamped.tolist() == [[min(v, 5.5) for v in row] for row in bc.values.tolist()]
    for array in (bc.values, bc.clamped):
        with pytest.raises(ValueError):
            array[0, 0] = 0.0
    with pytest.raises(ValueError):
        MixupBarcode(1, NO_IDS, [(0.0, 1.0)] * 3)


def test_square_center_statistics(square_center_pair):
    bc0 = compute_mixup_barcode(square_center_pair, 0, clamp=2.0)
    assert total_mixup(bc0) == 0.8786796564403573
    assert mean_mixup_percentage(bc0) == 0.21966991411008932
    bc1 = compute_mixup_barcode(square_center_pair, 1, clamp=2.0)
    assert total_mixup_percentage(bc1) == 1.0
    assert mean_mixup_percentage(bc1) == 1.0


def test_mean_percentage_empty_is_zero():
    # two points and one edge: degree 1 exists but holds no cycles
    fp = build_rips_pair(
        PointCloud(np.array([[0.0, 0.0], [1.0, 0.0]])), None, r_max=1.0, k_max=1
    )
    bc = compute_mixup_barcode(fp, 1, clamp=1.0)
    assert bc.values.shape == (0, 3)
    assert mean_mixup_percentage(bc) == 0.0
    assert total_mixup(bc) == 0.0


def test_duplicated_cloud_has_zero_mixup():
    """Placing an identical copy of A on top of itself creates no
    shortcuts: every copied point sits at distance zero from an original,
    so components and cycles die exactly when they died in A alone."""
    rng = np.random.default_rng(4)
    pts = rng.random((8, 2))
    a = PointCloud(pts)
    b = PointCloud(pts.copy())
    fp = build_rips_pair(a, b, r_max=1.5, k_max=2)
    for degree in (0, 1):
        bc = compute_mixup_barcode(fp, degree, clamp=1.5)
        assert total_mixup(bc) == 0.0


def test_interleaved_line_mixup_is_half():
    # A at even integers, B at the midpoints: every A-merge at distance 2
    # happens through B at distance 1, giving (d - d') / (d - b) = 1/2.
    a = PointCloud(np.array([[0.0], [2.0], [4.0]]))
    b = PointCloud(np.array([[1.0], [3.0]]))
    fp = build_rips_pair(a, b, r_max=5.0, k_max=1)
    bc = compute_mixup_barcode(fp, 0, clamp=5.0)
    finite = bc.values[bc.values[:, 2] != INF]
    assert finite.tolist() == [[0.0, 1.0, 2.0]] * 2
    assert total_mixup(bc) == 2.0
    assert total_mixup_percentage(bc) == 2 * 0.5


def labeled_blobs(gap):
    pts = np.array(
        [[0.0, 0.0], [0.3, 0.0], [0.0, 0.3], [gap, 0.0], [gap + 0.3, 0.0], [gap, 0.3]]
    )
    labels = np.array([0, 0, 0, 1, 1, 1])
    return LabeledPointCloud(PointCloud(pts), labels)


def test_pairwise_matrix_separated_blobs():
    cloud = labeled_blobs(gap=50.0)
    config = StatsConfig(r_max=60.0)
    labels, mats = pairwise_matrix(cloud, [0], config)
    mat = mats[0]
    assert labels == [0, 1]
    assert mat[0][0] == 0.0 and mat[1][1] == 0.0
    assert mat[0][1] == 0.0 and mat[1][0] == 0.0


def test_pairwise_matrix_interleaved_lines():
    pts = np.array([[0.0], [2.0], [4.0], [1.0], [3.0], [5.0]])
    labels = np.array([0, 0, 0, 1, 1, 1])
    cloud = LabeledPointCloud(PointCloud(pts), labels)
    config = StatsConfig(r_max=6.0)
    mat = pairwise_matrix(cloud, [0], config)[1][0]
    assert mat[0][1] > 0.0
    assert mat[1][0] > 0.0


def test_pairwise_needs_two_labels():
    pts = np.zeros((3, 2))
    cloud = LabeledPointCloud(PointCloud(pts), np.zeros(3, dtype=int))
    with pytest.raises(InputError):
        pairwise_matrix(cloud, [0], StatsConfig(r_max=1.0))


def test_pairwise_matrix_degree0_matches_builds_of_any_kmax():
    """The degree-0 build stops at edges; builds up to triangles and
    tetrahedra give the same matrix."""
    rng = np.random.default_rng(4)
    pts = rng.random((18, 2))
    labels = np.repeat([0, 1, 2], 6)
    config = StatsConfig(r_max=0.5)
    mat = pairwise_matrix(LabeledPointCloud(PointCloud(pts), labels), [0], config)[1][0]
    dist = pairwise_distances(pts)
    for k_max in (0, 1, 2):
        want = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                if i != j:
                    ids = np.r_[np.flatnonzero(labels == i), np.flatnonzero(labels == j)]
                    fp = rips_pair_from_distances(dist[np.ix_(ids, ids)], 6, 0.5, k_max)
                    want[i, j] = mean_mixup_percentage(compute_mixup_barcode(fp, 0, 0.5))
        assert np.array_equal(mat, want)


def test_interaction_barcode_matches_direct_build():
    rng = np.random.default_rng(9)
    pts = rng.random((9, 2))
    dist = pairwise_distances(pts)
    config = StatsConfig(r_max=0.8)
    bc = interaction_barcode(dist, 5, [0], config)[0]
    direct = build_rips_pair(
        PointCloud(pts[:5]), PointCloud(pts[5:]), r_max=0.8, k_max=1
    )
    want = compute_mixup_barcode(direct, 0, clamp=0.8)
    assert bc.values.tolist() == want.values.tolist()


def test_stats_config_validation():
    with pytest.raises(InputError):
        StatsConfig(r_max=-1.0)
    with pytest.raises(InputError):
        StatsConfig(r_max=1.0, subsample_a=0)
    with pytest.raises(InputError, match="profile aggregate must be 'total' or 'mean', got 'median'"):
        mixup_profile(drifting_series(0), [1], StatsConfig(r_max=1.0), aggregate="median")


def ring(n, radius=1.0, phase=0.0, shift=(0.0, 0.0)):
    th = np.linspace(0, 2 * np.pi, n, endpoint=False) + phase
    return np.c_[radius * np.cos(th) + shift[0], radius * np.sin(th) + shift[1]]


def entangled_step(shift):
    outer = ring(20)
    inner = ring(10, radius=0.8, phase=0.157, shift=shift)
    pts = np.vstack([outer, inner])
    labels = np.r_[np.zeros(20, dtype=int), np.ones(10, dtype=int)]
    return LabeledPointCloud(PointCloud(pts), labels)


def test_mixup_profile_decreases_when_pulled_apart():
    series = {
        (0, 0): entangled_step((0.0, 0.0)),
        (0, 1): entangled_step((9.0, 0.0)),
    }
    config = StatsConfig(r_max=3.0)
    layers, steps, grids = mixup_profile(series, [0], config)
    assert layers == (0,)
    assert steps == (0, 1)
    assert grids[0][0][0] > grids[0][0][1]
    assert grids[0][0][1] == 0.0


def test_mixup_profile_requires_full_grid():
    series = {
        (0, 0): entangled_step((0.0, 0.0)),
        (1, 1): entangled_step((9.0, 0.0)),
    }
    with pytest.raises(InputError, match="grid"):
        mixup_profile(series, [0], StatsConfig(r_max=3.0))


def test_mixup_profile_requires_matching_labels():
    good = entangled_step((0.0, 0.0))
    relabeled = LabeledPointCloud(good.cloud, good.labels[::-1].copy())
    series = {(0, 0): good, (0, 1): relabeled}
    with pytest.raises(InputError, match="label"):
        mixup_profile(series, [0], StatsConfig(r_max=3.0))


@pytest.mark.parametrize(
    "series_of,message",
    [
        (lambda c: {}, "profile needs a nonempty series"),
        (
            lambda c: {(0, 0): LabeledPointCloud(c.cloud, 0 * c.labels)},
            "profile needs at least two distinct labels",
        ),
        (
            lambda c: {(0, 0): c, (0, 1): LabeledPointCloud(c.cloud, 2 * c.labels)},
            "cloud at (0, 1) has a different label set",
        ),
        (
            lambda c: {(0, 0): c, (0, 1): LabeledPointCloud(PointCloud(c.cloud.points[1:]), c.labels[1:])},
            "cloud at (0, 1) has a different number of points",
        ),
    ],
    ids=["empty", "one label", "label set", "point count"],
)
def test_mixup_profile_rejects_an_inconsistent_series(series_of, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        mixup_profile(series_of(entangled_step((0.0, 0.0))), [0], StatsConfig(r_max=3.0))


def test_mixup_profile_subsamples_once_on_first_cloud():
    # A is each label's medoids and B the medoids of the other labels, both
    # chosen on the first cloud of the series and reused for every entry
    first = entangled_step((0.0, 0.0))
    noise = np.random.default_rng(21).normal(0.0, 0.1, first.cloud.points.shape)
    moved = LabeledPointCloud(PointCloud(first.cloud.points + noise), first.labels)
    series = {(0, 0): first, (0, 1): moved}
    config = StatsConfig(r_max=3.0, subsample_a=8, subsample_b=6)
    grid = mixup_profile(series, [1], config)[2][1]

    ref = pairwise_distances(first.cloud.points)

    def medoids(idx, k):
        return idx[k_medoids_indices(ref[np.ix_(idx, idx)], k)]

    for si, cloud in enumerate((first, moved)):
        dist = pairwise_distances(cloud.cloud.points)

        def percentage(lab):
            ids = np.r_[medoids(first.indices_of(lab), 8), medoids(first.indices_excluding(lab), 6)]
            return total_mixup_percentage(interaction_barcode(dist[np.ix_(ids, ids)], 8, [1], config)[1])

        want = max(percentage(lab) for lab in first.label_values)
        assert grid[0][si] == want
    assert grid.min() > 0.0


def trace_distance_blocks(monkeypatch):
    """Per distance_blocks call: (points, set sizes, rows of each matrix
    pairwise_distances computed for it). Each call is one decision between
    per-set blocks and the whole matrix; the contract is that it computes
    at most n^2 entries, exactly the sets' blocks when it picks blocks."""
    from mixbar import cloud, stats

    calls = []
    real_distances = cloud.pairwise_distances
    real_blocks = stats.distance_blocks

    def distances(pts, *rest):
        calls[-1][2].append(len(pts))
        return real_distances(pts, *rest)

    def blocks(points, metric, index_sets, *held):
        calls.append((len(points), [len(s) for s in index_sets], []))
        return real_blocks(points, metric, index_sets, *held)

    monkeypatch.setattr(cloud, "pairwise_distances", distances)
    monkeypatch.setattr(stats, "distance_blocks", blocks)
    return calls


def check_block_contract(calls):
    for n, sizes, rows in calls:
        assert sum(r * r for r in rows) <= n * n
        if rows != [n]:
            assert rows == sizes


def test_mixup_profile_computes_the_blocks_it_reads(monkeypatch):
    calls = trace_distance_blocks(monkeypatch)
    series = {
        (layer, step): entangled_step((3.0 * (layer + step), 0.0))
        for layer in (0, 1)
        for step in (0, 1, 2)
    }
    mixup_profile(series, [1], StatsConfig(r_max=3.0, subsample_a=8, subsample_b=6))
    check_block_contract(calls)
    # 30 points; k-medoids reads each label's 20 or 10 points and the other
    # 10 or 20: 2 * (20^2 + 10^2) > 30^2, so the whole reference matrix
    assert calls[0] == (30, [20, 10, 10, 20], [30])
    # each grid entry reads 8 A- and 6 B-medoids per label: 2 * 14^2 < 30^2
    assert calls[1:] == [(30, [14, 14], [14, 14])] * len(series)


def test_mixup_profile_degree0_computes_one_matrix_per_cloud(monkeypatch):
    # degree 0 subsamples nothing and reads every point per label
    calls = trace_distance_blocks(monkeypatch)
    series = {(0, step): entangled_step((3.0 * step, 0.0)) for step in (0, 1, 2)}
    mixup_profile(series, [0], StatsConfig(r_max=3.0))
    check_block_contract(calls)
    assert calls == [(30, [], [])] + [(30, [30, 30], [30])] * len(series)


def test_pairwise_matrix_degree1_blocks_stay_below_class_and_pair_sizes(monkeypatch):
    # four classes of 25; k-medoids reads each class once for both sizes,
    # and each (i, j) entry reads 10 A- and 5 B-medoids
    calls = trace_distance_blocks(monkeypatch)
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(100, 3)) + np.repeat(np.eye(4, 3) * 2.0, 25, axis=0)
    x = LabeledPointCloud(PointCloud(pts), np.repeat(np.arange(4), 25))
    pairwise_matrix(x, [1], StatsConfig(r_max=1.5, subsample_a=10, subsample_b=5))
    check_block_contract(calls)
    assert [rows for _, _, rows in calls] == [[25] * 4, [15] * 12]
    assert max(max(rows) for _, _, rows in calls) <= max(25, 10 + 5)


def whole_matrix_blocks(points, metric, index_sets, held=None):
    whole = pairwise_distances(points, metric)
    return ((whole[np.ix_(s, s)], [whole]) for s in index_sets)


def per_set_blocks(points, metric, index_sets, held=None):
    return ((pairwise_distances(points[s], metric), []) for s in index_sets)


def drifting_series(seed):
    """A 2 x 2 grid of three noisy rings of 14 points in R^3 that drift apart."""
    rng = np.random.default_rng(seed)
    labels = np.repeat([0, 1, 2], 14)
    circle = np.c_[np.tile(ring(14), (3, 1)), np.zeros(42)]
    drift = 0.5 * np.eye(3)[labels]
    return {
        (layer, step): LabeledPointCloud(
            PointCloud(circle + (layer + step) * drift + rng.normal(0, 0.05, (42, 3))), labels
        )
        for layer in (0, 1)
        for step in (0, 1)
    }


@pytest.mark.parametrize(
    "degree, sizes", [(0, (50, 50)), (1, (6, 3)), (1, (9, 10)), (1, (14, 28)), (1, (50, 50))]
)
def test_mixup_profile_is_the_same_from_blocks_or_whole_matrix(monkeypatch, degree, sizes):
    from mixbar import stats

    series = drifting_series(sum(sizes) + degree)
    config = StatsConfig(r_max=2.5, subsample_a=sizes[0], subsample_b=sizes[1])
    got = [mixup_profile(series, [degree], config)[2][degree]]
    for forced in (whole_matrix_blocks, per_set_blocks):
        monkeypatch.setattr(stats, "distance_blocks", forced)
        got.append(mixup_profile(series, [degree], config)[2][degree])
    assert got[0].max() > 0.0
    assert np.array_equal(got[0], got[1]) and np.array_equal(got[0], got[2])


@pytest.mark.parametrize("sizes", [(6, 3), (9, 5), (14, 14)])
def test_pairwise_matrix_is_the_same_from_blocks_or_whole_matrix(monkeypatch, sizes):
    from mixbar import stats

    x = drifting_series(7)[(0, 0)]
    config = StatsConfig(r_max=2.5, subsample_a=sizes[0], subsample_b=sizes[1])
    got = [pairwise_matrix(x, [1], config)[1][1]]
    for forced in (whole_matrix_blocks, per_set_blocks):
        monkeypatch.setattr(stats, "distance_blocks", forced)
        got.append(pairwise_matrix(x, [1], config)[1][1])
    assert got[0].max() > 0.0
    assert np.array_equal(got[0], got[1]) and np.array_equal(got[0], got[2])


@pytest.mark.parametrize("loop", ["_subsampled", "_interactions"])
def test_each_distance_block_is_dropped_before_the_next(loop, monkeypatch):
    """Two 900-point index sets of a 1,000-point cloud need more entries than
    the whole matrix, so it is formed once and both blocks are sliced from
    it. Each block is dropped before the next is formed: the peak is the
    whole matrix, one block and the runs of rows that form them, where
    holding two blocks would add 6.5 MB."""
    from mixbar import cloud, stats

    x = PointCloud(np.random.default_rng(0).normal(size=(1000, 3)))
    first, second = np.arange(900), np.arange(100, 1000)
    monkeypatch.setattr(stats, "k_medoids_indices", lambda dist, k: [0])
    monkeypatch.setattr(stats, "interaction_barcode", lambda dist, n_a, degrees, config, held: None)
    tracemalloc.start()
    try:
        if loop == "_subsampled":
            sizes = {"--subsample-a": 1}
            stats._subsampled(x, [1], [(first, sizes), (second, sizes)])
        else:
            pairs = [(first[:600], first[600:]), (second[:600], second[600:])]
            list(stats._interactions(x, pairs, [1], StatsConfig(r_max=1.0)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (1000**2 + 900**2) + 2 * cloud.BLOCK_BYTES


@pytest.mark.parametrize("clamp", [math.nan, math.inf, -math.inf])
def test_stats_config_rejects_non_finite_clamp(clamp):
    with pytest.raises(InputError, match="clamp must be a finite number"):
        StatsConfig(r_max=1.0, clamp=clamp)
