import math

import numpy as np
import pytest

from mixbar import (
    INF,
    InputError,
    LabeledPointCloud,
    MixupTriple,
    PointCloud,
    MixupBarcode,
    StatsConfig,
    build_rips_pair,
    compute_mixup_barcode,
    k_medoids_indices,
    mixup_percentage,
    mixup_profile,
    pairwise_distances,
    pairwise_matrix,
    rips_pair_from_distances,
    total_mixup,
)
from mixbar.stats import (
    clamp_triple,
    interaction_barcode,
    mean_mixup_percentage,
    total_image_persistence,
    total_mixup_percentage,
    total_persistence,
)


def vt(b, dp, d):
    return MixupTriple(birth=b, death_image=dp, death=d)


def test_six_cell_statistics(six_cell_pair):
    bc = compute_mixup_barcode(six_cell_pair, 1, clamp=6.0)
    assert total_mixup(bc) == 4.0
    assert total_persistence(bc) == 8.0
    assert total_image_persistence(bc) == 4.0
    # per-bar ratios 2/5 and 2/3
    assert total_mixup_percentage(bc) == 1.0666666666666667
    assert mean_mixup_percentage(bc) == 0.5333333333333333


def test_mixup_and_percentage():
    t = vt(1.0, 3.0, 5.0)
    assert total_mixup(MixupBarcode(1, (), (t,))) == 2.0
    assert mixup_percentage(t) == 0.5


def test_degree_above_dimension_gives_empty_barcode(six_cell_pair):
    bc = compute_mixup_barcode(six_cell_pair, 3, clamp=6.0)
    assert bc.triples == () and bc.index_triples == ()
    assert total_mixup(bc) == 0.0


def test_percentage_rejects_zero_persistence():
    with pytest.raises(InputError):
        mixup_percentage(vt(2.0, 2.0, 2.0))


def test_clamp_truncates_both_deaths():
    t = clamp_triple(vt(1.0, 3.0, 5.0), 2.5)
    assert (t.death_image, t.death) == (2.5, 2.5)
    u = clamp_triple(vt(1.0, 3.0, 5.0), 4.0)
    assert (u.death_image, u.death) == (3.0, 4.0)


def test_clamp_floors_at_birth():
    t = clamp_triple(vt(2.0, 3.0, 4.0), 1.0)
    assert (t.birth, t.death_image, t.death) == (2.0, 2.0, 2.0)
    assert t.zero_persistence


def test_clamp_resolves_infinite_deaths():
    t = clamp_triple(vt(0.0, INF, INF), 7.0)
    assert (t.death_image, t.death) == (7.0, 7.0)


def test_infinite_death_needs_clamp():
    with pytest.raises(InputError, match="clamp"):
        clamp_triple(vt(0.0, 1.0, INF), None)
    assert total_mixup(MixupBarcode(1, (), (vt(0.0, 1.0, INF),), clamp=3.0)) == 2.0


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
    assert bc.triples == ()
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
    finite = [t for t in bc.triples if t.death != INF]
    assert len(finite) == 2
    for t in finite:
        assert (t.death_image, t.death) == (1.0, 2.0)
        assert mixup_percentage(t) == 0.5
    assert total_mixup(bc) == 2.0


def labeled_blobs(gap):
    pts = np.array(
        [[0.0, 0.0], [0.3, 0.0], [0.0, 0.3], [gap, 0.0], [gap + 0.3, 0.0], [gap, 0.3]]
    )
    labels = np.array([0, 0, 0, 1, 1, 1])
    return LabeledPointCloud(PointCloud(pts), labels)


def test_pairwise_matrix_separated_blobs():
    cloud = labeled_blobs(gap=50.0)
    config = StatsConfig(r_max=60.0)
    labels, mat = pairwise_matrix(cloud, 0, config)
    assert labels == [0, 1]
    assert mat[0][0] == 0.0 and mat[1][1] == 0.0
    assert mat[0][1] == 0.0 and mat[1][0] == 0.0


def test_pairwise_matrix_interleaved_lines():
    pts = np.array([[0.0], [2.0], [4.0], [1.0], [3.0], [5.0]])
    labels = np.array([0, 0, 0, 1, 1, 1])
    cloud = LabeledPointCloud(PointCloud(pts), labels)
    config = StatsConfig(r_max=6.0)
    _, mat = pairwise_matrix(cloud, 0, config)
    assert mat[0][1] > 0.0
    assert mat[1][0] > 0.0


def test_pairwise_needs_two_labels():
    pts = np.zeros((3, 2))
    cloud = LabeledPointCloud(PointCloud(pts), np.zeros(3, dtype=int))
    with pytest.raises(InputError):
        pairwise_matrix(cloud, 0, StatsConfig(r_max=1.0))


def test_pairwise_matrix_degree0_matches_builds_of_any_kmax():
    """The degree-0 build stops at edges; builds up to triangles and
    tetrahedra give the same matrix."""
    rng = np.random.default_rng(4)
    pts = rng.random((18, 2))
    labels = np.repeat([0, 1, 2], 6)
    config = StatsConfig(r_max=0.5)
    _, mat = pairwise_matrix(LabeledPointCloud(PointCloud(pts), labels), 0, config)
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
    bc = interaction_barcode(dist, np.arange(5), np.arange(5, 9), 0, config)
    direct = build_rips_pair(
        PointCloud(pts[:5]), PointCloud(pts[5:]), r_max=0.8, k_max=1
    )
    want = compute_mixup_barcode(direct, 0, clamp=0.8)
    assert [
        (t.birth, t.death_image, t.death) for t in bc.triples
    ] == [(t.birth, t.death_image, t.death) for t in want.triples]


def test_stats_config_validation():
    with pytest.raises(InputError):
        StatsConfig(r_max=-1.0)
    with pytest.raises(InputError):
        StatsConfig(r_max=1.0, subsample_a=0)
    with pytest.raises(InputError):
        StatsConfig(r_max=1.0, profile_aggregate="median")
    config = StatsConfig(r_max=1.0)
    assert config.effective_clamp() == 1.0


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
    prof = mixup_profile(series, 0, config)
    assert prof.layers == (0,)
    assert prof.steps == (0, 1)
    assert prof.values[0][0] > prof.values[0][1]
    assert prof.values[0][1] == 0.0


def test_mixup_profile_requires_full_grid():
    series = {
        (0, 0): entangled_step((0.0, 0.0)),
        (1, 1): entangled_step((9.0, 0.0)),
    }
    with pytest.raises(InputError, match="grid"):
        mixup_profile(series, 0, StatsConfig(r_max=3.0))


def test_mixup_profile_requires_matching_labels():
    good = entangled_step((0.0, 0.0))
    relabeled = LabeledPointCloud(good.cloud, good.labels[::-1].copy())
    series = {(0, 0): good, (0, 1): relabeled}
    with pytest.raises(InputError, match="label"):
        mixup_profile(series, 0, StatsConfig(r_max=3.0))


def test_mixup_profile_subsamples_once_on_first_cloud():
    # A is each label's medoids and B the medoids of the other labels, both
    # chosen on the first cloud of the series and reused for every entry
    first = entangled_step((0.0, 0.0))
    noise = np.random.default_rng(21).normal(0.0, 0.1, first.cloud.points.shape)
    moved = LabeledPointCloud(PointCloud(first.cloud.points + noise), first.labels)
    series = {(0, 0): first, (0, 1): moved}
    config = StatsConfig(r_max=3.0, subsample_a=8, subsample_b=6)
    prof = mixup_profile(series, 1, config)

    ref = first.cloud.distance_matrix()

    def medoids(idx, k):
        return idx[k_medoids_indices(ref[np.ix_(idx, idx)], k)]

    for si, cloud in enumerate((first, moved)):
        dist = cloud.cloud.distance_matrix()
        want = max(
            total_mixup_percentage(
                interaction_barcode(
                    dist,
                    medoids(first.indices_of(lab), 8),
                    medoids(first.indices_excluding(lab), 6),
                    1,
                    config,
                )
            )
            for lab in first.label_values
        )
        assert prof.values[0][si] == want
    assert prof.values.min() > 0.0


def test_mixup_profile_computes_one_distance_matrix_per_cloud(monkeypatch):
    from mixbar import cloud

    calls = []
    real = cloud.pairwise_distances
    monkeypatch.setattr(
        cloud, "pairwise_distances", lambda *args: calls.append(args) or real(*args)
    )
    series = {
        (layer, step): entangled_step((3.0 * (layer + step), 0.0))
        for layer in (0, 1)
        for step in (0, 1, 2)
    }
    mixup_profile(series, 1, StatsConfig(r_max=3.0, subsample_a=8, subsample_b=6))
    assert len(calls) == len(series)


@pytest.mark.parametrize("clamp", [math.nan, math.inf, -math.inf])
def test_stats_config_rejects_non_finite_clamp(clamp):
    with pytest.raises(InputError, match="clamp must be a finite number"):
        StatsConfig(r_max=1.0, clamp=clamp)
