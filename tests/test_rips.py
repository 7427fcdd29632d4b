import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mixbar.cloud
from mixbar import InputError, PointCloud, build_rips_pair, pairwise_distances, rips_pair_from_distances
from mixbar.cloud import METRICS
from mixbar.filtration import FilteredPair
from mixbar import rips
from helpers import boundaries, reference_rips, restrict_to_L


def unit_square():
    return PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))


def vertices(fp, dist, n_a, r_max, k_max):
    """The vertex tuple of each cell of fp from the reference construction,
    after checking that the two pairs are equal."""
    pair, verts = reference_rips(dist, n_a, r_max, k_max)
    assert fp == pair
    return verts


def square_center_vertices(fp):
    pts = np.vstack([unit_square().points, [[0.5, 0.5]]])
    return vertices(fp, pairwise_distances(pts), 4, 2.0, 2)


def test_square_center_cell_counts(square_center_pair):
    fp = square_center_pair
    # 5 vertices, C(5,2)=10 edges, C(5,3)=10 triangles, C(5,4)=5 tetrahedra
    assert fp.n == 30
    assert int(fp.in_l.sum()) == 15
    assert fp.max_dim == 3


def test_vertices_precede_everything(square_center_pair):
    fp = square_center_pair
    assert (fp.dim[:5] == 0).all() and (fp.value[:5] == 0.0).all()
    # at equal value and dimension, subcomplex cells come before ambient ones
    assert fp.in_l[:5].tolist() == [True, True, True, True, False]


def test_values_are_max_pairwise_distance(square_center_pair):
    fp = square_center_pair
    d = pairwise_distances(np.vstack([unit_square().points, [[0.5, 0.5]]]))
    for value, vs in zip(fp.value.tolist(), square_center_vertices(fp)):
        want = 0.0 if len(vs) == 1 else max(d[i, j] for i in vs for j in vs if i < j)
        assert value == want


def test_member_is_l_iff_all_vertices_from_a(square_center_pair):
    fp = square_center_pair
    for in_l, vs in zip(fp.in_l.tolist(), square_center_vertices(fp)):
        assert in_l == all(v < 4 for v in vs)


def test_boundary_faces_are_facets(square_center_pair):
    fp = square_center_pair
    verts = square_center_vertices(fp)
    dim = fp.dim.tolist()
    for d, faces, vs in zip(dim, boundaries(fp), verts):
        assert len(faces) == (0 if d == 0 else d + 1)
        for fid in faces:
            assert dim[fid - 1] == d - 1
            assert set(verts[fid - 1]) < set(vs)


def test_restriction_equals_building_a_alone():
    a = unit_square()
    b = PointCloud(np.array([[0.5, 0.5]]))
    pair = build_rips_pair(a, b, r_max=2.0, k_max=2)
    alone = build_rips_pair(a, None, r_max=2.0, k_max=2)
    # equal boundaries from the vertices up mean equal vertex sets
    assert restrict_to_L(pair) == alone


def test_r_max_is_inclusive():
    pts = PointCloud(np.array([[0.0], [1.0]]))
    fp = build_rips_pair(pts, None, r_max=1.0, k_max=1)
    assert fp.n == 3  # two vertices plus the edge at exactly r_max
    tight = build_rips_pair(pts, None, r_max=0.999, k_max=1)
    assert tight.n == 2


def test_k_max_caps_dimension():
    fp = build_rips_pair(unit_square(), None, r_max=2.0, k_max=0)
    assert fp.max_dim == 1


@pytest.mark.parametrize("limit, counted", [(14, 15), (24, 25), (29, 30)])
def test_cell_budget_stops_the_build(monkeypatch, limit, counted):
    # square + center up to tetrahedra: 5 vertices, 10 edges, 10 triangles,
    # 5 tetrahedra; the count is charged at 950 bytes a cell with the 5 x 5
    # matrix at 9 bytes an entry, after the edges and each layer
    a = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    b = PointCloud(np.array([[0.5, 0.5]]))
    budget = 9 * 5**2 + 950 * limit
    monkeypatch.setattr(mixbar.cloud, "MAX_MATRIX_BYTES", budget)
    with pytest.raises(InputError) as err:
        build_rips_pair(a, b, r_max=2.0, k_max=2)
    assert str(err.value) == (
        f"the Rips build of 5 points and {counted} cells counted so far is over the budget "
        f"of {budget:,} bytes (mixbar.cloud.MAX_MATRIX_BYTES); lower --rmax or --kmax"
    )
    monkeypatch.setattr(mixbar.cloud, "MAX_MATRIX_BYTES", 9 * 5**2 + 950 * 30)
    assert build_rips_pair(a, b, r_max=2.0, k_max=2).n == 30


def test_deterministic_construction():
    rng = np.random.default_rng(3)
    a = PointCloud(rng.random((7, 3)))
    b = PointCloud(rng.random((3, 3)))
    one = build_rips_pair(a, b, r_max=0.9, k_max=2)
    two = build_rips_pair(a, b, r_max=0.9, k_max=2)
    assert one == two


def test_empty_a_rejected():
    with pytest.raises(InputError):
        build_rips_pair(PointCloud(np.zeros((0, 2))), None, r_max=1.0, k_max=1)


def test_metric_mismatch_rejected():
    a = PointCloud(np.zeros((2, 2)), metric="euclidean")
    b = PointCloud(np.ones((1, 2)), metric="sqeuclidean")
    with pytest.raises(InputError):
        build_rips_pair(a, b, r_max=1.0, k_max=1)


def test_dimension_mismatch_rejected():
    a = PointCloud(np.zeros((2, 2)))
    b = PointCloud(np.ones((1, 3)))
    with pytest.raises(InputError):
        build_rips_pair(a, b, r_max=1.0, k_max=1)


def test_from_distances_split():
    d = np.array(
        [[0.0, 1.0, 5.0], [1.0, 0.0, 5.0], [5.0, 5.0, 0.0]]
    )
    fp = rips_pair_from_distances(d, 2, r_max=6.0, k_max=1)
    verts = vertices(fp, d, 2, 6.0, 1)
    assert {verts[i]: bool(fp.in_l[i]) for i in np.flatnonzero(fp.dim == 0)} == {
        (0,): True, (1,): True, (2,): False
    }


def test_from_distances_validates_split():
    d = np.zeros((2, 2))
    with pytest.raises(InputError):
        rips_pair_from_distances(d, 0, r_max=1.0, k_max=1)
    with pytest.raises(InputError):
        rips_pair_from_distances(d, 3, r_max=1.0, k_max=1)


@pytest.mark.parametrize(
    "dist,message",
    [
        ([[0.0, 1.0], [2.0, 0.0]], "not symmetric"),
        ([[0.0, -1.0], [-1.0, 0.0]], "negative"),
        ([[0.5, 1.0], [1.0, 0.0]], "nonzero diagonal"),
        ([[0.0, np.inf], [np.inf, 0.0]], "non-finite"),
        ([[0.0, 1.0]], "square"),
    ],
)
def test_from_distances_rejects_invalid_matrix(dist, message):
    with pytest.raises(InputError, match=message):
        rips_pair_from_distances(np.array(dist), 1, r_max=1.0, k_max=1)


def test_negative_r_max_rejected():
    with pytest.raises(InputError):
        build_rips_pair(unit_square(), None, r_max=-1.0, k_max=1)


# Points on a coarse grid, so that duplicates and tied distances are common.
grid_clouds = st.integers(1, 9).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(st.integers(0, 2), min_size=2, max_size=2), min_size=n, max_size=n),
        st.integers(1, n),
    )
)


@settings(max_examples=150, deadline=None)
@given(
    grid_clouds,
    st.sampled_from(METRICS),
    st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
    st.integers(0, 3),
    st.sampled_from([None, 1, 5, 64]),
)
def test_array_build_matches_reference(cloud, metric, r_max, k_max, budget):
    """Equal to the per-simplex construction, array for array: dim, value,
    L mask and boundaries; and valid by every rule of validate(), which the
    build itself skips. r_max 0.5 is below every nonzero distance; a small
    budget splits each expansion step into runs of one or a few simplices,
    cutting their sibling lists apart."""
    points, n_a = cloud
    dist = pairwise_distances(np.array(points, dtype=float), metric)
    with mock.patch.object(mixbar.cloud, "BLOCK_BYTES", budget or mixbar.cloud.BLOCK_BYTES):
        fp = rips_pair_from_distances(dist, n_a, r_max, k_max)
    fp.validate()
    assert fp == reference_rips(dist, n_a, r_max, k_max)[0]


def test_a_build_is_not_validated_again(monkeypatch):
    """A Rips build meets validate()'s rules by construction, so it is
    handed to FilteredPair without the check; its arrays are read-only as
    a checked pair's are."""
    monkeypatch.setattr(FilteredPair, "validate", mock.Mock(side_effect=AssertionError("validated")))
    fp = build_rips_pair(unit_square(), PointCloud(np.array([[0.5, 0.5]])), r_max=2.0, k_max=2)
    assert fp.n == 30
    for a in (fp.dim, fp.value, fp.in_l, fp.indptr, fp.indices):
        assert not a.flags.writeable


def test_rips_mask_is_formed_within_the_matrix_budget():
    """The edge mask takes one byte per entry: the diagonal and below are
    cleared in runs of rows, so with runs of a sixteenth of the matrix a
    build's tracemalloc peak stays within the mask plus two runs, where a
    whole np.triu mask would take three bytes per entry."""
    n = 2000
    dist = pairwise_distances(np.random.default_rng(0).random((n, 2)))
    block_bytes = n * n // 16
    with mock.patch.object(mixbar.cloud, "BLOCK_BYTES", block_bytes):
        tracemalloc.start()
        try:
            fp = rips_pair_from_distances(dist, n // 2, 0.002, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert fp.n > n  # some edges
    assert peak <= n * n + 2 * block_bytes
