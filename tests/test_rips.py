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
from helpers import reference_rips, restrict_to_L


def unit_square():
    return PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))


def with_vertices(fp, dist, n_a, r_max, k_max):
    """The cells of fp, each with its vertex tuple from the reference
    construction, after checking that the two agree cell for cell."""
    cells, verts = reference_rips(dist, n_a, r_max, k_max)
    assert fp.cells == tuple(cells)
    return list(zip(fp.cells, verts))


def square_center_cells(fp):
    pts = np.vstack([unit_square().points, [[0.5, 0.5]]])
    return with_vertices(fp, pairwise_distances(pts), 4, 2.0, 2)


def test_square_center_cell_counts(square_center_pair):
    fp = square_center_pair
    # 5 vertices, C(5,2)=10 edges, C(5,3)=10 triangles, C(5,4)=5 tetrahedra
    assert fp.n == 30
    assert fp.l_cell_count() == 15
    assert fp.max_dim == 3


def test_vertices_precede_everything(square_center_pair):
    fp = square_center_pair
    first = fp.cells[:5]
    assert all(c.dim == 0 and c.value == 0.0 for c in first)
    # at equal value and dimension, subcomplex cells come before ambient ones
    assert [c.member for c in first] == ["L", "L", "L", "L", "K"]


def test_values_are_max_pairwise_distance(square_center_pair):
    d = pairwise_distances(np.vstack([unit_square().points, [[0.5, 0.5]]]))
    for c, vs in square_center_cells(square_center_pair):
        want = 0.0 if len(vs) == 1 else max(d[i, j] for i in vs for j in vs if i < j)
        assert c.value == want


def test_member_is_l_iff_all_vertices_from_a(square_center_pair):
    for c, vs in square_center_cells(square_center_pair):
        assert (c.member == "L") == all(v < 4 for v in vs)


def test_boundary_faces_are_facets(square_center_pair):
    cells = square_center_cells(square_center_pair)
    for c, vs in cells:
        assert len(c.boundary) == (0 if c.dim == 0 else c.dim + 1)
        for fid in c.boundary:
            face, face_vs = cells[fid - 1]
            assert face.dim == c.dim - 1
            assert set(face_vs) < set(vs)


def test_restriction_equals_building_a_alone():
    a = unit_square()
    b = PointCloud(np.array([[0.5, 0.5]]))
    pair = build_rips_pair(a, b, r_max=2.0, k_max=2)
    alone = build_rips_pair(a, None, r_max=2.0, k_max=2)
    sub = restrict_to_L(pair)
    # equal boundaries from the vertices up mean equal vertex sets
    got = [(c.dim, c.value, c.boundary) for c in sub.cells]
    want = [(c.dim, c.value, c.boundary) for c in alone.cells]
    assert got == want


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
    members = {vs: c.member for c, vs in with_vertices(fp, d, 2, 6.0, 1) if c.dim == 0}
    assert members == {(0,): "L", (1,): "L", (2,): "K"}


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
    """Cell for cell equal to the per-simplex construction: dim, value,
    member and boundary; and valid by every rule of validate(), which the
    build itself skips. r_max 0.5 is below every nonzero distance; a small
    budget splits each expansion step into runs of one or a few simplices,
    cutting their sibling lists apart."""
    points, n_a = cloud
    dist = pairwise_distances(np.array(points, dtype=float), metric)
    with mock.patch.object(mixbar.cloud, "BLOCK_BYTES", budget or mixbar.cloud.BLOCK_BYTES):
        fp = rips_pair_from_distances(dist, n_a, r_max, k_max)
    fp.validate()
    cells, _ = reference_rips(dist, n_a, r_max, k_max)
    assert fp.cells == tuple(cells)


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
