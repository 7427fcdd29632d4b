import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixbar import (
    INF,
    InputError,
    MixupBarcode,
    PointCloud,
    build_rips_pair,
    compute_mixup_barcode,
    mixup_barcode_indices,
    pairwise_distances,
    parse_explicit_pair,
)
from mixbar.reduction import _coboundary_pairs, merge_edges, reduce_columns
from mixbar.verify import random_explicit_instance
from helpers import boundaries, reference_degree, reference_reduce_columns

FILLED_TRIANGLE = """\
1 0 0.0 L
2 0 0.0 L
3 0 0.0 L
4 1 1.0 L 1 2
5 1 1.0 L 1 3
6 1 1.0 L 2 3
7 2 2.0 L 4 5 6
"""


def bitset(rows):
    """A column of the bitset reference reduction, reference_reduce_columns."""
    return sum(1 << r for r in rows)


def column(rows):
    """A column of reduce_columns: its rows ascending, the first the pivot."""
    return np.array(sorted(rows), dtype=np.int64)


def reduce_arrays(columns, fetched=None):
    """reduce_columns over (column id, column) pairs given up front, the ids
    of the columns it fetches appended to fetched."""
    cols = dict(columns)
    m = max((int(c[-1]) + 1 for c in cols.values() if len(c)), default=0)

    def fetch(cid):
        if fetched is not None:
            fetched.append(cid)
        return cols[cid]

    return reduce_columns(((cid, int(c[0]) if len(c) else -1) for cid, c in cols.items()), fetch, m)


def as_pairs(cols, killers):
    """A pass's result, aligned with its columns cols, as {column: killer}."""
    return {c: d for c, d in zip(cols, killers.tolist()) if d}


def test_reduce_filled_triangle_degree0():
    fp = parse_explicit_pair(FILLED_TRIANGLE)
    faces = boundaries(fp)
    edges = (np.flatnonzero(fp.dim == 1) + 1).tolist()
    # a column's pivot is its first row, so vertex v is row 3 - v and the
    # youngest end of an edge comes first
    pairs = reduce_arrays((e, column(3 - v for v in faces[e - 1])) for e in edges)
    pairs = {3 - row: e for row, e in pairs.items()}
    # column 6 = {2,3} reduces to zero through columns 4 and 5, so it owns
    # no pivot; the pivot rows are the younger vertices 2 and 3
    assert pairs == {2: 4, 3: 5}
    # union-find gives the same pairing
    assert as_pairs([1, 2, 3], merge_edges(fp, np.array([1, 2, 3]), np.array([4, 5, 6]))) == pairs


# Vertices of L (2, 3) and of K only (1, 4), so the image order 2, 3, 1, 4
# is not the filtration order; edge 7 has no ends and edge 8 one.
MIXED_VERTICES = """\
1 0 0 K
2 0 0 L
3 0 0 L
4 0 0 K
5 1 1 K 1 2
6 1 1 L 2 3
7 1 1 K
8 1 1 K 4
9 1 2 K 3 4
10 1 2 K 1 4
"""


@pytest.mark.parametrize(
    "cols,rows,pairing",
    [
        # the K pass: every vertex in image order, every edge
        ([2, 3, 1, 4], [5, 6, 7, 8, 9, 10], {1: 5, 3: 6, 4: 8, 2: 9}),
        # the L pass: the L vertices and the L edge
        ([2, 3], [6], {3: 6}),
    ],
)
def test_merge_edges_matches_reference_reduction(cols, rows, pairing):
    """Union-find over the edges rows pairs as the reduced boundary matrix
    whose rows are the vertices cols in the order given (a vertex's row is
    its place in cols, the latest the highest) and whose columns are the
    edges rows; an edge's one end is a column with one row."""
    fp = parse_explicit_pair(MIXED_VERTICES)
    place = {v: i for i, v in enumerate(cols)}
    faces = boundaries(fp)
    pairs, _ = reference_reduce_columns((e, bitset(place[v] for v in faces[e - 1])) for e in rows)
    assert {cols[p]: e for p, e in pairs.items()} == pairing
    assert as_pairs(cols, merge_edges(fp, np.array(cols), np.array(rows))) == pairing


def test_reduce_keeps_input_intact():
    """Columns are views of one array in a pass, so a reduction must leave
    every column it reads as it was."""
    columns = [(1, column([0, 2])), (2, column([0, 2])), (3, column([1, 2])), (4, column([0, 1]))]
    before = [(cid, col.copy()) for cid, col in columns]
    assert reduce_arrays(columns) == {0: 1, 1: 3}
    for (cid, col), (_, was) in zip(columns, before):
        assert np.array_equal(col, was), cid


def test_six_cell_triples(six_cell_pair):
    triples = mixup_barcode_indices(six_cell_pair, 1)
    assert triples.dtype == np.float64
    assert triples.tolist() == [[1, 4, 6], [2, 3, 5]]


def test_six_cell_values(six_cell_pair):
    vals = compute_mixup_barcode(six_cell_pair, 1).values
    assert vals.tolist() == [[1.0, 4.0, 6.0], [2.0, 3.0, 5.0]]


def test_square_center_degree0(square_center_pair):
    vals = compute_mixup_barcode(square_center_pair, 0).values
    assert vals[vals[:, 2] != INF].tolist() == [[0.0, 0.7071067811865476, 1.0]] * 3
    assert vals[vals[:, 2] == INF].tolist() == [[0.0, INF, INF]]


def test_square_center_degree1(square_center_pair):
    vals = compute_mixup_barcode(square_center_pair, 1).values
    assert vals[vals[:, 2] > vals[:, 0]].tolist() == [[1.0, 1.0, 1.4142135623730951]]
    # the two diagonal edges create loops that fill instantly
    assert (vals[:, 2] == vals[:, 0]).sum() == 2


def test_degree_out_of_range(six_cell_pair):
    """A degree past the dimension of the complex gives no triples and an
    empty barcode; only a negative degree raises."""
    vertices_only = build_rips_pair(
        PointCloud(np.array([[0.0, 0.0], [5.0, 0.0]])), PointCloud(np.array([[0.0, 5.0]])),
        r_max=1.0, k_max=2,
    )
    assert vertices_only.max_dim == 0
    for fp, k in [(six_cell_pair, 3), (six_cell_pair, 7), (parse_explicit_pair(""), 0),
                  (parse_explicit_pair(""), 2), (vertices_only, 1), (vertices_only, 3)]:
        assert mixup_barcode_indices(fp, k).shape == (0, 3)
        bc = compute_mixup_barcode(fp, k, clamp=1.0)
        assert bc.index_triples.shape == bc.values.shape == (0, 3)
        with pytest.raises(InputError, match="degree must be non-negative, got -1"):
            mixup_barcode_indices(fp, -1)
        with pytest.raises(InputError, match="degree must be non-negative"):
            compute_mixup_barcode(fp, -2, clamp=1.0)


def test_degree_past_the_complex_runs_no_pass(six_cell_pair, monkeypatch):
    """A degree past the dimension of the complex is answered before the
    chain: no pairing pass runs, however large the degree."""
    from mixbar import reduction

    def no_pass(*args):
        raise AssertionError("a pairing pass ran")

    monkeypatch.setattr(reduction, "merge_edges", no_pass)
    monkeypatch.setattr(reduction, "_coboundary_pairs", no_pass)
    assert mixup_barcode_indices(six_cell_pair, 10**6).shape == (0, 3)
    assert compute_mixup_barcode(six_cell_pair, 10**6, clamp=1.0).index_triples.shape == (0, 3)


def test_triple_ordering_enforced():
    # value triples enter through a barcode's rows, each of them checked
    for row in [(3, 2, 4), (0.0, 2.0, 1.0), (0.0, float("nan"), 1.0)]:
        with pytest.raises(InputError, match="triple out of order"):
            MixupBarcode(1, np.empty((0, 3)), [(0.0, 1.0, 2.0), row, (1.0, 1.0, 1.0)], clamp=5.0)
        with pytest.raises(InputError, match="triple out of order"):
            MixupBarcode(1, np.empty((0, 3)), [row], clamp=5.0)


def test_infinite_deaths_allowed():
    bc = MixupBarcode(0, np.array([[1, INF, INF]]), [(0.0, INF, INF)], clamp=1.0)
    assert bc.index_triples.tolist() == [[1, INF, INF]]
    assert bc.values.tolist() == [[0.0, INF, INF]]


def _dense_rank_gf2(cols, n_rows):
    m = np.zeros((n_rows, len(cols)), dtype=np.uint8)
    for j, col in enumerate(cols):
        for i in col:
            m[i, j] = 1
    rank = 0
    for j in range(m.shape[1]):
        rows = np.nonzero(m[rank:, j])[0]
        if rows.size == 0:
            continue
        p = rank + rows[0]
        m[[rank, p]] = m[[p, rank]]
        hit = np.nonzero(m[:, j])[0]
        hit = hit[hit != rank]
        m[hit] ^= m[rank]
        rank += 1
    return rank


def test_reduced_pivots_match_dense_rank():
    """Pivot count equals matrix rank; a second route through plain
    elimination over the integers mod 2."""

    def pairs_at_rank(n_rows, cols, fetched=None):
        pairs = reduce_arrays(((j + 1, column(c)) for j, c in enumerate(cols)), fetched)
        assert len(pairs) == _dense_rank_gf2(cols, n_rows)
        # pivots are unique per row by construction
        assert len(set(pairs.values())) == len(pairs)
        return pairs

    # the last column cancels to zero only after two additions: {0, 2} + {0, 1}
    # leaves {1, 2}, and + {1, 2} leaves nothing
    fetched = []
    assert pairs_at_rank(3, [[0, 1], [1, 2], [0, 2]], fetched) == {0: 1, 1: 2}
    assert fetched == [3, 1, 2]
    rng = np.random.default_rng(11)
    for _ in range(25):
        n_rows = int(rng.integers(1, 10))
        pairs_at_rank(n_rows, [np.flatnonzero(rng.random(n_rows) < 0.4).tolist() for _ in range(rng.integers(1, 10))])


def test_a_stored_column_holds_each_row_once():
    """A column that absorbs others is stored with each row left set once.
    Here column c_k absorbs the stored column of row 2k - 2 and the column
    b_k, and all three hold the last row t, so t is set again in every
    stored column; kept with its repeats, the k-th stored column would hold
    t 2k + 1 times, n^2 entries in all, where once each they hold 2n."""
    n = 1000
    t = 2 * n + 1
    columns = [("s", column([0, t]))]
    for k in range(1, n + 1):
        columns += [(("b", k), column([2 * k - 1, t])), (("c", k), column([2 * k - 2, 2 * k - 1, 2 * k, t]))]
    tracemalloc.start()
    try:
        pairs = reduce_arrays(columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pairs[2 * n] == ("c", n)
    # 0.37 MB with each row once; 8.4 MB in a copy that kept the repeats
    assert peak <= 1_000_000, peak


def test_reduction_pivot_is_earliest_row():
    """A column's pivot is its first row, the lowest; bitset columns took
    the highest set bit instead, so a pass now numbers a column's rows with
    its earliest coface first rather than last."""
    pairs = reduce_arrays([(1, column([0, 2])), (2, column([0, 2]))])
    assert pairs == {0: 1}


def test_reduce_builds_only_colliding_columns():
    """A column whose first pivot is unclaimed is never fetched; a collision
    fetches the column and the owner it absorbs, and an owner that has been
    added to is absorbed as reduced, without a fetch."""
    columns = [(1, column([0, 3])), (2, column([1, 2])), (3, column([0, 2])), (4, column([2, 3])), (5, column([]))]
    fetched = []
    # column 3 absorbs column 1 and claims row 2 as {2, 3}; column 4 then
    # absorbs that reduced column and is zero, as column 5 is from the start:
    # neither owns a pivot
    assert reduce_arrays(columns, fetched) == {0: 1, 1: 2, 2: 3}
    assert fetched == [3, 1, 4]


@st.composite
def rips_pairs(draw):
    """Rips pairs in R^2 or R^10 with up to 60 points, some with tied
    distances, some with B empty (L = K)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.sampled_from([2, 10]))
    n_a = draw(st.integers(2, 48))
    n_b = draw(st.integers(0, 12))
    pts = rng.random((n_a + n_b, dim))
    if draw(st.booleans()):
        pts = np.round(pts, 1)
    upper = pairwise_distances(pts)[np.triu_indices(len(pts), 1)]
    # rounding can make every drawn distance 0, which is no valid r_max
    r_max = float(np.quantile(upper, draw(st.floats(0.02, 0.35)))) or 1.0
    b = PointCloud(pts[n_a:]) if n_b else None
    return build_rips_pair(PointCloud(pts[:n_a]), b, r_max=r_max, k_max=3)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@settings(max_examples=60, deadline=None)
@given(rips_pairs())
def test_matches_boundary_reduction_on_rips(k, fp):
    if fp.max_dim >= k:
        assert np.array_equal(mixup_barcode_indices(fp, k), reference_degree(fp, k))


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_matches_boundary_reduction_on_explicit(k, seed):
    fp = random_explicit_instance(np.random.default_rng(seed))
    if fp.max_dim >= k:
        assert np.array_equal(mixup_barcode_indices(fp, k), reference_degree(fp, k))


EDGE_CASES = {
    # no 2-cells: every L-loop lives forever
    "no_2_cells": "1 0 0 L\n2 0 0 L\n3 0 0 K\n4 1 1 L 1 2\n5 1 1 L 1 2\n6 1 2 K 2 3\n7 1 2 K 1 3\n",
    # no 1-cells: a 2-cell with an empty boundary
    "no_1_cells": "1 0 0 L\n2 2 1 L\n",
    # L = K: a filled square with a diagonal, 1-cells without vertices
    "l_is_k": (
        "1 0 0 L\n2 0 0 L\n3 0 0 L\n4 0 0 L\n5 1 1 L 1 2\n6 1 1 L 2 3\n"
        "7 1 1 L 3 4\n8 1 1 L 1 4\n9 1 2 L 1 3\n10 1 2 L\n11 2 3 L 5 6 9\n"
        "12 2 3 L 7 8 9\n13 2 4 L 10\n"
    ),
    # L empty: every cell is ambient-only
    "empty_l": "1 0 0 K\n2 0 0 K\n3 1 1 K 1 2\n4 1 1 K 1 2\n5 2 2 K 3 4\n",
    # no ambient-only 2-cells: L-loops die only in L
    "no_ambient_2_cells": (
        "1 0 0 L\n2 0 0 L\n3 0 0 K\n4 1 1 L 1 2\n5 1 1 L 1 2\n6 1 1 K 1 3\n"
        "7 1 1 K 2 3\n8 2 2 L 4 5\n"
    ),
    # an L hollow tetrahedron filled by an ambient-only 3-cell (surrounding)
    "hollow_tetrahedron": (
        "1 0 0 L\n2 0 0 L\n3 0 0 L\n4 0 0 L\n5 1 1 L 1 2\n6 1 1 L 1 3\n"
        "7 1 1 L 1 4\n8 1 1 L 2 3\n9 1 1 L 2 4\n10 1 1 L 3 4\n11 2 2 L 5 6 8\n"
        "12 2 2 L 5 7 9\n13 2 2 L 6 7 10\n14 2 2 L 8 9 10\n15 3 3 K 11 12 13 14\n"
    ),
    # a square 2-cell bounded by four 1-cells
    "square_2_cell": (
        "1 0 0 L\n2 0 0 L\n3 0 0 L\n4 0 0 L\n5 1 1 L 1 2\n6 1 1 L 2 3\n"
        "7 1 1 L 3 4\n8 1 1 L 1 4\n9 2 2 K 5 6 7 8\n"
    ),
}


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_matches_boundary_reduction_on_edge_cases(name, k):
    fp = parse_explicit_pair(EDGE_CASES[name])
    if fp.max_dim >= k:
        assert np.array_equal(mixup_barcode_indices(fp, k), reference_degree(fp, k))


@pytest.mark.parametrize(
    "cols,cofaces,pairing",
    [
        # edges in non-ascending id order, each in two of the four triangles,
        # whose boundaries sum to zero: rank 3
        ([7, 5, 10, 6, 9, 8], [11, 12, 13, 14], {8: 11, 9: 12, 6: 13}),
        # edge 7 lies in no coface
        ([5, 6, 7, 8, 9, 10], [14, 11], {10: 14, 8: 11}),
        # a single coface
        ([12, 14, 11, 13], [15], {13: 15}),
    ],
)
def test_coboundary_pass_matches_reference_reduction(cols, cofaces, pairing):
    """A pass reduces the columns cols from last to first, each column's
    rows being its cofaces with the earliest the highest: the pairing of
    every column built up front and reduced by reference_reduce_columns."""
    fp = parse_explicit_pair(EDGE_CASES["hollow_tetrahedron"])
    m = len(cofaces)
    faces = boundaries(fp)
    rows = {c: [m - 1 - r for r, f in enumerate(cofaces) if c in faces[f - 1]] for c in cols}
    pairs, _ = reference_reduce_columns((c, bitset(rows[c])) for c in reversed(cols))
    assert {c: cofaces[m - 1 - p] for p, c in pairs.items()} == pairing
    assert as_pairs(cols, _coboundary_pairs(fp, np.array(cols), np.array(cofaces))) == pairing
