import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixbar import (
    INF,
    InputError,
    MixupBarcode,
    MixupTriple,
    PointCloud,
    build_rips_pair,
    compute_mixup_barcode,
    mixup_barcode_indices,
    mixup_percentage,
    pairwise_distances,
    parse_explicit_pair,
)
from mixbar.reduction import _coboundary_pairs, merge_edges, reduce_columns
from mixbar.verify import random_explicit_instance
from helpers import reference_degree, reference_reduce_columns

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
    return sum(1 << r for r in rows)


def reduce_bitsets(columns):
    """reduce_columns over (column id, bitset) pairs given up front."""
    cols = dict(columns)
    return reduce_columns(((cid, col.bit_length() - 1) for cid, col in cols.items()), cols.get)


def test_reduce_filled_triangle_degree0():
    fp = parse_explicit_pair(FILLED_TRIANGLE)
    edges = [c for c in fp.cells if c.dim == 1]
    pairs = reduce_bitsets((e.id, bitset(e.boundary)) for e in edges)
    # column 6 = {2,3} reduces to zero through columns 4 and 5, so it owns
    # no pivot; the pivot rows are the younger vertices 2 and 3
    assert pairs == {2: 4, 3: 5}
    # union-find gives the same pairing
    assert merge_edges(fp, np.array([1, 2, 3]), np.array([4, 5, 6])) == pairs


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
    pairs, _ = reference_reduce_columns(
        (e, bitset(place[v] for v in fp.cells[e - 1].boundary)) for e in rows
    )
    assert {cols[p]: e for p, e in pairs.items()} == pairing
    assert merge_edges(fp, np.array(cols), np.array(rows)) == pairing


def test_reduce_keeps_input_intact():
    columns = [(1, 0b101), (2, 0b101), (3, 0b110)]
    before = list(columns)
    reduce_bitsets(columns)
    assert columns == before


def test_six_cell_triples(six_cell_pair):
    triples = mixup_barcode_indices(six_cell_pair, 1)
    got = {(t.birth, t.death_image, t.death) for t in triples}
    assert got == {(1, 4, 6), (2, 3, 5)}


def test_six_cell_values(six_cell_pair):
    vals = compute_mixup_barcode(six_cell_pair, 1).triples
    got = {(t.birth, t.death_image, t.death) for t in vals}
    assert got == {(1.0, 4.0, 6.0), (2.0, 3.0, 5.0)}


def test_square_center_degree0(square_center_pair):
    vals = compute_mixup_barcode(square_center_pair, 0).triples
    finite = sorted(
        (t.birth, t.death_image, t.death) for t in vals if t.death != INF
    )
    assert finite == [(0.0, 0.7071067811865476, 1.0)] * 3
    essential = [t for t in vals if t.death == INF]
    assert len(essential) == 1
    assert essential[0].death_image == INF


def test_square_center_degree1(square_center_pair):
    vals = compute_mixup_barcode(square_center_pair, 1).triples
    positive = [t for t in vals if t.death > t.birth]
    assert len(positive) == 1
    t = positive[0]
    assert (t.birth, t.death_image, t.death) == (1.0, 1.0, 1.4142135623730951)
    # the two diagonal edges create loops that fill instantly
    zero = [t for t in vals if t.death == t.birth]
    assert len(zero) == 2


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
        assert mixup_barcode_indices(fp, k) == []
        bc = compute_mixup_barcode(fp, k, clamp=1.0)
        assert bc.index_triples == () and bc.values.shape == (0, 3)
        with pytest.raises(InputError, match="degree must be non-negative, got -1"):
            mixup_barcode_indices(fp, -1)
        with pytest.raises(InputError, match="degree must be non-negative"):
            compute_mixup_barcode(fp, -2, clamp=1.0)


def test_triple_ordering_enforced():
    # value triples enter through a barcode's rows, each of them checked
    for row in [(3, 2, 4), (0.0, 2.0, 1.0), (0.0, float("nan"), 1.0)]:
        with pytest.raises(InputError, match="triple out of order"):
            MixupBarcode(1, (), [(0.0, 1.0, 2.0), row, (1.0, 1.0, 1.0)], clamp=5.0)
        with pytest.raises(InputError, match="triple out of order"):
            mixup_percentage(MixupTriple(*row), clamp=5.0)


def test_infinite_deaths_allowed():
    t = MixupTriple(birth=1, death_image=INF, death=INF)
    assert t.death_image == INF


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
    rng = np.random.default_rng(11)
    for _ in range(25):
        n_rows = rng.integers(1, 10)
        n_cols = rng.integers(1, 10)
        cols = []
        for _ in range(n_cols):
            mask = rng.random(n_rows) < 0.4
            cols.append(sorted(np.nonzero(mask)[0].tolist()))
        pairs = reduce_bitsets((j + 1, bitset(c)) for j, c in enumerate(cols))
        assert len(pairs) == _dense_rank_gf2(cols, int(n_rows))
        # pivots are unique per row by construction
        assert len(set(pairs.values())) == len(pairs)


def test_reduction_pivot_is_latest_row():
    pairs = reduce_bitsets([(1, bitset([0, 2])), (2, bitset([0, 2]))])
    assert pairs == {2: 1}


def test_reduce_builds_only_colliding_columns():
    """A column whose first pivot is unclaimed is never built; a collision
    builds the column and, once, the owner it absorbs."""
    cols = {1: bitset([0, 3]), 2: bitset([1, 2]), 3: bitset([1, 3]), 4: bitset([0, 1])}
    built = []

    def build(cid):
        built.append(cid)
        return cols[cid]

    pairs = reduce_columns(
        [(cid, col.bit_length() - 1) for cid, col in cols.items()] + [(5, -1)], build
    )
    # column 4 reduces to zero and column 5 is zero: neither owns a pivot
    assert pairs == {3: 1, 2: 2, 1: 3}
    assert built == [3, 1, 4]


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


@pytest.mark.parametrize("k", [1, 2, 3])
@settings(max_examples=60, deadline=None)
@given(rips_pairs())
def test_matches_boundary_reduction_on_rips(k, fp):
    if fp.max_dim >= k:
        assert mixup_barcode_indices(fp, k) == reference_degree(fp, k)


@pytest.mark.parametrize("k", [1, 2, 3])
@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_matches_boundary_reduction_on_explicit(k, seed):
    fp = random_explicit_instance(np.random.default_rng(seed))
    if fp.max_dim >= k:
        assert mixup_barcode_indices(fp, k) == reference_degree(fp, k)


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


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_matches_boundary_reduction_on_edge_cases(name, k):
    fp = parse_explicit_pair(EDGE_CASES[name])
    if fp.max_dim >= k:
        assert mixup_barcode_indices(fp, k) == reference_degree(fp, k)


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
    rows = {c: [m - 1 - r for r, f in enumerate(cofaces) if c in fp.cells[f - 1].boundary]
            for c in cols}
    pairs, _ = reference_reduce_columns((c, bitset(rows[c])) for c in reversed(cols))
    assert {c: cofaces[m - 1 - p] for p, c in pairs.items()} == pairing
    assert _coboundary_pairs(fp, np.array(cols), np.array(cofaces)) == pairing
