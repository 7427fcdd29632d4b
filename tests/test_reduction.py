import numpy as np
import pytest

from mixbar import (
    INF,
    InputError,
    MixupTriple,
    compute_mixup_barcode,
    mixup_barcode_indices,
    parse_explicit_pair,
)
from mixbar.reduction import image_row_order, merge_edges, reduce_columns

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


def test_reduce_filled_triangle_degree0():
    fp = parse_explicit_pair(FILLED_TRIANGLE)
    edges = [c for c in fp.cells if c.dim == 1]
    pairs, zeros = reduce_columns((e.id, bitset(e.boundary)) for e in edges)
    # column 6 = {2,3} reduces to zero through columns 4 and 5; the pivot
    # rows are the younger vertices 2 and 3
    assert zeros == [6]
    assert pairs == {2: 4, 3: 5}
    # union-find gives the same pairing and the same zero column
    assert merge_edges([(e.id, *e.boundary) for e in edges], range(fp.n + 1)) == (pairs, zeros)


def test_reduce_keeps_input_intact():
    columns = [(1, 0b101), (2, 0b101), (3, 0b110)]
    before = list(columns)
    reduce_columns(columns)
    assert columns == before


def test_image_row_order_puts_l_first(six_cell_pair):
    order = image_row_order(six_cell_pair)
    ranks = [order[i] for i in (1, 2, 5, 6, 3, 4)]
    assert ranks == sorted(order[1:].tolist())  # L cells 1,2,5,6 first, then 3,4


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
    with pytest.raises(InputError):
        mixup_barcode_indices(six_cell_pair, 3)
    with pytest.raises(InputError):
        mixup_barcode_indices(six_cell_pair, -1)


def test_triple_ordering_enforced():
    with pytest.raises(InputError):
        MixupTriple(birth=3, death_image=2, death=4)
    with pytest.raises(InputError):
        MixupTriple(birth=0.0, death_image=2.0, death=1.0)


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
        pairs, zeros = reduce_columns((j + 1, bitset(c)) for j, c in enumerate(cols))
        assert len(pairs) == _dense_rank_gf2(cols, int(n_rows))
        assert len(pairs) + len(zeros) == len(cols)
        # pivots are unique per row by construction
        assert len(set(pairs.values())) == len(pairs)


def test_reduction_pivot_is_latest_row():
    pairs, zeros = reduce_columns([(1, bitset([0, 2])), (2, bitset([0, 2]))])
    assert pairs == {2: 1}
    assert zeros == [2]
