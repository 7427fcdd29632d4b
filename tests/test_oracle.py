import math

import numpy as np
import pytest

from mixbar import (
    InputError,
    barcode_from_ranks,
    parse_explicit_pair,
    rank_function,
)
from mixbar.oracle import SIZE_GUARD

HOLLOW_TRIANGLE = """\
1 0 1.0 L
2 0 2.0 L
3 0 3.0 L
4 1 4.0 L 1 2
5 1 5.0 L 1 3
6 1 6.0 L 2 3
"""


def test_hollow_triangle_degree0_bars():
    fp = parse_explicit_pair(HOLLOW_TRIANGLE)
    bars = barcode_from_ranks(rank_function(fp, 0, "standard_L"))
    assert sorted(bars) == [(1, math.inf), (2, 4.0), (3, 5.0)]


def test_hollow_triangle_degree1_bar():
    fp = parse_explicit_pair(HOLLOW_TRIANGLE)
    bars = barcode_from_ranks(rank_function(fp, 1, "standard_L"))
    assert bars == [(6, math.inf)]


def test_hollow_triangle_rank_values():
    fp = parse_explicit_pair(HOLLOW_TRIANGLE)
    grid = rank_function(fp, 0, "standard_L")
    assert grid.shape == (7, 7)
    # three components alive at index 3, one pair merged by index 4
    assert grid[3, 3] == 3
    assert grid[3, 4] == 2
    assert grid[1, 6] == 1
    assert grid[2, 5] == 1


def test_six_cell_standard_bars(six_cell_pair):
    bars = barcode_from_ranks(rank_function(six_cell_pair, 1, "standard_L"))
    assert sorted(bars) == [(1, 6.0), (2, 5.0)]


def test_six_cell_image_bars(six_cell_pair):
    bars = barcode_from_ranks(rank_function(six_cell_pair, 1, "image"))
    assert sorted(bars) == [(1, 4.0), (2, 3.0)]


def test_six_cell_ambient_bars(six_cell_pair):
    bars = barcode_from_ranks(rank_function(six_cell_pair, 1, "standard_K"))
    assert sorted(bars) == [(1, 4.0), (2, 3.0)]


def test_modes_agree_when_everything_is_l():
    fp = parse_explicit_pair(HOLLOW_TRIANGLE)
    a = rank_function(fp, 0, "standard_L")
    b = rank_function(fp, 0, "standard_K")
    c = rank_function(fp, 0, "image")
    assert np.array_equal(a, b)
    assert np.array_equal(a, c)


def test_rank_monotonicity(six_cell_pair):
    """More cycles as i grows, fewer survivors as j grows."""
    for mode in ("standard_L", "standard_K", "image"):
        r = rank_function(six_cell_pair, 1, mode)
        n = six_cell_pair.n
        for j in range(1, n + 1):
            for i in range(1, j):
                assert r[i, j] <= r[i + 1, j]
        for i in range(1, n + 1):
            for j in range(i, n):
                assert r[i, j] >= r[i, j + 1]


def test_bad_mode_rejected(six_cell_pair):
    with pytest.raises(InputError):
        rank_function(six_cell_pair, 1, "kernel")


def test_negative_degree_rejected(six_cell_pair):
    with pytest.raises(InputError, match="^degree must be non-negative, got -1$"):
        rank_function(six_cell_pair, -1, "standard_L")


def test_corrupted_grid_rejected():
    grid = np.zeros((4, 4), dtype=np.int64)
    grid[1, 1] = 1  # a class born at 1 that was never born before... and
    grid[1, 2] = 0
    grid[2, 2] = 0
    grid[3, 3] = 5  # ...an inconsistent jump that makes a multiplicity negative
    grid[1, 3] = 2
    with pytest.raises(InputError, match="rank function"):
        barcode_from_ranks(grid)


def test_negative_essential_multiplicity_rejected():
    # r(0, 1) = 1 above r(1, 1) = 0: a class alive at the end, born before
    # the first cell
    grid = np.zeros((2, 2), dtype=np.int64)
    grid[0, 1] = 1
    with pytest.raises(InputError, match="^corrupted rank function: negative essential multiplicity$"):
        barcode_from_ranks(grid)


def test_size_guard():
    lines = [f"{i} 0 0.0 L" for i in range(1, SIZE_GUARD + 2)]
    fp = parse_explicit_pair("\n".join(lines) + "\n")
    with pytest.raises(InputError, match="oracle"):
        rank_function(fp, 0, "standard_L")


def test_degree_beyond_complex_is_empty(six_cell_pair):
    # no cells of that dimension: the rank function is identically zero
    assert barcode_from_ranks(rank_function(six_cell_pair, 3, "standard_L")) == []
