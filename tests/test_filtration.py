import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixbar import InputError, cloud, parse_explicit_pair
from mixbar.filtration import FilteredPair
from mixbar.verify import random_explicit_instance
from conftest import SIX_CELL
from helpers import (
    boundaries,
    format_explicit_pair,
    reference_error,
    reference_parse_explicit_pair,
    restrict_to_L,
)


def test_parse_six_cell(six_cell_pair):
    fp = six_cell_pair
    assert fp.n == 6
    assert fp.max_dim == 2
    assert int(fp.in_l.sum()) == 4
    assert not fp.in_l[2]
    assert boundaries(fp)[4] == [1, 2]
    assert fp.value[3] == 4.0


def test_cells_view_gives_dim_and_member(six_cell_pair):
    """The per-cell view that the benchmark tracer counts: one Cell(dim,
    member) per cell in filtration order, member "L" or "K", built anew at
    each access. Nothing else names it."""
    from dataclasses import fields

    from mixbar.filtration import MEMBER_K, MEMBER_L, Cell

    fp = six_cell_pair
    assert [f.name for f in fields(Cell)] == ["dim", "member"]
    assert (MEMBER_L, MEMBER_K) == ("L", "K")
    assert fp.cells == tuple(Cell(d, m) for d, m in zip([1, 1, 2, 2, 2, 2], "LLKKLL"))
    assert fp.cells is not fp.cells


def test_format_parse_roundtrip(six_cell_pair):
    again = parse_explicit_pair(format_explicit_pair(six_cell_pair))
    assert again == six_cell_pair


def test_empty_filtration():
    fp = parse_explicit_pair("# nothing\n")
    assert fp.n == 0
    assert fp.max_dim == -1


def test_rejects_forward_boundary_reference():
    with pytest.raises(InputError):
        parse_explicit_pair("1 1 0.0 L 2\n2 0 0.0 L\n")


def test_rejects_decreasing_values():
    with pytest.raises(InputError):
        parse_explicit_pair("1 0 1.0 L\n2 0 0.5 L\n")


def test_rejects_face_dimension_mismatch():
    # A 2-cell's faces must be 1-cells.
    with pytest.raises(InputError):
        parse_explicit_pair("1 0 0.0 L\n2 2 1.0 L 1\n")


def test_rejects_duplicate_ids():
    with pytest.raises(InputError):
        parse_explicit_pair("1 0 0.0 L\n1 0 0.0 L\n")


def test_rejects_gap_in_ids():
    with pytest.raises(InputError):
        parse_explicit_pair("1 0 0.0 L\n3 0 0.0 L\n")


def test_rejects_unknown_member_tag():
    with pytest.raises(InputError):
        parse_explicit_pair("1 0 0.0 M\n")


def test_rejects_repeated_face():
    with pytest.raises(InputError):
        parse_explicit_pair("1 0 0.0 L\n2 0 0.0 L\n3 1 1.0 L 1 1\n")


@pytest.mark.parametrize("faces", [[5, 8, 6, 8, 7], [5, 6, 7, 8, 8]])
def test_rejects_a_repeated_face_in_any_order(faces):
    """Edge 8 listed twice keeps the boundary of the boundary of cell 9
    even, so only the repeated face makes it invalid, in either order."""
    edges = [1, 2, 2, 3, 1, 3, 3, 4]  # cells 5..8
    indptr = np.cumsum([0, 0, 0, 0, 0, 2, 2, 2, 2, len(faces)])
    with pytest.raises(InputError, match="^cell 9: duplicate boundary id 8$"):
        FilteredPair([0] * 4 + [1] * 4 + [2], [0.0] * 4 + [1.0] * 5, [True] * 9, indptr, edges + faces)


def test_rejects_l_cell_with_ambient_face():
    text = "1 0 0.0 K\n2 0 0.0 L\n3 1 1.0 L 1 2\n"
    with pytest.raises(InputError, match="subcomplex"):
        parse_explicit_pair(text)


def test_restrict_to_l(six_cell_pair):
    sub = restrict_to_L(six_cell_pair)
    assert sub.n == 4
    # the L cells 1, 2, 5, 6 in order; in this pair a cell's value is its id
    assert sub.value.tolist() == [1.0, 2.0, 5.0, 6.0]
    assert sub.in_l.all()
    # boundaries renumbered: old cell 5 bounded {1, 2}, which keep their ids
    assert boundaries(sub)[2:] == [[1, 2], [1]]


def test_restrict_is_parseable(six_cell_pair):
    sub = restrict_to_L(six_cell_pair)
    parse_explicit_pair(format_explicit_pair(sub))


def test_six_cell_text_stable():
    # The golden input itself should stay well-formed.
    fp = parse_explicit_pair(SIX_CELL)
    assert fp.value.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]


def test_rejects_nonzero_boundary_of_boundary():
    # the 2-cell 4 names the single edge {1, 2}, whose boundary survives
    with pytest.raises(InputError, match=r"cell 4: the boundary of its boundary"):
        parse_explicit_pair("1 0 0.0 L\n2 0 0.0 L\n3 1 1.0 L 1 2\n4 2 2.0 L 3\n")


TRIANGLE = "1 0 0.0 L\n2 0 0.0 L\n3 0 0.0 L\n4 1 1.0 L 1 2\n5 1 1.0 L 2 3\n6 1 1.0 L 1 3\n7 2 2.0 L 4 5 6\n"


@pytest.mark.parametrize(
    "tail,cell,odd",
    [
        # cell 10's faces-of-faces sort to 1 1 2 2 2: every key before the
        # last pairs off with its neighbour, and the last is left over
        ("8 1 2.0 L 1 2\n9 1 2.0 L 2\n10 2 3.0 L 4 8 9\n", 10, [2]),
        # cells 8 and 9 both break the rule: 8's keys sort to 1 2 2 3, whose
        # first pair does not match
        ("8 2 2.0 L 4 5\n9 2 2.0 L 4 6\n", 8, [1, 3]),
        # and here to 1 1 2 3, whose first pair does
        ("8 2 2.0 L 4 6\n9 2 2.0 L 5\n", 8, [2, 3]),
    ],
)
def test_boundary_of_boundary_names_the_first_odd_cell(tail, cell, odd):
    message = f"cell {cell}: the boundary of its boundary is not zero over Z/2 (cells {odd} appear"
    with pytest.raises(InputError, match=re.escape(message)):
        parse_explicit_pair(TRIANGLE + tail)


def test_accepts_cancelling_boundaries():
    fp = parse_explicit_pair(
        "1 0 0.0 L\n2 0 0.0 L\n3 1 1.0 L 1 2\n4 1 1.0 L 1 2\n5 2 2.0 L 3 4\n"
    )
    assert boundaries(fp)[4] == [3, 4]


def test_rejects_edge_with_three_vertices():
    with pytest.raises(InputError, match=r"cell 4: a 1-cell has at most two"):
        parse_explicit_pair("1 0 0.0 L\n2 0 0.0 L\n3 0 0.0 L\n4 1 1.0 L 1 2 3\n")


@pytest.mark.parametrize(
    "text,message",
    [
        # cell 3 lowers the value, cell 4 names a later cell
        ("1 0 0.0 L\n2 0 1.0 L\n3 0 0.5 L\n4 1 2.0 L 1 9\n", "cell 3: value 0.5 below value of cell 2"),
        # cell 4 breaks the last rule (boundary of boundary), cell 5 the first (dimension)
        (
            "1 0 0.0 L\n2 0 0.0 L\n3 1 1.0 L 1 2\n4 2 2.0 L 3\n5 -1 3.0 L\n",
            "cell 4: the boundary of its boundary",
        ),
        # cell 3 repeats a face, cell 4 has a face in K while it is in L
        ("1 0 0.0 K\n2 0 0.0 L\n3 1 1.0 L 2 2\n4 1 1.0 L 1 2\n", "cell 3: duplicate boundary id 2"),
    ],
)
def test_earliest_offending_cell_is_reported(text, message):
    with pytest.raises(InputError, match=message):
        parse_explicit_pair(text)


def test_id_gap_after_an_offending_cell():
    # cell 2 names itself, cell 3 has an id out of order
    with pytest.raises(InputError, match="cell 2: boundary id 2 must name an earlier cell"):
        FilteredPair([0, 1, 0], [0.0, 1.0, 2.0], [True] * 3, [0, 0, 2, 2], [1, 2], ids=[1, 2, 4])


def test_validate_agrees_with_the_per_cell_rules():
    """Random corruptions of valid explicit pairs, given to the constructor
    as arrays and ids: the same first offending cell and the same message
    as checking one cell at a time."""
    rng = np.random.default_rng(7)
    rejected = 0
    for _ in range(1500):
        fp = random_explicit_instance(rng)
        ids, dim, value, in_l = np.arange(1, fp.n + 1), fp.dim.copy(), fp.value.copy(), fp.in_l.copy()
        rows = boundaries(fp)
        for _ in range(int(rng.integers(1, 3))):
            i = int(rng.integers(fp.n))
            kind = int(rng.integers(7))
            if kind == 0:
                ids[i] += rng.choice([-1, 1])
            elif kind == 1:
                dim[i] += rng.choice([-2, -1, 1])
            elif kind == 2:
                value[i] -= rng.integers(1, 3)
            elif kind == 3:
                in_l[i] = not in_l[i]
            elif kind == 4:
                rows[i] = sorted(rows[i] + [int(rng.integers(-1, fp.n + 2))])
            elif kind == 5:
                value[i] = rng.choice([np.nan, np.inf, -np.inf])
            elif rows[i]:
                rows[i] = rows[i][1:]
        want = reference_error(ids, dim, value, in_l, rows)
        indptr = np.cumsum([0] + [len(row) for row in rows])
        try:
            FilteredPair(dim, value, in_l, indptr, [f for row in rows for f in row], ids=ids)
            got = None
        except InputError as exc:
            got = str(exc)
        assert got == want
        rejected += want is not None
    assert rejected > 1000


@pytest.mark.parametrize("block", [32, 320])
def test_validate_in_parts_agrees_with_the_per_cell_rules(block):
    """validate() checks the face rules over parts of whole rows of about
    BLOCK_BYTES / 32 boundary entries: parts of one and ten entries give
    the per-cell messages too."""
    with mock.patch.object(cloud, "BLOCK_BYTES", block):
        test_validate_agrees_with_the_per_cell_rules()
        test_rows_out_of_order_give_the_per_cell_message()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_rejects_non_finite_values(value):
    with pytest.raises(InputError, match=f"cell 2: value {value} is not finite"):
        parse_explicit_pair(f"1 0 0.0 L\n2 0 {value} L\n3 0 1.0 L\n")


def test_constructor_rejects_inconsistent_arrays():
    with pytest.raises(InputError, match="differ in length"):
        FilteredPair([0, 0], [0.0], [True, True], [0, 0, 0], [])
    with pytest.raises(InputError, match="boundary offsets"):
        FilteredPair([0, 1], [0.0, 1.0], [True, True], [0, 0, 2], [1])


@pytest.mark.parametrize(
    "text,message",
    [
        ("1 0 0.0 L\n2 1 1.0 L 1 99999999999999999999\n", "boundary id is out of range"),
        ("1 99999999999999999999 0.0 L\n", "cell dimension is out of range"),
    ],
)
def test_rejects_integers_beyond_int64(text, message):
    with pytest.raises(InputError, match=message):
        parse_explicit_pair(text)


def test_rows_out_of_order_give_the_per_cell_message():
    """Random corruptions of valid explicit pairs, every boundary shuffled and
    the pair built from its arrays: the message of checking one cell at a
    time, each row's faces in their stored order."""
    rng = np.random.default_rng(11)
    rejected = 0
    for _ in range(4000):
        fp = random_explicit_instance(rng)
        dim, value, in_l = fp.dim.copy(), fp.value.copy(), fp.in_l.copy()
        rows = boundaries(fp)
        for _ in range(int(rng.integers(1, 3))):
            i = int(rng.integers(fp.n))
            kind = int(rng.integers(7))
            if kind == 0:
                dim[i] += rng.choice([-2, -1, 1])
            elif kind == 1:
                value[i] -= rng.integers(1, 3)
            elif kind == 2:
                in_l[i] = not in_l[i]
            elif kind == 3:
                rows[i].append(int(rng.integers(-1, fp.n + 2)))
            elif kind == 4:
                value[i] = rng.choice([np.nan, np.inf, -np.inf])
            elif kind == 5 and rows[i]:
                rows[i].append(int(rng.choice(rows[i])))
            elif rows[i]:
                rows[i].pop(int(rng.integers(len(rows[i]))))
        for row in rows:
            rng.shuffle(row)
        want = reference_error(range(1, fp.n + 1), dim, value, in_l, rows)
        indptr = np.cumsum([0] + [len(row) for row in rows])
        try:
            FilteredPair(dim, value, in_l, indptr, [f for row in rows for f in row])
            got = None
        except InputError as exc:
            got = str(exc)
        assert got == want
        rejected += want is not None
    assert rejected > 3000


# Tokens that a corrupted explicit file may hold in place of any field: the
# integer syntax of int() (signs, underscores, leading zeros, 19 digits and
# more, non-ASCII digits), the float syntax of float() (exponents, `inf`,
# `nan`, overflow to inf, subnormals), members, and tokens neither reads.
ODD_TOKENS = [
    "x", "+5", "-0", "-3", "0_1", "1__0", "_1", "007", "1.5", "1e999", "-1e999", "1e-400",
    "4.9e-324", "+.5e-3", "1_000.5", "inf", "-Infinity", "nan", "NaN", "1e", ".", "--1", "0x10",
    "L", "K", "M", "l", "LL", "1234567890123456789", "99999999999999999999",
    "-99999999999999999999", "9223372036854775808", "\u0661", "1\xe9", "5\x00", "\x00",
]
SEPARATORS = [" ", "\t", "\x1f", " \t", "  "]
BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]


@st.composite
def explicit_texts(draw):
    """An explicit file written from a random valid pair, then corrupted:
    odd tokens, short rows, duplicate and swapped rows, shuffled faces,
    comments and blank lines, with random separators and line breaks."""
    fp = random_explicit_instance(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    steps = np.cumsum(draw(st.lists(st.floats(0, 10), min_size=fp.n, max_size=fp.n)))
    rows = [
        [str(cid), str(dim), repr(value), "L" if in_l else "K", *map(str, faces)]
        for cid, (dim, value, in_l, faces) in enumerate(
            zip(fp.dim.tolist(), steps.tolist(), fp.in_l.tolist(), boundaries(fp)), start=1
        )
    ]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(["token", "short", "twin", "swap", "shuffle", "comment", "blank"]))
        if kind in ("token", "short") and not rows[i]:
            continue
        if kind == "token":
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(st.sampled_from(ODD_TOKENS))
        elif kind == "short":
            del rows[i][draw(st.integers(0, len(rows[i]) - 1)) :]
        elif kind == "twin":
            rows.insert(draw(st.integers(0, len(rows))), list(rows[i]))
        elif kind == "swap":
            j = draw(st.integers(0, len(rows) - 1))
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == "shuffle":
            rows[i][4:] = draw(st.permutations(rows[i][4:]))
        elif kind == "comment":
            rows[i].insert(draw(st.integers(0, len(rows[i]))), draw(st.sampled_from(["#", "# a b", "#1"])))
        else:
            rows.insert(i, draw(st.sampled_from([[], [""], ["#", "x"]])))
    sep = draw(st.sampled_from(SEPARATORS))
    lines = [
        draw(st.sampled_from(["", sep])) + sep.join(row) + draw(st.sampled_from(["", sep]))
        for row in rows
    ]
    return "".join(line + draw(st.sampled_from(BREAKS)) for line in lines)


def parse_outcome(parse, text):
    """The arrays of the pair parse reads from text, values as bits, or its
    InputError's message."""
    try:
        fp = parse(text)
    except InputError as exc:
        return str(exc)
    return [a.tolist() for a in (fp.dim, fp.value.view(np.int64), fp.in_l, fp.indptr, fp.indices)]


@settings(max_examples=400, deadline=None)
@given(explicit_texts(), st.sampled_from([1, 64, 256, 4096, cloud.BLOCK_BYTES]), st.booleans())
def test_reader_matches_the_per_line_reference(text, block, final_break):
    """The byte-level reader, in runs of one character to whole files (a run
    is at most BLOCK_BYTES / 32 characters), gives the arrays or the message
    of the per-line reader on every file whose whitespace is ASCII."""
    text = text if final_break else text.rstrip("".join(BREAKS))
    with mock.patch.object(cloud, "BLOCK_BYTES", block):
        got = parse_outcome(parse_explicit_pair, text)
    assert got == parse_outcome(reference_parse_explicit_pair, text)


@pytest.mark.parametrize(
    "text",
    [
        "1 0 0.0 L\r\n2 0 0.5 K\r\n3 1 1.0 K 2 1\r\n",
        "1 0 0.0 L\r2 0 0.5 K\r\r3 1 1.0 K 1 2",
        "1 0 0.0 L\x0b2 0 0.5 K\x0c3 1 1.0 K 1 2\x1c4 0 2 L\x1d\x1e",
        "\t1\t0\t0.0\tL\t\n2\x1f0\x1f0.5\x1fK\n",
        "+1 -0 +0.0 L\n0_2 0 1_0.5 L\n0003 1 1e1 L 0_1 +2\n",
        "1 0 0.0 L\n2 0 1e999 L\n",
        "1 0 0.0 L\n1234567890123456789 0 1.0 L\n",
        "1 0 0.0 L\n99999999999999999999 0 1.0 L\n",
        "1 0 0.0 L\n2 99999999999999999999 1.0 L\n3 1 2.0 L 1 99999999999999999999\n",
        "1 0 0.0 L\n2 0 0.5 L\n3 1 1.0 L 1 2\n2 0 0.0 K\n",
        "3 1 1.0 L 2 1\n1 0 0.0 L # a comment\n\n   \n# 9 9 9 9\n2 0 0.5 L#x\n",
        "1 0 0.0 L\n2 0 0.5 L 1 x\n2 0 0.5 L\n",
        "1 0 0.0 L\n2 0 0.5 L\n3 0 zero L\n2 0 0.5 L\n",
        "1 0 0.0 L\n2 0\n",
        "1 0 0.0 Lx\n",
        "1 0 0.0 L\n2 0 0.5 \u0661\n",
        "\u0661 0 0.0 L\n",
        "1 0 0.0\x00 L\n",
        "1 0 5 L\n2 0 5\x00 L\n",
        "1 0 0.5 L\n2 0 0.5 L\n3 0 0.50 L\n4 0 0.50 L\n5 0 x L\n",
        "1 0 0.10000000000000000000000000000001 L\n2 0 0.10000000000000000000000000000002 L\n"
        "3 0 0.10000000000000000000000000000002 L\n4 0 0.1000000000000000000000000000000x L\n",
    ],
)
def test_reader_matches_the_reference_on(text):
    for block in (1, 64, 512, cloud.BLOCK_BYTES):
        with mock.patch.object(cloud, "BLOCK_BYTES", block):
            got = parse_outcome(parse_explicit_pair, text)
        assert got == parse_outcome(reference_parse_explicit_pair, text), block


@pytest.mark.parametrize(
    "text,message",
    [
        # U+00A0 no longer separates fields, U+2028, U+2029 and U+0085 no longer end lines
        ("1\xa00 0.0 L\n", "line 1: expected `id dim value member [boundary...]`"),
        ("1 0 0.0 L\u20282 0 0.0 L\n", "line 1: member must be L or K, got 'L\\u20282'"),
        ("1 0 0.0 L\n2 0 0.0 K\u2029", "line 2: member must be L or K, got 'K\\u2029'"),
        ("1 0 0.0 L\x852 0 0.0 L\n", "line 1: member must be L or K, got 'L\\x852'"),
    ],
)
def test_non_ascii_whitespace_is_part_of_a_field(text, message):
    with pytest.raises(InputError, match=re.escape(message)):
        parse_explicit_pair(text)
