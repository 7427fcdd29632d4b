import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixbar.output import Table, csv_lines, float_from_json, format_float, json_dumps


def test_float_shortest_repr_roundtrips():
    for x in (0.1, 1.0 / 3.0, 0.8786796564403573, 6.123233995736766e-17, 1e300):
        assert float(format_float(x)) == x


def test_infinities_become_strings():
    assert format_float(math.inf) == '"inf"'
    assert format_float(-math.inf) == '"-inf"'


def test_nan_rejected():
    # a NaN reaching serialization is an internal bug, not bad input
    with pytest.raises(ValueError):
        format_float(math.nan)


def test_float_from_json_inverts():
    assert float_from_json("inf") == math.inf
    assert float_from_json("-inf") == -math.inf
    assert float_from_json(0.25) == 0.25


def test_json_dumps_is_valid_json():
    doc = {"b": [1, 2.5, None, True], "a": {"nested": "x\"y"}, "inf": math.inf}
    text = json_dumps(doc)
    parsed = json.loads(text)
    assert parsed["a"]["nested"] == 'x"y'
    assert parsed["inf"] == "inf"
    assert text.endswith("\n")


def test_json_dumps_preserves_key_order():
    text = json_dumps({"z": 1, "a": 2})
    assert text.index('"z"') < text.index('"a"')


def test_json_dumps_rejects_non_string_keys():
    with pytest.raises(ValueError):
        json_dumps({1: "x"})


def test_json_dumps_exact_text():
    """Indentation, empty containers, tuples as lists, bool before int,
    escapes and infinities, byte for byte."""
    doc = {
        "flags": [True, False, None, 1, (2, 3.5)],
        "empty": {"d": {}, "l": [], "t": ()},
        "esc": "a\"b\\c\u00e9",
        "inf": [math.inf, -math.inf, 0.1],
        "n": {"deep": {"x": 1}},
    }
    assert json_dumps(doc) == (
        '{\n  "flags": [\n    true,\n    false,\n    null,\n    1,\n    [\n      2,\n      3.5\n'
        '    ]\n  ],\n  "empty": {\n    "d": {},\n    "l": [],\n    "t": []\n  },\n'
        '  "esc": "a\\"b\\\\c\\u00e9",\n  "inf": [\n    "inf",\n    "-inf",\n    0.1\n  ],\n'
        '  "n": {\n    "deep": {\n      "x": 1\n    }\n  }\n}\n'
    )
    assert json_dumps(True) == "true\n"
    assert json.loads(json_dumps(doc))["flags"][:2] == [True, False]


@pytest.mark.parametrize(
    "doc",
    [
        [1.0, math.nan], {"a": {"b": math.nan}}, {"a": [{2: 1}]}, {"a": {1, 2}}, [np.int64(1)],
        {"a": [np.float64(0.1)]}, Table(("a",), [(np.float64(0.1),)]),
    ],
)
def test_json_dumps_refuses(doc):
    """NaN, a non-string key and a value of no JSON type raise at any depth;
    a numpy scalar is no JSON type, in a table cell too."""
    with pytest.raises(ValueError):
        json_dumps(doc)


def test_json_dumps_deterministic():
    doc = {"values": [0.1, 0.2, 0.30000000000000004]}
    assert json_dumps(doc) == json_dumps(doc)


def test_csv_lines():
    text = csv_lines([["a", "b"], [1, 0.5], [2, math.inf]])
    lines = text.splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == "1,0.5"
    assert lines[2] == "2,inf"
    assert text.endswith("\n")


def test_csv_lines_memo_keeps_signed_zeros_apart():
    assert csv_lines([[0.0, -0.0, 0.5, 0.5, -0.0, 0.0, math.inf, -math.inf]]) == (
        "0.0,-0.0,0.5,0.5,-0.0,0.0,inf,-inf\n"
    )


VALUE_KEYS = ("birth", "death_image", "death", "zero_persistence")
INDEX_KEYS = ("birth", "death_image", "death")
# a few floats that repr oddly or equal an int or a bool, plus any others
FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, 1e22, 1.0, 2.0, 0.1]) | st.floats(
    allow_nan=False, allow_infinity=False
)


@st.composite
def mixup_tables(draw):
    """Value rows (b, d', d, zero persistence) and index rows (ints, inf
    deaths); a small pool of floats makes values repeat."""
    pool = draw(st.lists(FLOATS, min_size=1, max_size=6))
    deaths = st.sampled_from(pool + [math.inf])
    values = []
    for _ in range(draw(st.integers(0, 50))):
        b, dp, d = draw(st.sampled_from(pool)), draw(deaths), draw(deaths)
        values.append((b, dp, d, d == b))
    index_deaths = st.integers(0, 3) | st.just(math.inf)
    index = draw(st.lists(st.tuples(st.integers(0, 3), index_deaths, index_deaths), max_size=50))
    return values, index


@settings(max_examples=300, deadline=None)
@given(mixup_tables())
def test_table_matches_list_of_dicts(tables):
    """A Table gives the text of the equivalent list of dicts, at the top
    level and nested in a mixup entry, with one float memo for both."""
    values, index = tables

    def doc(table):
        return {
            "top": table(VALUE_KEYS, values),
            "degrees": {
                "1": {"triples": table(VALUE_KEYS, values), "index_triples": table(INDEX_KEYS, index)}
            },
        }

    as_dicts = doc(lambda keys, rows: [dict(zip(keys, row)) for row in rows])
    assert json_dumps(doc(Table)) == json_dumps(as_dicts)


def test_table_edge_cases():
    rows = [(1, [2.5, {"x": True}], "s", None)]
    keys = ("a%s", "b", 'c"', "d")
    assert json_dumps({"t": Table(keys, rows)}) == json_dumps({"t": [dict(zip(keys, rows[0]))]})
    assert json_dumps(Table((), [(), ()])) == json_dumps([{}, {}])
    assert json_dumps(Table(("a",), [])) == "[]\n"
    for bad in ([(1, 2), (3,)], [(math.nan, 1)]):
        with pytest.raises(ValueError):
            json_dumps(Table(("a", "b"), bad))
