"""Deterministic JSON and CSV emission.

The JSON emitter is hand-rolled so float formatting is under our control:
floats use the shortest representation that parses back to the identical
double, and infinities (which JSON cannot express as numbers) become the
strings "inf" / "-inf". Dict keys keep insertion order; the same structure
always serializes to the same bytes.

A `Table` is a list of objects that all have the same keys, given as rows
of values. `json_dumps` writes it as that list of dicts would be written,
byte for byte, but fills one `%`-template per table with the cell texts
instead of encoding each row as a dict. Both emitters format floats
through a memo that lives for one call, so each distinct float is
formatted once however many cells hold it.
"""

from __future__ import annotations

import math
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Callable, NamedTuple, Sequence

INDENT = 2


def format_float(x: float) -> str:
    if math.isnan(x):
        raise ValueError("refusing to serialize NaN")
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return repr(float(x))


class Table(NamedTuple):
    """A JSON list of objects that share `keys`, one row of values each.

    json_dumps writes Table(keys, rows) exactly as it writes
    [dict(zip(keys, row)) for row in rows]; every row must have one value
    per key.
    """

    keys: tuple[str, ...]
    rows: Sequence[Sequence]


def _memoised(fmt: Callable[[float], str]) -> Callable[[float], str]:
    """fmt with each distinct float formatted once, for one emitter call.

    Zeros are formatted every time: -0.0 == 0.0, so they would share an
    entry.
    """
    memo: dict[float, str] = {}

    def text(x: float) -> str:
        s = memo.get(x)
        if s is None:
            s = fmt(x)
            if x:
                memo[x] = s
        return s

    return text


def json_dumps(obj) -> str:
    """obj as JSON text indented by INDENT, with a final newline.

    Values are dispatched on their exact type, each container's items are
    joined once, and each key's `"key": ` is encoded once per call. Any
    other type, a subclass of a JSON type such as a numpy float included,
    cannot be serialized. A Table is written through one row template,
    with its float cells formatted through the call's memo.
    """
    prefixes: dict[str, str] = {}
    floats = _memoised(format_float)
    step = " " * INDENT

    def prefix(key) -> str:
        text = prefixes.get(key)
        if text is None:
            if type(key) is not str:
                raise ValueError(f"JSON object keys must be strings, got {key!r}")
            text = prefixes[key] = encode_basestring_ascii(key) + ": "
        return text

    def table(t: Table, pad: str) -> str:
        width = len(t.keys)
        if any(len(row) != width for row in t.rows):
            raise ValueError(f"every table row needs one value per key of {t.keys}")
        if not t.rows:
            return "[]"
        inner = pad + step
        fields = inner + step
        keys = (",\n" + fields).join(prefix(k).replace("%", "%%") + "%s" for k in t.keys)
        row = "{\n" + fields + keys + "\n" + inner + "}" if width else "{}"
        # floats and ints inline, any other cell by the rules of a dict value
        cells = chain.from_iterable(t.rows)
        texts = tuple([
            floats(v) if (kind := type(v)) is float else str(v) if kind is int else encode(v, fields)
            for v in cells
        ])
        return "[\n" + inner + (",\n" + inner).join([row] * len(t.rows)) % texts + "\n" + pad + "]"

    def encode(obj, pad: str) -> str:
        kind = type(obj)
        if kind is float:
            return format_float(obj)
        if kind is dict:
            if not obj:
                return "{}"
            inner = pad + step
            items = [prefix(key) + encode(value, inner) for key, value in obj.items()]
            return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
        if kind is list or kind is tuple:
            if not obj:
                return "[]"
            inner = pad + step
            items = [encode(value, inner) for value in obj]
            return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
        if kind is Table:
            return table(obj, pad)
        if kind is str:
            return encode_basestring_ascii(obj)
        if kind is int:
            return str(obj)
        if obj is None:
            return "null"
        if obj is True:
            return "true"
        if obj is False:
            return "false"
        raise ValueError(f"cannot serialize {kind.__name__}")

    return encode(obj, "") + "\n"


def float_from_json(v) -> float:
    """Inverse of format_float for values read back from our JSON; any
    other value, a bool or a numeric string say, is a ValueError."""
    if v == "inf":
        return math.inf
    if v == "-inf":
        return -math.inf
    if type(v) not in (int, float):
        raise ValueError(f"not a number: {v!r}")
    return float(v)


def csv_lines(rows) -> str:
    """Rows of mixed str/int/float cells to CSV text; an infinity is
    written inf or -inf, unquoted."""
    number = _memoised(lambda x: format_float(x).strip('"'))
    lines = [",".join([number(c) if isinstance(c, float) else str(c) for c in row]) for row in rows]
    return "\n".join(lines) + "\n"
