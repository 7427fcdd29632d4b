"""Deterministic JSON and CSV emission.

The JSON emitter is hand-rolled so float formatting is under our control:
floats use the shortest representation that parses back to the identical
double, and infinities (which JSON cannot express as numbers) become the
strings "inf" / "-inf". Dict keys keep insertion order; the same structure
always serializes to the same bytes.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii

INDENT = 2


def format_float(x: float) -> str:
    if math.isnan(x):
        raise ValueError("refusing to serialize NaN")
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return repr(float(x))


def json_dumps(obj) -> str:
    """obj as JSON text indented by INDENT, with a final newline.

    Values are dispatched on their exact type, each container's items are
    joined once, and each key's `"key": ` is encoded once per call. A
    subclass of a JSON type (a numpy float, say) goes through the same
    rules by isinstance, bool before int.
    """
    prefixes: dict[str, str] = {}
    step = " " * INDENT

    def encode(obj, pad: str) -> str:
        kind = type(obj)
        if kind is float:
            return format_float(obj)
        if kind is dict:
            if not obj:
                return "{}"
            inner = pad + step
            items = []
            for key, value in obj.items():
                prefix = prefixes.get(key)
                if prefix is None:
                    if not isinstance(key, str):
                        raise ValueError(f"JSON object keys must be strings, got {key!r}")
                    prefix = prefixes[key] = encode_basestring_ascii(key) + ": "
                items.append(prefix + encode(value, inner))
            return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
        if kind is list or kind is tuple:
            if not obj:
                return "[]"
            inner = pad + step
            items = [encode(value, inner) for value in obj]
            return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
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
        if isinstance(obj, int):
            return str(obj)
        if isinstance(obj, float):
            return format_float(obj)
        if isinstance(obj, str):
            return encode_basestring_ascii(obj)
        if isinstance(obj, dict):
            return encode(dict(obj), pad)
        if isinstance(obj, (list, tuple)):
            return encode(list(obj), pad)
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
    """Rows of mixed str/int/float cells to CSV text."""
    lines = []
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                cells.append(format_float(cell).strip('"'))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
