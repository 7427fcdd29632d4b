"""Deterministic JSON and CSV emission.

The JSON emitter is hand-rolled so float formatting is under our control:
floats use the shortest representation that parses back to the identical
double, and infinities (which JSON cannot express as numbers) become the
strings "inf" / "-inf". Dict keys keep insertion order; the same structure
always serializes to the same bytes.
"""

from __future__ import annotations

import json
import math

INDENT = 2


def format_float(x: float) -> str:
    if math.isnan(x):
        raise ValueError("refusing to serialize NaN")
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return repr(float(x))


def json_dumps(obj) -> str:
    out: list[str] = []
    _emit(obj, out, 0)
    return "".join(out) + "\n"


def _emit(obj, out: list[str], level: int) -> None:
    pad = " " * (INDENT * (level + 1))
    end_pad = " " * (INDENT * level)
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise ValueError(f"JSON object keys must be strings, got {key!r}")
            out.append(pad + json.dumps(key) + ": ")
            _emit(value, out, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(end_pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(pad)
            _emit(value, out, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(end_pad + "]")
    else:
        raise ValueError(f"cannot serialize {type(obj).__name__}")


def float_from_json(v) -> float:
    """Inverse of format_float for values read back from our JSON."""
    if v == "inf":
        return math.inf
    if v == "-inf":
        return -math.inf
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
