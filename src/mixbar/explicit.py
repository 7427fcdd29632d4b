"""The reader of explicit filtration files, which
mixbar.filtration.parse_explicit_pair imports on its first call, so that
only the commands that read such a file compile it; mixbar.filtration
describes how it reads.

read_pair reads a file in runs of whole lines into arrays, with no Python
object made per line or per token, puts the rows in id order and
validates the pair.
"""

from __future__ import annotations

import numpy as np

from . import cloud
from .errors import InputError
from .filtration import FilteredPair

# The columns of the rows of _read_run: line number, id, dim, value,
# membership in L, boundary length, and the boundary ids of all rows.
_EMPTY = tuple(np.empty(0, dtype=t) for t in (np.int64, np.int64, np.int64, float, bool, np.int64, np.int64))

# The class of each byte: a field byte, the ASCII whitespace at which
# str.split() separates fields within a line, the ASCII line breaks of
# str.splitlines(), and `#`. _NUMBER marks the bytes of a value that the
# float cast reads; a run of _PLAIN bytes alone holds no other value byte
# but L and K, which the cast refuses.
_BLANKS, _BREAKS = "\t\x1f ", "\n\r\x0b\x0c\x1c\x1d\x1e"
_FIELD, _BLANK, _BREAK, _HASH = range(4)
_CLASS = bytes(
    _BLANK if chr(c) in _BLANKS else _BREAK if chr(c) in _BREAKS else _HASH if chr(c) == "#" else _FIELD
    for c in range(256)
)
_NUMBER = np.zeros(256, dtype=bool)
_NUMBER[list(b"0123456789+-.Ee")] = True
_PLAIN = b"0123456789+-.EeLK" + (_BLANKS + _BREAKS).encode()

# Blanks around each run: every token has a blank on both sides, and a
# window of _PAD bytes from any token's start or up to its stop stays in
# the buffer. Ids, dims and boundary ids of at most 18 digits fit int64.
_PAD, _DIGITS = 32, 18

# A run's work arrays take about 23 bytes per character of it (tracemalloc),
# so runs of BLOCK_BYTES / 32 characters (64K by default) keep them within
# BLOCK_BYTES, and in cache: a 240 KB file read 12% slower in runs twice as
# long, and 10% and 50% slower in runs 4 and 8 times as short.
_RUN_SHARE = 32


def read_pair(text: str) -> FilteredPair:
    """The pair of an explicit file: its rows in id order, validated."""
    (line, ids, dim, value, in_l, count, faces), big, wide, error = _read_rows(text)
    if big:  # ids beyond int64 compare as Python ints
        ids = ids.astype(object)
        ids[list(big)] = list(big.values())
    order = None
    if not (ids[1:] > ids[:-1]).all():
        order = np.argsort(ids, kind="stable")
        twins = order[1:][ids[order[1:]] == ids[order[:-1]]]
        if len(twins) and (error is None or line[twins.min()] < error[0]):
            raise InputError(f"line {line[twins.min()]}: duplicate cell id {ids[twins.min()]}")
    if error is not None:
        raise error[1]
    for what in ("cell dimension", "boundary id"):
        if what in wide:
            raise InputError(f"a {what} is out of range")
    del line
    indptr = np.zeros(len(ids) + 1, dtype=np.int64)
    np.cumsum(count, out=indptr[1:])
    if order is not None:  # the rows in id order
        start, count = indptr[order], count[order]
        ids, dim, value, in_l = ids[order], dim[order], value[order], in_l[order]
        np.cumsum(count, out=indptr[1:])
        faces = faces[np.repeat(start - indptr[:-1], count) + np.arange(len(faces))]
        del start
    if not len(ids) or (ids[0] == 1 and ids[-1] == len(ids)):
        ids = None  # ascending and distinct, so 1..n; validate's peak is lower without them
    fp = FilteredPair._built(dim, value, in_l, indptr, faces)
    del dim, value, in_l, indptr, faces, count
    fp.validate(ids)
    return fp


def _read_rows(text: str):
    """The rows of text up to its first line that cannot be read, as the
    columns of _EMPTY, the ids beyond int64 by row, the names of the other
    columns that hold an integer beyond int64, and (line number, InputError)
    of the first line that cannot be read, or None."""
    parts, big, wide, error, line0, rows = [], {}, set(), None, 1, 0
    for run in _line_runs(text):
        cols, run_big, run_wide, error, breaks = _read_run(run, line0)
        big.update((rows + row, cid) for row, cid in run_big.items())
        wide |= run_wide
        parts.append(cols)
        line0, rows = line0 + breaks, rows + len(cols[0])
        if error is not None:
            break
    return [np.concatenate(c) for c in zip(_EMPTY, *parts)], big, wide, error


def _line_runs(text: str):
    """text in runs of whole lines, each of at most BLOCK_BYTES / _RUN_SHARE
    characters unless it is one longer line; no run splits a \\r\\n."""
    lo, n, size = 0, len(text), max(1, cloud.BLOCK_BYTES // _RUN_SHARE)
    while lo < n:
        hi = lo + size
        cut = n if hi >= n else text.rfind("\n", lo, hi) + 1
        cut = cut or max(text.rfind(c, lo, hi) for c in _BREAKS) + 1
        if not cut:  # a line longer than a run ends at its break
            cut = min((i for i in (text.find(c, hi) for c in _BREAKS) if i >= 0), default=n - 1) + 1
        cut += text.startswith("\r\n", cut - 1)
        yield text[lo:cut]
        lo = cut


def _read_run(run: str, line0: int):
    """The rows of a run of whole lines, from line line0 on: the columns of
    _EMPTY, what _read_rows tells of them, and the number of line breaks.
    With a line that cannot be read, the rows are each data line's number
    and id alone, which is what the duplicate check reads."""
    raw = run.encode("utf-8", "surrogatepass")
    padded = b" " * _PAD + raw + b" " * _PAD
    b = np.frombuffer(padded, dtype=np.uint8)
    cls = np.frombuffer(padded.translate(_CLASS), dtype=np.uint8)
    brk = cls == _BREAK
    if b"\r\n" in raw:  # one break, at its \r
        brk[1:] &= (b[1:] != 10) | (b[:-1] != 13)
    ends = np.flatnonzero(brk)
    field = cls == _FIELD
    if b"#" in raw:  # a comment runs from the first `#` of a line to its break
        at = np.flatnonzero(cls == _HASH)
        at_line = np.searchsorted(ends, at)
        first = np.append(True, at_line[1:] != at_line[:-1])
        edge = np.zeros(len(b) + 1, dtype=np.int8)
        edge[at[first]] = 1
        edge[np.append(ends, len(b))[at_line[first]]] = -1
        field &= np.cumsum(edge[:-1], dtype=np.int8) == 0
    start, stop = (np.flatnonzero(field[1:] != field[:-1]) + 1).reshape(-1, 2).T
    bounds = np.concatenate(([0], np.searchsorted(start, ends), [len(start)]))
    full = bounds[1:] > bounds[:-1]  # the lines that hold a token
    head, fields, lines = bounds[:-1][full], np.diff(bounds)[full], line0 + np.flatnonzero(full)
    k = np.arange(len(start)) - np.repeat(head, fields)  # each token's place in its line
    width = stop - start
    num, bad, big = np.zeros(len(start), dtype=np.int64), np.zeros(len(start), dtype=bool), {}
    at = np.flatnonzero((k < 2) | (k > 3))
    num[at], ok = _integers(b, stop[at], width[at])
    for t in at[~ok].tolist():  # a sign, `_`, 19 digits or more, non-ASCII: int() decides
        try:
            big[t] = int(padded[start[t] : stop[t]].decode("utf-8", "surrogatepass"))
        except ValueError:
            bad[t] = True
        else:
            if -(2**63) <= big[t] < 2**63:
                num[t] = big.pop(t)
    at = np.flatnonzero(k == 2)
    value, bad[at] = _floats(padded, b, start[at], width[at])
    at = np.flatnonzero(k == 3)
    tag = b[start[at]]
    bad[at] = (width[at] != 1) | ((tag != ord("L")) & (tag != ord("K")))
    broken = (fields < 4) | np.logical_or.reduceat(bad, head)
    big_ids = {int(np.searchsorted(head, t)): cid for t, cid in big.items() if k[t] == 0}
    if broken.any():
        j = int(broken.argmax())
        at = slice(head[j], head[j] + fields[j])
        words = [padded[s:e].decode("utf-8", "surrogatepass") for s, e in zip(start[at], stop[at])]
        cols = (lines, num[head], *_EMPTY[2:])
        return cols, big_ids, set(), (lines[j], _line_error(lines[j], words)), len(ends)
    at = np.flatnonzero(k > 3)
    faces = num[at]
    if ((at[1:] == at[:-1] + 1) & (faces[1:] < faces[:-1])).any():  # a row out of order
        faces = faces[np.lexsort((faces, np.repeat(np.arange(len(head)), fields - 4)))]
    wide = {"cell dimension" if k[t] == 1 else "boundary id" for t in big if k[t]}
    cols = (lines, num[head], num[head + 1], value, tag == ord("L"), fields - 4, faces)
    return cols, big_ids, wide, None, len(ends)


def _integers(b: np.ndarray, stop: np.ndarray, width: np.ndarray):
    """The value of each token b[stop - width:stop], and whether it is one
    of at most _DIGITS ASCII digits, which the value is right for."""
    value, ok, first = np.zeros(len(stop), dtype=np.int64), width <= _DIGITS, stop - width
    for j in range(int(min(width.max(initial=1), _DIGITS))):  # from the last digit
        digit = b[np.maximum(stop - 1 - j, first)] - 48  # a short token reads its first byte again
        ok &= digit < 10
        value += digit.astype(np.int64) * (width > j) * 10**j
    return value, ok


def _floats(padded: bytes, b: np.ndarray, start: np.ndarray, width: np.ndarray):
    """float() of each token b[start:start + width], and where it refuses
    one. Tokens of at most _PAD digits, signs, `.` and `e` are cast at
    once, as a fixed-width bytes array: the cast reads them as float()
    does, to the bit. Any other token goes to float() itself."""
    w = int(min(width.max(initial=1), _PAD))
    text = np.ndarray((len(b) - w + 1, w), np.uint8, padded, 0, (1, 1))[start]  # each token's first w bytes
    text *= np.arange(w) < width[:, None]  # the padding of a fixed-width bytes array
    value, bad, fast = np.zeros(len(start)), np.zeros(len(start), dtype=bool), width <= _PAD
    if padded.translate(None, _PLAIN):  # some token may hold a byte the cast must not read
        fast &= (_NUMBER.take(text) | (np.arange(w) >= width[:, None])).all(axis=1)
    slow = np.flatnonzero(~fast)
    try:
        with np.errstate(over="ignore"):  # 1e999 is inf, as float() reads it
            value[fast] = text[fast].view(f"S{w}")[:, 0].astype(np.float64)
    except ValueError:  # a token that is no number: float() tells which
        slow = np.arange(len(start))
    for i in slow.tolist():
        try:
            value[i] = float(padded[start[i] : start[i] + width[i]].decode("utf-8", "surrogatepass"))
        except ValueError:
            bad[i] = True
    return value, bad


def _line_error(lineno: int, words: list[str]) -> InputError:
    """The error of line lineno, split into words: the first rule it breaks."""
    if len(words) < 4:
        return InputError(f"line {lineno}: expected `id dim value member [boundary...]`")
    try:
        int(words[0]), int(words[1]), float(words[2])
    except ValueError:
        return InputError(f"line {lineno}: id and dim must be integers, value a number")
    if words[3] not in ("L", "K"):
        return InputError(f"line {lineno}: member must be L or K, got {words[3]!r}")
    return InputError(f"line {lineno}: boundary ids must be integers")
