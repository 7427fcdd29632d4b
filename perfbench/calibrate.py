"""Child process of the benchmark: a fixed piece of work that times the host.

    python3 calibrate.py

Does the same work on every call, whatever the seed or the program: start
Python, import numpy, build the Rips complex up to triangles of a fixed
cloud of 190 points in R^10 (about 10,000 cells) with the benchmark's own
enumerator, and reduce its boundary matrix over Z/2 by column additions.
That is the kind of work `mixbar` spends its time on, done by code that no
change to `mixbar` can touch. The parent times it before and after every
`mixbar` invocation and divides the invocation's times by it, so that a
phase in which the shared host runs slower does not read as a slower
program. Prints a checksum of the pivots, which the parent compares with
CHECKSUM.
"""

import hashlib
import sys

import numpy as np

from workloads import _pairwise, _rips_simplices

CHECKSUM = "b0c6a4b7d715"
POINTS, DIM, QUANTILE = 190, 10, 0.12


def _xor_sorted(a: list[int], b: list[int]) -> list[int]:
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        elif b[j] < a[i]:
            out.append(b[j])
            j += 1
        else:
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return out


def work() -> str:
    points = np.random.default_rng(7).random((POINTS, DIM))
    dist = _pairwise(points)
    d = np.sort(dist[np.triu_indices(POINTS, 1)])
    cells = _rips_simplices(dist, float(d[int(QUANTILE * len(d))]), 2)
    cells.sort(key=lambda c: (c[1], len(c[0]), c[0]))
    index = {verts: i for i, (verts, _) in enumerate(cells)}
    cols = [sorted(index[verts[:k] + verts[k + 1:]] for k in range(len(verts)))
            if len(verts) > 1 else [] for verts, _ in cells]
    pivots: dict[int, int] = {}
    for cid, col in enumerate(cols):
        while col and col[-1] in pivots:
            col = _xor_sorted(col, cols[pivots[col[-1]]])
        if col:
            pivots[col[-1]] = cid
        cols[cid] = col
    return hashlib.sha256(repr(sorted(pivots.items())).encode()).hexdigest()[:12]


if __name__ == "__main__":
    sys.stdout.write(work() + "\n")
