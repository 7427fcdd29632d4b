"""Test-only helpers: each cell's boundary as a list, the explicit-file
writer, the restriction to L, the Euler–Poincaré check of the L-barcodes, a
per-simplex reference Rips construction to compare the array build with,
the per-cell reference of the structural rules, classic PAM's BUILD and
SWAP to compare the k-medoids selection with, the triples of any degree
>= 1 by boundary reduction without clearing to compare the coboundary route
with, and the one-shot distance matrix to compare the blocked one with."""

import math

import numpy as np

from mixbar.filtration import FilteredPair
from mixbar.reduction import INF, mixup_barcode_indices
from mixbar.subsample import _cost


def boundaries(fp: FilteredPair) -> list[list[int]]:
    """The boundary ids of each cell, the cell of id i at index i - 1."""
    ptr, faces = fp.indptr.tolist(), fp.indices.tolist()
    return [faces[lo:hi] for lo, hi in zip(ptr, ptr[1:])]


def format_explicit_pair(fp: FilteredPair) -> str:
    """Inverse of parse_explicit_pair."""
    rows = zip(fp.dim.tolist(), fp.value.tolist(), fp.in_l.tolist(), boundaries(fp))
    lines = [
        " ".join([str(cid), str(dim), repr(value), "L" if in_l else "K", *map(str, faces)])
        for cid, (dim, value, in_l, faces) in enumerate(rows, start=1)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def restrict_to_L(fp: FilteredPair) -> FilteredPair:
    """The subcomplex L as a standalone pair, cells renumbered 1..m in their
    original relative order."""
    ids = np.flatnonzero(fp.in_l) + 1
    # monotone, so each renumbered boundary stays ascending
    renumber = np.zeros(fp.n + 1, dtype=np.int64)
    renumber[ids] = np.arange(1, len(ids) + 1)
    faces, indptr = fp.faces_of(ids)
    in_l = np.ones(len(ids), dtype=bool)
    return FilteredPair(fp.dim[ids - 1], fp.value[ids - 1], in_l, indptr, renumber[faces])


def euler_poincare_mismatches(fp: FilteredPair) -> list[int]:
    """The prefixes i at which the Euler–Poincaré identity fails for the
    L-barcodes of fp: Σ_k (−1)^k #{degree-k bars with b <= i < d} against
    Σ_k (−1)^k #{L-cells of dim k with id <= i}, k = 0..max_dim, the bars
    from mixup_barcode_indices. Every degree max_dim bar is essential, so
    each side is the Euler characteristic of the prefix of L. A lost, extra
    or shifted bar in b or d shows; d' is not checked."""
    sign = np.where(fp.dim % 2 == 0, 1, -1)
    net = np.zeros(fp.n + 2, dtype=np.int64)  # bars born at i minus bars dying at i
    for k in range(fp.max_dim + 1):
        births, _, deaths = mixup_barcode_indices(fp, k).T
        births, deaths = births.astype(np.int64), deaths[deaths != INF].astype(np.int64)
        counts = np.bincount(births, minlength=fp.n + 2) - np.bincount(deaths, minlength=fp.n + 2)
        net += (-1) ** k * counts
    bars = np.cumsum(net)[1 : fp.n + 1]
    cells = np.cumsum(np.where(fp.in_l, sign, 0))
    return (np.flatnonzero(bars != cells) + 1).tolist()


def reference_rips(dist, n_a: int, r_max: float, k_max: int) -> tuple[FilteredPair, list]:
    """The Rips pair one simplex at a time: recursive clique enumeration, a
    sort on (value, dim, L first, vertices) and boundaries looked up in a
    dict. Returns the pair, built from its arrays, and each cell's vertex
    tuple."""
    dist = np.asarray(dist, dtype=float)
    simplices = _enumerate_simplices(dist, r_max, k_max + 1)
    simplices.sort(key=lambda s: (s[1], len(s[0]) - 1, 0 if s[0][-1] < n_a else 1, s[0]))
    id_of: dict[tuple[int, ...], int] = {}
    rows = []
    for verts, value in simplices:
        id_of[verts] = len(id_of) + 1
        faces = [verts[:i] + verts[i + 1 :] for i in range(len(verts))] if len(verts) > 1 else []
        rows.append((len(verts) - 1, value, verts[-1] < n_a, sorted(id_of[f] for f in faces)))
    dim, value, in_l, faces = zip(*rows)
    indptr = np.cumsum([0, *map(len, faces)])
    pair = FilteredPair(dim, value, in_l, indptr, [fid for row in faces for fid in row])
    return pair, [verts for verts, _ in simplices]


def _enumerate_simplices(dist: np.ndarray, r_max: float, max_dim: int):
    """All cliques of the r_max-neighborhood graph up to max_dim vertices-1,
    as (vertex tuple ascending, diameter) pairs in no particular order."""
    n = dist.shape[0]
    out: list[tuple[tuple[int, ...], float]] = [((v,), 0.0) for v in range(n)]
    if max_dim == 0 or n == 0:
        return out
    within = dist <= r_max
    np.fill_diagonal(within, False)
    later = [np.flatnonzero(within[v] & (np.arange(n) > v)) for v in range(n)]

    def extend(verts: tuple[int, ...], value: float, cands: np.ndarray) -> None:
        for w in cands:
            w = int(w)
            new_value = max(value, float(dist[w, list(verts)].max()))
            new_verts = verts + (w,)
            out.append((new_verts, new_value))
            if len(new_verts) <= max_dim:
                extend(new_verts, new_value, np.intersect1d(cands, later[w], assume_unique=True))

    for v in range(n):
        extend((v,), 0.0, later[v])
    return out


def reference_error(ids, dim, value, in_l, rows) -> str | None:
    """The message of the first cell that breaks a structural rule, checked
    one cell at a time over the given ids, dims, values, L flags and
    boundary id lists, or None when they form a valid pair."""
    ids, dim, value, in_l = (np.asarray(a).tolist() for a in (ids, dim, value, in_l))
    for pos, (cid, d, v, l, faces) in enumerate(zip(ids, dim, value, in_l, rows), start=1):
        if cid != pos:
            return f"cell ids must be 1..n in order; position {pos} has id {cid}"
        if d < 0:
            return f"cell {cid}: negative dimension"
        if not math.isfinite(v):
            return f"cell {cid}: value {v} is not finite"
        if pos > 1 and v < value[pos - 2]:
            return f"cell {cid}: value {v} below value of cell {cid - 1}"
        seen = set()
        for fid in faces:
            if fid in seen:
                return f"cell {cid}: duplicate boundary id {fid}"
            seen.add(fid)
            if not 1 <= fid < cid:
                return f"cell {cid}: boundary id {fid} must name an earlier cell"
            if dim[fid - 1] != d - 1:
                return f"cell {cid} (dim {d}): boundary cell {fid} has dim {dim[fid - 1]}"
            if l and not in_l[fid - 1]:
                return f"cell {cid} is in L but its face {fid} is not: L is not a subcomplex"
        if d == 1 and len(faces) > 2:
            return f"cell {cid}: a 1-cell has at most two boundary vertices"
        if d >= 2:
            odd: set[int] = set()
            for fid in faces:
                odd.symmetric_difference_update(rows[fid - 1])
            if odd:
                return (
                    f"cell {cid}: the boundary of its boundary is not zero over Z/2 "
                    f"(cells {sorted(odd)} appear an odd number of times)"
                )
    return None


def reference_build(dist: np.ndarray, k: int) -> list[int]:
    """PAM's greedy BUILD, one n×(n−|selected|) temporary pair per step."""
    n = dist.shape[0]
    first = int(np.argmin(dist.sum(axis=0)))
    selected = [first]
    nearest = dist[:, first].copy()
    chosen = np.zeros(n, dtype=bool)
    chosen[first] = True
    while len(selected) < k:
        cands = np.flatnonzero(~chosen)
        # cost after adding each candidate; argmin picks the lowest index on ties
        costs = np.minimum(nearest[:, None], dist[:, cands]).sum(axis=0)
        best = cands[int(np.argmin(costs))]
        selected.append(int(best))
        chosen[best] = True
        nearest = np.minimum(nearest, dist[:, best])
    return selected


def reference_swap(dist: np.ndarray, selected: list[int]) -> list[int]:
    """Classic PAM SWAP: every medoid position priced by its own pass over the
    candidates, O(k·n·(n−k)) per iteration."""
    n = dist.shape[0]
    selected = list(selected)
    k = len(selected)
    current = _cost(dist, selected)
    while True:
        d_sel = dist[:, selected]
        order = np.argsort(d_sel, axis=1, kind="stable")
        rows = np.arange(n)
        nearest_pos = order[:, 0]
        nearest = d_sel[rows, nearest_pos]
        second = d_sel[rows, order[:, 1]] if k > 1 else np.full(n, np.inf)
        chosen = np.zeros(n, dtype=bool)
        chosen[selected] = True
        cands = np.flatnonzero(~chosen)
        best_cost = current
        best_swap = None
        for pos in range(k):
            base = np.where(nearest_pos == pos, second, nearest)
            costs = np.minimum(base[:, None], dist[:, cands]).sum(axis=0)
            at = int(np.argmin(costs))
            if costs[at] < best_cost:
                best_cost = float(costs[at])
                best_swap = (pos, int(cands[at]))
        if best_swap is None:
            return selected
        pos, newcomer = best_swap
        selected[pos] = newcomer
        current = best_cost


def reference_reduce_columns(columns) -> tuple[dict[int, int], list[int]]:
    """Left-to-right reduction of (column id, bitset) pairs in column order,
    every column built up front."""
    owner: dict[int, int] = {}
    pairs: dict[int, int] = {}
    zeros: list[int] = []
    for cid, col in columns:
        while col:
            p = col.bit_length() - 1
            prev = owner.get(p)
            if prev is None:
                owner[p] = col
                pairs[p] = cid
                break
            col ^= prev
        else:
            zeros.append(cid)
    return pairs, zeros


def _rows(fp: FilteredPair, dim: int, key: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Ids of the dim-cells in image order, and each id's place in it."""
    ids = np.flatnonzero(fp.dim == dim) + 1
    ids = ids[np.argsort(key[ids])]
    row = np.zeros(fp.n + 1, dtype=np.int64)
    row[ids] = np.arange(len(ids))
    return ids.tolist(), row


def _reference_bitset_pairs(fp: FilteredPair, ids: np.ndarray, rows) -> tuple[dict[int, int], list[int]]:
    """reference_reduce_columns over the boundaries of the cells ids, with
    rows as given by _rows; the pairing is keyed by face id."""
    faces, row = rows
    entries, bounds = fp.faces_of(ids)
    bits, bounds = row[entries].tolist(), bounds.tolist()
    bit = (1).__lshift__
    pairs, zeros = reference_reduce_columns(
        (cid, sum(map(bit, bits[lo:hi])))
        for cid, lo, hi in zip(ids.tolist(), bounds, bounds[1:])
    )
    return {faces[p]: cid for p, cid in pairs.items()}, zeros


def reference_degree(fp: FilteredPair, k: int) -> np.ndarray:
    """Degree-k id triples, k >= 0, as an (m, 3) float64 array with inf for
    a death that never comes, by reducing every boundary column without
    clearing under the image row order: the (k+1)-cells of K and of L give
    the deaths, and the creators are the L k-cells whose boundary columns
    under the (k-1)-cell rows reduce to zero. For k = 0 these are all the
    L vertices; for k = 1 the 1-cells that merge nothing in union-find,
    also with 0 or 1 ends: a column with one vertex row acts as an edge to
    the ground node."""
    # the image order: L-cells by id, then the ambient-only cells by id
    key = np.arange(fp.n + 1) + np.append(0, np.where(fp.in_l, 0, fp.n))
    creators = np.flatnonzero((fp.dim == k) & fp.in_l) + 1
    cofaces = np.flatnonzero(fp.dim == k + 1) + 1
    l_cofaces = cofaces[fp.in_l[cofaces - 1]]
    rows = _rows(fp, k, key)
    deaths_k = _reference_bitset_pairs(fp, cofaces, rows)[0]
    deaths_l = _reference_bitset_pairs(fp, l_cofaces, rows)[0]
    born = _reference_bitset_pairs(fp, creators, _rows(fp, k - 1, key))[1]
    rows = [(c, deaths_k.get(c, INF), deaths_l.get(c, INF)) for c in born]
    return np.array(rows, dtype=float).reshape(-1, 3)


def reference_distances(points: np.ndarray, metric: str) -> np.ndarray:
    """The distance matrix from the whole (n, n, d) difference tensor at once."""
    diff = points[:, None, :] - points[None, :, :]
    sq = np.einsum("ijk,ijk->ij", diff, diff)
    return np.sqrt(sq) if metric == "euclidean" else sq
