"""Workload inputs and output checks for the mixbar benchmark.

Every input is generated here from the workload seed with numpy alone, so a
change to the program cannot change what the benchmark feeds it. Each
workload returns the `mixbar` argument list plus the sizes and expectations
its output check needs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass
class Inputs:
    """One workload's generated files, CLI arguments and known answers."""

    argv: list[str]
    sizes: dict
    expect: dict = field(default_factory=dict)


def _pairwise(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def _gap_threshold(dist: np.ndarray, q: float) -> float:
    """A radius at quantile q of the distances, halfway between two of them.

    Putting the threshold in a gap keeps every distance clear of it, so the
    last-bit difference between this module's distances and the program's
    cannot change which edges exist.
    """
    d = np.sort(dist[np.triu_indices(len(dist), 1)])
    i = min(int(q * len(d)), len(d) - 2)
    return float((d[i] + d[i + 1]) / 2)


def _rips_simplices(dist: np.ndarray, r_max: float, max_dim: int) -> list:
    """(vertex tuple, diameter) of every Rips simplex up to dimension max_dim."""
    n = len(dist)
    later = [set(np.flatnonzero((dist[v] <= r_max) & (np.arange(n) > v)).tolist()) for v in range(n)]
    out = []
    stack = [((v,), 0.0, later[v]) for v in range(n)]
    while stack:
        verts, value, cands = stack.pop()
        out.append((verts, value))
        if len(verts) > max_dim:
            continue
        for w in cands:
            new_value = max(value, float(dist[w, list(verts)].max()))
            stack.append((verts + (w,), new_value, cands & later[w]))
    return out


def _radius_for_size(diameters: list[float], target: int) -> float:
    """The smallest gap radius that keeps at least target of the diameters.

    Every face of a simplex has a diameter no larger, so the simplices of a
    Rips complex with diameter at most a radius form the Rips complex of
    that radius. Fixing the complex size instead of the radius keeps the
    work of one seed close to that of another.
    """
    d = np.sort(diameters)
    values = np.unique(d)
    counts = np.searchsorted(d, values, side="right")
    at = min(int(np.searchsorted(counts, target)), len(values) - 2)
    return float((values[at] + values[at + 1]) / 2)


def _write_points(path: str, points: np.ndarray, labels: np.ndarray | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, row in enumerate(points):
            fields = [repr(float(v)) for v in row]
            if labels is not None:
                fields.append(str(int(labels[i])))
            fh.write(",".join(fields) + "\n")


def _merge_heights(dist: np.ndarray, r_max: float, is_a: np.ndarray) -> tuple[list, list]:
    """Degree-0 deaths of the A points, by Kruskal's algorithm.

    Returns the sorted deaths inside A alone (d) and inside A ∪ B (d'). A
    component of A dies when it merges with another component of A; inside
    A ∪ B only merges of two components that both hold A points count.
    Components still alive at r_max die at +inf.
    """

    def deaths(keep: np.ndarray) -> list[float]:
        idx = np.flatnonzero(keep)
        sub = dist[np.ix_(idx, idx)]
        iu, ju = np.triu_indices(len(idx), 1)
        w = sub[iu, ju]
        sel = w <= r_max
        order = np.argsort(w[sel], kind="stable")
        iu, ju, w = iu[sel][order], ju[sel][order], w[sel][order]
        parent = list(range(len(idx)))
        has_a = [bool(v) for v in is_a[idx]]

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        out = []
        for i, j, value in zip(iu.tolist(), ju.tolist(), w.tolist()):
            ri, rj = find(i), find(j)
            if ri == rj:
                continue
            if has_a[ri] and has_a[rj]:
                out.append(value)
            parent[ri] = rj
            has_a[rj] = has_a[rj] or has_a[ri]
        n_alive = int(is_a.sum()) - len(out)
        return sorted(out) + [math.inf] * n_alive

    return deaths(is_a), deaths(np.ones(len(is_a), dtype=bool))


# --- mixup_rips: one large Vietoris-Rips pair, reduction-bound -------------

MIXUP_A, MIXUP_B, MIXUP_DIM, MIXUP_CELLS = 400, 80, 10, 18000


def gen_mixup_rips(rng: np.random.Generator, work: str) -> Inputs:
    a = rng.random((MIXUP_A, MIXUP_DIM))
    b = rng.random((MIXUP_B, MIXUP_DIM))
    pts = np.concatenate([a, b])
    dist = _pairwise(pts)
    diameters = [v for _, v in _rips_simplices(dist, _gap_threshold(dist, 0.06), 2)]
    r_max = _radius_for_size(diameters, MIXUP_CELLS)
    cells = int((np.asarray(diameters) <= r_max).sum())
    is_a = np.arange(len(pts)) < MIXUP_A
    d_l, d_k = _merge_heights(dist, r_max, is_a)
    _write_points(os.path.join(work, "a.csv"), a)
    _write_points(os.path.join(work, "b.csv"), b)
    argv = [
        "mixup", "--a", os.path.join(work, "a.csv"), "--b", os.path.join(work, "b.csv"),
        "--rmax", repr(r_max), "--kmax", "1", "--degrees", "0,1",
    ]
    sizes = {"points_a": MIXUP_A, "points_b": MIXUP_B, "dim": MIXUP_DIM,
             "r_max": r_max, "cells": cells}
    return Inputs(argv, sizes, {"cells": cells, "deaths_l": d_l, "deaths_k": d_k})


# --- pairwise_h0: many mid-sized builds at the README's default --kmax -----

PAIR_CLASSES, PAIR_PER_CLASS, PAIR_DIM, PAIR_SPREAD, PAIR_CELLS = 6, 60, 64, 0.2, 50000


def gen_pairwise_h0(rng: np.random.Generator, work: str) -> Inputs:
    # Centres on a regular simplex in a random orientation: every pair of
    # classes is as far apart as every other, so each off-diagonal entry
    # measures an overlap of the same depth.
    basis, _ = np.linalg.qr(rng.normal(size=(PAIR_DIM, PAIR_CLASSES)))
    centers = basis.T * (PAIR_SPREAD * np.sqrt(PAIR_DIM))
    pts = np.concatenate(
        [c + rng.normal(size=(PAIR_PER_CLASS, PAIR_DIM)) for c in centers]
    )
    labels = np.repeat(np.arange(PAIR_CLASSES), PAIR_PER_CLASS)
    # Entry (i, j) and entry (j, i) build the same complex on classes i and
    # j; r_max is set so the 30 builds up to dimension 3 hold PAIR_CELLS
    # cells together (about the 5% distance quantile).
    dist = _pairwise(pts)
    r_big = _gap_threshold(dist, 0.06)
    diameters = []
    for i in range(PAIR_CLASSES):
        for j in range(i + 1, PAIR_CLASSES):
            idx = np.flatnonzero((labels == i) | (labels == j))
            sub = dist[np.ix_(idx, idx)]
            diameters += [2 * [v] for _, v in _rips_simplices(sub, r_big, 3)]
    r_max = _radius_for_size(np.ravel(diameters), PAIR_CELLS)
    path = os.path.join(work, "labeled.csv")
    _write_points(path, pts, labels)
    argv = ["pairwise", "--a", path, "--rmax", repr(r_max), "--degrees", "0"]
    sizes = {"classes": PAIR_CLASSES, "points": len(pts), "dim": PAIR_DIM, "r_max": r_max,
             "cells_all_builds": int((np.ravel(diameters) <= r_max).sum())}
    return Inputs(argv, sizes, {"labels": list(range(PAIR_CLASSES))})


# --- profile_h1: a 3x3 (layer, step) grid, k-medoids and small H1 builds ---

PROF_GRID, PROF_PER_CLASS, PROF_DIM, PROF_NOISE = 3, 120, 16, 0.01
PROF_RMAX, PROF_SUB_A, PROF_SUB_B = 0.3, 80, 40


def gen_profile_h1(rng: np.random.Generator, work: str) -> Inputs:
    # Two rings and a disk in a random 2-plane of R^16. The disk starts
    # inside the first ring and the second ring around both; along the
    # grid they drift apart, so the entanglement falls. The points are
    # evenly spread (rings by angle, the disk on a sunflower spiral) and
    # only the phases, the plane and the noise are random, so every seed
    # asks for about the same work.
    frame, _ = np.linalg.qr(rng.normal(size=(PROF_DIM, 2)))
    even = np.arange(PROF_PER_CLASS)
    theta = 2 * np.pi * (even / PROF_PER_CLASS + rng.random((2, 1)))
    disk_r = np.sqrt((even + 0.5) / PROF_PER_CLASS) * 0.85
    disk_t = even * np.pi * (3 - np.sqrt(5)) + 2 * np.pi * rng.random()
    noise = rng.normal(size=(PROF_GRID, PROF_GRID, 3 * PROF_PER_CLASS, PROF_DIM)) * PROF_NOISE
    labels = np.repeat(np.arange(3), PROF_PER_CLASS)
    lines = []
    for layer in range(PROF_GRID):
        for step in range(PROF_GRID):
            t = (layer * PROF_GRID + step) / (PROF_GRID * PROF_GRID - 1)
            ring0 = np.stack([np.cos(theta[0]), np.sin(theta[0])], 1)
            ring1 = 1.25 * np.stack([np.cos(theta[1]), np.sin(theta[1])], 1) + [3.0 * t, 0.0]
            disk = np.stack([disk_r * np.cos(disk_t), disk_r * np.sin(disk_t)], 1) + [0.0, -3.0 * t]
            plane = np.concatenate([ring0, ring1, disk])
            pts = plane @ frame.T + noise[layer, step]
            name = f"cloud_{layer}_{step}.csv"
            _write_points(os.path.join(work, name), pts, labels)
            lines.append(f"{layer} {step} {name}")
    manifest = os.path.join(work, "manifest.txt")
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.write("# layer step file\n" + "\n".join(lines) + "\n")
    argv = [
        "profile", "--a", manifest, "--rmax", repr(PROF_RMAX), "--kmax", "1",
        "--degrees", "1", "--subsample-a", str(PROF_SUB_A), "--subsample-b", str(PROF_SUB_B),
    ]
    sizes = {"grid": f"{PROF_GRID}x{PROF_GRID}", "points": 3 * PROF_PER_CLASS,
             "dim": PROF_DIM, "r_max": PROF_RMAX,
             "subsample_a": PROF_SUB_A, "subsample_b": PROF_SUB_B}
    return Inputs(argv, sizes, {"shape": [PROF_GRID, PROF_GRID]})


# --- explicit_pair: parsing and degrees 2-3, no cloud or Rips layer --------

EXPL_A, EXPL_B, EXPL_CELLS = 60, 20, 5500


def gen_explicit_pair(rng: np.random.Generator, work: str) -> Inputs:
    pts = rng.random((EXPL_A + EXPL_B, 3))
    dist = _pairwise(pts)
    # Enumerate generously, then cut at the radius that gives EXPL_CELLS.
    simplices = _rips_simplices(dist, _gap_threshold(dist, 0.4), 3)
    r_max = _radius_for_size([value for _, value in simplices], EXPL_CELLS)
    simplices = [s for s in simplices if s[1] <= r_max]
    simplices.sort(key=lambda s: (s[1], len(s[0]), s[0][-1] >= EXPL_A, s[0]))
    ids: dict[tuple, int] = {}
    lines = []
    n_l = n_l_vertices = 0
    for verts, value in simplices:
        cid = len(ids) + 1
        ids[verts] = cid
        in_l = verts[-1] < EXPL_A
        n_l += in_l
        n_l_vertices += in_l and len(verts) == 1
        faces = [] if len(verts) == 1 else sorted(
            ids[verts[:i] + verts[i + 1:]] for i in range(len(verts))
        )
        lines.append(" ".join(
            [str(cid), str(len(verts) - 1), repr(value), "L" if in_l else "K"]
            + [str(f) for f in faces]
        ))
    path = os.path.join(work, "pair.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    argv = ["mixup", "--filtration", path]
    sizes = {"points": len(pts), "dim": 3, "r_max": r_max, "cells": len(lines), "cells_L": n_l}
    return Inputs(argv, sizes, {"cells": len(lines), "cells_L": n_l,
                                "l_vertices": n_l_vertices, "degrees": [0, 1, 2, 3]})


# --- output checks -----------------------------------------------------------


def _num(v) -> float:
    return math.inf if v == "inf" else (-math.inf if v == "-inf" else float(v))


def _check_triples(entry: dict, k: str, problems: list[str]) -> None:
    for key in ("triples", "index_triples"):
        for t in entry[key]:
            b, dp, d = _num(t["birth"]), _num(t["death_image"]), _num(t["death"])
            if not b <= dp <= d:
                problems.append(f"degree {k} {key}: b <= d' <= d fails on {t}")
                return


def _close(xs: list, ys: list) -> bool:
    return len(xs) == len(ys) and all(
        x == y or abs(x - y) <= 1e-9 * max(1.0, abs(x)) for x, y in zip(xs, ys)
    )


def check_mixup_rips(out: dict, inp: Inputs) -> list[str]:
    problems: list[str] = []
    if out.get("cells") != inp.expect["cells"]:
        problems.append(f"cells {out.get('cells')} != {inp.expect['cells']} counted by the benchmark")
    for k, entry in out["degrees"].items():
        _check_triples(entry, k, problems)
    d0 = out["degrees"]["0"]["triples"]
    if len(d0) != MIXUP_A:
        problems.append(f"degree 0 has {len(d0)} bars, expected |A| = {MIXUP_A}")
    if not out["degrees"]["1"]["triples"]:
        problems.append("degree 1 barcode is empty")
    if not _close(sorted(_num(t["death"]) for t in d0), inp.expect["deaths_l"]):
        problems.append("degree 0 deaths differ from single-linkage merge heights of A")
    if not _close(sorted(_num(t["death_image"]) for t in d0), inp.expect["deaths_k"]):
        problems.append("degree 0 image deaths differ from A-to-A merge heights in A ∪ B")
    return problems


def check_pairwise_h0(out: dict, inp: Inputs) -> list[str]:
    problems: list[str] = []
    if out["labels"] != inp.expect["labels"]:
        problems.append(f"labels {out['labels']} != {inp.expect['labels']}")
    mat = out["degrees"]["0"]
    for i, row in enumerate(mat):
        for j, v in enumerate(row):
            if not math.isfinite(v) or v < 0:
                problems.append(f"entry ({i}, {j}) = {v} is not a finite share")
            elif i == j and v != 0.0:
                problems.append(f"diagonal entry ({i}, {i}) = {v} is not 0")
            elif i != j and v == 0.0:
                problems.append(f"off-diagonal entry ({i}, {j}) is 0")
    return problems


def check_profile_h1(out: dict, inp: Inputs) -> list[str]:
    problems: list[str] = []
    values = out["degrees"]["1"]
    if [len(values), len(values[0]) if values else 0] != inp.expect["shape"]:
        problems.append(f"profile shape differs from the {inp.expect['shape']} grid")
    flat = [v for row in values for v in row]
    if not all(math.isfinite(v) and v >= 0 for v in flat):
        problems.append("profile values must be finite and non-negative")
    if not any(flat):
        problems.append("profile values are all zero")
    return problems


def check_explicit_pair(out: dict, inp: Inputs) -> list[str]:
    problems: list[str] = []
    if out.get("cells") != inp.expect["cells"]:
        problems.append(f"cells {out.get('cells')} != {inp.expect['cells']} written")
    if out.get("cells_in_subcomplex") != inp.expect["cells_L"]:
        problems.append("cells_in_subcomplex differs from the L cells written")
    if sorted(int(k) for k in out["degrees"]) != inp.expect["degrees"]:
        problems.append(f"degrees {sorted(out['degrees'])} != {inp.expect['degrees']}")
    for k, entry in out["degrees"].items():
        _check_triples(entry, k, problems)
    if len(out["degrees"]["0"]["triples"]) != inp.expect["l_vertices"]:
        problems.append("degree 0 bar count differs from the number of L vertices")
    return problems


def payload_digest(out: dict) -> str:
    """SHA-256 of the result without the echoed `params` block."""
    body = {k: v for k, v in out.items() if k != "params"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: Callable[[np.random.Generator, str], Inputs]
    check: Callable[[dict, Inputs], list[str]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mixup_rips",
            "one large Rips pair (|A|=400, |B|=80 in R^10, about 18k cells, k_max 1); degree-1 reduction dominates",
            gen_mixup_rips, check_mixup_rips,
        ),
        Workload(
            "pairwise_h0",
            "30 class-pair Rips builds at the default --kmax 2 for a degree-0 query; "
            "rips, validate and the distance tensor dominate",
            gen_pairwise_h0, check_pairwise_h0,
        ),
        Workload(
            "profile_h1",
            "3x3 profile grid with k-medoids subsampling and many small degree-1 builds",
            gen_profile_h1, check_profile_h1,
        ),
        Workload(
            "explicit_pair",
            "parses an explicit Rips-pair file and reduces degrees 0-3; bypasses cloud and rips",
            gen_explicit_pair, check_explicit_pair,
        ),
    )
}
