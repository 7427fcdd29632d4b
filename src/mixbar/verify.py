"""Cross-checking the reduction fast path against the rank-function oracle.

The two routes differ in algorithm and in representation: the fast path
pairs degree 0 by union-find and every higher degree by reducing
coboundaries, stored as sorted arrays of rows, after clearing, while the
oracle eliminates cycle and boundary spaces of every prefix, as int
bitsets, and takes second differences of rank grids. On any instance
small enough for the oracle, the (b, d) pairs of the triples must equal
the oracle's standard barcode of L, and the (b, d') pairs must equal its
image barcode, both as exact index multisets.

The fuzzer draws Rips pairs and explicit complexes in equal shares. An
explicit complex has 1-cells with zero, one or two boundary vertices, 2- and
3-cells bounded by arbitrary cycles one dimension down, values with many
ties, and L-cells only where all faces are in L.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .cloud import PointCloud
from .filtration import FilteredPair
from .oracle import _cycle_flag, barcode_from_ranks, rank_function
from .rips import build_rips_pair
from .stats import compute_mixup_barcode


# Sizes of the random pairs, small enough for the oracle: up to MAX_A points
# in A and MAX_B in B, in R^d with MIN_DIM <= d <= MAX_DIM, built up to
# degree K_MAX.
MAX_A = 6
MAX_B = 3
MIN_DIM = 2
MAX_DIM = 4
K_MAX = 2
# Explicit complexes: up to MAX_A vertices, MAX_EDGES 1-cells, MAX_DISKS 2- and 3-cells each.
MAX_EDGES = 9
MAX_DISKS = 4


def random_rips_instance(rng: np.random.Generator) -> FilteredPair:
    """A small random pair: uniform points, random threshold."""
    n_a = int(rng.integers(1, MAX_A + 1))
    n_b = int(rng.integers(0, MAX_B + 1))
    dim = int(rng.integers(MIN_DIM, MAX_DIM + 1))
    pts = rng.uniform(0.0, 1.0, size=(n_a + n_b, dim))
    a = PointCloud(pts[:n_a])
    b = PointCloud(pts[n_a:]) if n_b else None
    span = float(np.sqrt(dim))
    r_max = float(rng.uniform(0.05, 1.05)) * span
    return build_rips_pair(a, b, r_max=r_max, k_max=K_MAX)


def random_explicit_instance(rng: np.random.Generator) -> FilteredPair:
    """A small random explicit pair: vertices, then 1-cells, then 2-cells
    and 3-cells, each on a random sum of a cycle basis of the cells one
    dimension down (of L for an L-cell)."""
    n_v = int(rng.integers(1, MAX_A + 1))
    # one (dim, value, in L, boundary) row per cell
    rows = [(0, 0.0, v == 0 or rng.random() < 0.6, ()) for v in range(n_v)]
    value = 0.0
    for _ in range(int(rng.integers(0, MAX_EDGES + 1))):
        n_ends = min(int(rng.choice(3, p=[0.1, 0.2, 0.7])), n_v)
        ends = tuple(sorted(int(v) + 1 for v in rng.choice(n_v, size=n_ends, replace=False)))
        in_l = all(rows[v - 1][2] for v in ends) and rng.random() < 0.7
        value += float(rng.choice([0.0, 1.0]))
        rows.append((1, value, in_l, ends))
    for dim in (2, 3):
        for _ in range(int(rng.integers(0, MAX_DISKS + 1))):
            in_l = rng.random() < 0.5
            faces = [(i + 1, r[3]) for i, r in enumerate(rows) if r[0] == dim - 1 and (r[2] or not in_l)]
            basis = _cycle_flag(faces)[1]
            if not basis:
                continue
            chosen = rng.random(len(basis)) < 0.5
            chosen[rng.integers(len(basis))] = True
            chain = 0
            for cycle, take in zip(basis, chosen):
                chain ^= cycle if take else 0
            value += float(rng.choice([0.0, 1.0]))
            boundary = tuple(e for e in range(chain.bit_length()) if chain >> e & 1)
            rows.append((dim, value, in_l, boundary))
    dims, values, in_l, boundaries = zip(*rows)
    indptr = np.cumsum([0, *map(len, boundaries)])
    return FilteredPair(dims, values, in_l, indptr, [f for b in boundaries for f in b])


def check_instance(fp: FilteredPair, degrees) -> list[str]:
    """Compare fast path and oracle on one pair; returns mismatch messages."""
    problems: list[str] = []
    for k in degrees:
        triples = compute_mixup_barcode(fp, k).index_triples
        for t in triples:
            if not t.birth <= t.death_image <= t.death:
                problems.append(f"degree {k}: triple order violated: {t}")
        fast_standard = Counter((t.birth, t.death) for t in triples)
        fast_image = Counter(
            (t.birth, t.death_image) for t in triples if t.death_image > t.birth
        )
        oracle_standard = Counter(barcode_from_ranks(rank_function(fp, k, "standard_L")))
        oracle_image = Counter(barcode_from_ranks(rank_function(fp, k, "image")))
        if fast_standard != oracle_standard:
            problems.append(
                f"degree {k}: (b, d) multiset mismatch: "
                f"fast {sorted(fast_standard.elements())} "
                f"vs oracle {sorted(oracle_standard.elements())}"
            )
        if fast_image != oracle_image:
            problems.append(
                f"degree {k}: (b, d') multiset mismatch: "
                f"fast {sorted(fast_image.elements())} "
                f"vs oracle {sorted(oracle_image.elements())}"
            )
    return problems


def run_fuzz(instances: int, seed: int = 0, degrees=None) -> tuple[int, list[str]]:
    """Fuzz `instances` random pairs, Rips and explicit, in `degrees` (by
    default 0, 1, 2); returns (count checked, mismatches)."""
    rng = np.random.default_rng(seed)
    problems: list[str] = []
    for i in range(instances):
        draw = random_rips_instance if rng.random() < 0.5 else random_explicit_instance
        fp = draw(rng)
        for msg in check_instance(fp, degrees or (0, 1, 2)):
            problems.append(f"instance {i}: {msg}")
    return instances, problems
