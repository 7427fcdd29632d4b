"""End-to-end acceptance checks.

One test per shipped guarantee, each printing a single summary line; the
terminal summary in conftest repeats the pass/fail verdicts. Numbered to
keep the report order stable.
"""

import itertools
import json
import time
from collections import Counter

import numpy as np
import pytest

from mixbar import (
    INF,
    LabeledPointCloud,
    MixupBarcode,
    PointCloud,
    StatsConfig,
    build_rips_pair,
    compute_mixup_barcode,
    k_medoids_indices,
    mixup_barcode_indices,
    mixup_profile,
    pairwise_distances,
    parse_explicit_pair,
    random_rips_instance,
    run_fuzz,
    total_mixup,
)
from mixbar.stats import total_mixup_percentage
from mixbar.cli import main
from mixbar.subsample import _cost
from conftest import SIX_CELL

FUZZ_INSTANCES = 500
FUZZ_SEED = 20240811


def report(name, detail):
    print(f"criterion {name}: PASS ({detail})")


@pytest.fixture(scope="module")
def fuzz_corpus():
    """The corpus reused by the corpus-wide invariant checks."""
    rng = np.random.default_rng(FUZZ_SEED)
    return [random_rips_instance(rng) for _ in range(FUZZ_INSTANCES)]


def test_criterion_01_six_cell_golden():
    fp = parse_explicit_pair(SIX_CELL)
    mixup_barcode_indices(fp, 1)  # warm caches before timing
    t0 = time.perf_counter()
    triples = mixup_barcode_indices(fp, 1)
    elapsed = time.perf_counter() - t0
    got = set(map(tuple, triples.tolist()))
    assert got == {(1, 4, 6), (2, 3, 5)}
    assert elapsed < 0.010
    report("01 six-cell golden", f"{elapsed * 1000:.2f} ms")


def test_criterion_02_oracle_equivalence():
    t0 = time.perf_counter()
    checked, problems = run_fuzz(FUZZ_INSTANCES, seed=FUZZ_SEED, degrees=[0, 1, 2])
    elapsed = time.perf_counter() - t0
    assert checked == FUZZ_INSTANCES
    assert problems == []
    assert elapsed < 60.0
    report(
        "02 oracle equivalence",
        f"{checked} instances, two independent routes agree, {elapsed:.1f} s",
    )


def test_criterion_03_triple_ordering(fuzz_corpus):
    bars = 0
    for fp in fuzz_corpus:
        for degree in (0, 1, 2):
            if degree > max(fp.max_dim, 0):
                continue
            b, dp, d = mixup_barcode_indices(fp, degree).T
            assert (b <= dp).all() and (dp <= d).all()
            bars += len(b)
    report("03 triple ordering", f"b <= d' <= d on {bars} bars, 0 violations")


def test_criterion_04_subset_monotonicity():
    """Growing B can only move image deaths earlier: the total mixup of A
    against any subset of B is bounded by the total against all of B."""
    rng = np.random.default_rng(91)
    instances = 0
    comparisons = 0
    while instances < 100:
        n_a = int(rng.integers(2, 7))
        n_b = int(rng.integers(1, 6))
        dim = int(rng.integers(2, 4))
        a = PointCloud(rng.uniform(0, 1, (n_a, dim)))
        b_pts = rng.uniform(0, 1, (n_b, dim))
        r_max = float(rng.uniform(0.3, 1.1)) * float(np.sqrt(dim))
        full = build_rips_pair(a, PointCloud(b_pts), r_max=r_max, k_max=2)
        totals = {}
        for degree in (0, 1, 2):
            if degree > max(full.max_dim, 0):
                continue
            totals[degree] = total_mixup(
                compute_mixup_barcode(full, degree, clamp=r_max)
            )
        for keep in range(n_b + 1):
            for subset in itertools.combinations(range(n_b), keep):
                if len(subset) == n_b:
                    continue
                sub_b = PointCloud(b_pts[list(subset)]) if subset else None
                part = build_rips_pair(a, sub_b, r_max=r_max, k_max=2)
                for degree, full_total in totals.items():
                    if degree > max(part.max_dim, 0):
                        part_total = 0.0
                    else:
                        part_total = total_mixup(
                            compute_mixup_barcode(part, degree, clamp=r_max)
                        )
                    assert part_total <= full_total
                    comparisons += 1
        instances += 1
    report(
        "04 subset monotonicity",
        f"{instances} instances, {comparisons} exact subset comparisons",
    )


def test_criterion_05_ambient_independence(fuzz_corpus):
    """The (b, d) pairs equal the standalone barcode of A on every corpus
    instance; B only ever touches d'."""
    rng = np.random.default_rng(FUZZ_SEED)
    checked = 0
    for fp in fuzz_corpus:
        # rebuild the standalone complex from the same draws
        n_a = int(rng.integers(1, 7))
        n_b = int(rng.integers(0, 4))
        dim = int(rng.integers(2, 5))
        pts = rng.uniform(0.0, 1.0, size=(n_a + n_b, dim))
        span = float(np.sqrt(dim))
        r_max = float(rng.uniform(0.05, 1.05)) * span
        alone = build_rips_pair(PointCloud(pts[:n_a]), None, r_max=r_max, k_max=2)
        for degree in (0, 1, 2):
            if degree > max(alone.max_dim, 0):
                continue
            with_b, without = (
                compute_mixup_barcode(pair, degree, clamp=r_max).values[:, [0, 2]]
                for pair in (fp, alone)
            )
            assert Counter(map(tuple, with_b.tolist())) == Counter(map(tuple, without.tolist()))
        checked += 1
    report("05 ambient independence", f"{checked} instances, exact value multisets")


def fibonacci_sphere(n, radius=1.0):
    i = np.arange(n)
    golden = (1 + 5**0.5) / 2
    z = 1 - (2 * i + 1) / n
    r = np.sqrt(1 - z * z)
    th = 2 * np.pi * i / golden
    return radius * np.c_[r * np.cos(th), r * np.sin(th), z]


def ring(n, radius=1.0, phase=0.0, shift=(0.0, 0.0)):
    th = np.linspace(0, 2 * np.pi, n, endpoint=False) + phase
    return np.c_[radius * np.cos(th) + shift[0], radius * np.sin(th) + shift[1]]


def dominant(bc, clamp):
    """The positive-persistence bar of bc that lasts longest up to clamp, as
    a one-row barcode clamped there."""
    v = bc.values[bc.values[:, 2] > bc.values[:, 0]]
    row = v[np.argmax(np.minimum(v[:, 2], clamp) - v[:, 0])]
    return MixupBarcode(bc.degree, np.empty((0, 3)), [row], clamp)


def test_criterion_06_geometric_signatures():
    # (i) surrounding: a sphere sample with interior points loses its cavity
    # to the ambient complex long before losing it on its own
    a = PointCloud(fibonacci_sphere(60))
    b = PointCloud(np.vstack([[[0.0, 0.0, 0.0]], fibonacci_sphere(9, radius=0.5)]))
    fp = build_rips_pair(a, b, r_max=1.3, k_max=2)
    cavity = dominant(compute_mixup_barcode(fp, 2, clamp=1.3), 1.3)
    sphere_pct = total_mixup_percentage(cavity)
    assert sphere_pct > 0.5

    # (ii) encirclement: a circle with points near its center
    a = PointCloud(ring(40))
    b = PointCloud(np.vstack([[[0.0, 0.0]], ring(6, radius=0.5, phase=0.3)]))
    fp = build_rips_pair(a, b, r_max=1.9, k_max=1)
    loop = dominant(compute_mixup_barcode(fp, 1, clamp=1.9), 1.9)
    circle_pct = total_mixup_percentage(loop)
    assert circle_pct > 0.5

    # (iii) separation: a slab of foreign points between two clusters
    # merges them prematurely
    a = PointCloud(
        np.array(
            [
                [0.0, 0.0], [0.3, 0.1], [0.1, 0.3],
                [4.0, 0.0], [4.3, 0.1], [4.1, 0.3],
            ]
        )
    )
    b = PointCloud(np.array([[2.0, -0.5], [2.0, 0.3], [2.1, 1.0]]))
    fp = build_rips_pair(a, b, r_max=5.0, k_max=1)
    bc = compute_mixup_barcode(fp, 0, clamp=5.0)
    _, dp, d = bc.values.T
    strict = bc.values[(dp < d) & (d != INF)]
    assert len(strict)
    report(
        "06 geometric signatures",
        f"sphere {sphere_pct:.2f}, circle {circle_pct:.2f}, "
        f"{len(strict)} premature merge(s)",
    )


def disentangling_cloud(layer, step):
    phase = 0.157 + 0.05 * layer
    shift = (0.0, 0.0) if step == 0 else (6.0, 0.0)
    pts = np.vstack([ring(20, 1.0), ring(10, 0.8, phase=phase, shift=shift)])
    labels = np.r_[np.zeros(20, dtype=int), np.ones(10, dtype=int)]
    return LabeledPointCloud(PointCloud(pts), labels)


def test_criterion_07_disentanglement_profile():
    """Nested rings pulled apart into separate clusters: the profile falls
    strictly in every layer, in degrees 0 and 1."""
    series = {
        (layer, step): disentangling_cloud(layer, step)
        for layer in (0, 1)
        for step in (0, 1)
    }
    config = StatsConfig(r_max=3.0)
    values = {}
    for degree in (0, 1):
        grid = mixup_profile(series, [degree], config)[2][degree]
        for row in grid:
            assert row[0] > row[1]
        values[degree] = grid[0]
    report(
        "07 disentanglement profile",
        f"degree 0 {values[0][0]:.2f}->{values[0][1]:.2f}, "
        f"degree 1 {values[1][0]:.2f}->{values[1][1]:.2f}, strictly decreasing",
    )


def test_criterion_08_medoid_optimality():
    rng = np.random.default_rng(17)
    worst = 1.0
    for _ in range(50):
        n = int(rng.integers(4, 11))
        k = int(rng.integers(1, 4))
        dist = pairwise_distances(rng.random((n, 2)))
        selected = k_medoids_indices(dist, k)
        got = _cost(dist, selected)
        best = min(
            _cost(dist, combo) for combo in itertools.combinations(range(n), min(k, n))
        )
        assert got <= best * 1.05 + 1e-12
        if best > 0:
            worst = max(worst, got / best)
        # locally optimal: no single exchange improves the cost
        others = [i for i in range(n) if i not in selected]
        for pos in range(len(selected)):
            for cand in others:
                trial = list(selected)
                trial[pos] = cand
                assert _cost(dist, trial) >= got
    report("08 medoid optimality", f"50 instances, worst ratio {worst:.4f}")


def test_criterion_09_deterministic_output(tmp_path):
    a = tmp_path / "a.csv"
    a.write_text("0,0\n1,0\n0,1\n1,1\n")
    b = tmp_path / "b.csv"
    b.write_text("0.5,0.5\n")
    labeled = tmp_path / "lab.csv"
    labeled.write_text("0,0,0\n0.3,0,0\n0,0.3,0\n4,0,1\n4.3,0,1\n4,0.3,1\n")

    outputs = []
    for run in (1, 2):
        js = tmp_path / f"mix{run}.json"
        svg = tmp_path / f"mix{run}.svg"
        csv = tmp_path / f"pair{run}.csv"
        assert main(["mixup", "--a", str(a), "--b", str(b), "--rmax", "2.0",
                     "--out", str(js)]) == 0
        assert main(["mixup", "--a", str(a), "--b", str(b), "--rmax", "2.0",
                     "--degrees", "1", "--format", "svg", "--out", str(svg)]) == 0
        assert main(["pairwise", "--a", str(labeled), "--rmax", "6", "--kmax", "1",
                     "--degrees", "0", "--format", "csv", "--out", str(csv)]) == 0
        outputs.append((js.read_bytes(), svg.read_bytes(), csv.read_bytes()))
    assert outputs[0] == outputs[1]
    sizes = ", ".join(str(len(part)) for part in outputs[0])
    report("09 deterministic output", f"json/svg/csv byte-identical ({sizes} bytes)")


def test_criterion_10_performance():
    rng = np.random.default_rng(42)
    a_pts = rng.random((500, 10))
    b_pts = rng.random((100, 10))
    dist = pairwise_distances(np.vstack([a_pts, b_pts]))
    r_max = float(np.quantile(dist[np.triu_indices(600, k=1)], 0.04))
    t0 = time.perf_counter()
    fp = build_rips_pair(PointCloud(a_pts), PointCloud(b_pts), r_max=r_max, k_max=1)
    bc0 = compute_mixup_barcode(fp, 0, clamp=r_max)
    bc1 = compute_mixup_barcode(fp, 1, clamp=r_max)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    assert len(bc0.values) == 500  # one component bar per A point
    assert len(bc1.values)  # the threshold is wide enough to create cycles
    report(
        "10 performance",
        f"|A|=500 |B|=100 in R^10, {fp.n} cells, degrees 0-1 in {elapsed:.1f} s",
    )
