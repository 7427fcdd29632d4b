"""Property tests for the structural invariants of the decomposition."""

from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixbar import (
    INF,
    PointCloud,
    StatsConfig,
    build_rips_pair,
    compute_mixup_barcode,
    mixup_barcode_indices,
    pairwise_distances,
    rank_function,
    total_mixup,
)
from mixbar.oracle import SIZE_GUARD
from mixbar.stats import interaction_barcode
from mixbar.verify import random_explicit_instance
from helpers import euler_poincare_mismatches, restrict_to_L

instances = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**32 - 1),
        "n_a": st.integers(1, 6),
        "n_b": st.integers(0, 3),
        "dim": st.integers(2, 3),
        "scale": st.floats(0.1, 1.2),
    }
)


def make_pair(params, k_max=2):
    rng = np.random.default_rng(params["seed"])
    a = PointCloud(rng.random((params["n_a"], params["dim"])))
    b = (
        PointCloud(rng.random((params["n_b"], params["dim"])))
        if params["n_b"]
        else None
    )
    r_max = params["scale"] * np.sqrt(params["dim"])
    return build_rips_pair(a, b, r_max=float(r_max), k_max=k_max), float(r_max)


@settings(max_examples=60, deadline=None)
@given(instances)
def test_triples_are_ordered(params):
    fp, _ = make_pair(params)
    for degree in range(0, 3):
        if degree > max(fp.max_dim, 0):
            continue
        b, dp, d = mixup_barcode_indices(fp, degree).T
        assert (b <= dp).all() and (dp <= d).all()


@settings(max_examples=60, deadline=None)
@given(instances)
def test_barcode_ignores_b(params):
    """The (b, d) pairs never depend on what B contains."""
    fp, r_max = make_pair(params)
    rng = np.random.default_rng(params["seed"])
    a = PointCloud(rng.random((params["n_a"], params["dim"])))
    alone = build_rips_pair(a, None, r_max=r_max, k_max=2)
    for degree in range(0, 3):
        if degree > max(alone.max_dim, 0):
            continue
        with_b, without = (
            compute_mixup_barcode(pair, degree, clamp=r_max).values[:, [0, 2]].tolist() for pair in (fp, alone)
        )
        assert sorted(map(tuple, with_b)) == sorted(map(tuple, without))


@settings(max_examples=40, deadline=None)
@given(instances)
def test_restriction_matches_standalone_build(params):
    fp, r_max = make_pair(params)
    rng = np.random.default_rng(params["seed"])
    a = PointCloud(rng.random((params["n_a"], params["dim"])))
    alone = build_rips_pair(a, None, r_max=r_max, k_max=2)
    # equal boundaries from the vertices up mean equal vertex sets
    assert restrict_to_L(fp) == alone


@settings(max_examples=40, deadline=None)
@given(instances)
def test_persistence_splits_exactly(params):
    """Total persistence = image persistence + mixup, exactly, checked
    in rational arithmetic on the clamped values."""
    fp, r_max = make_pair(params)
    clamp = Fraction(r_max)
    for degree in range(0, 3):
        if degree > max(fp.max_dim, 0):
            continue
        bc = compute_mixup_barcode(fp, degree, clamp=r_max)
        pers = image = mix = Fraction(0)
        for row in bc.clamped.tolist():
            b, dp, d = map(Fraction, row)
            pers += d - b
            image += dp - b
            mix += d - dp
        assert pers == image + mix
        assert mix >= 0
        assert image >= 0


@settings(max_examples=30, deadline=None)
@given(instances)
def test_smaller_clamp_never_increases_mixup(params):
    fp, r_max = make_pair(params)
    for degree in (0, 1):
        if degree > max(fp.max_dim, 0):
            continue
        low = compute_mixup_barcode(fp, degree, clamp=r_max * 0.5)
        high = compute_mixup_barcode(fp, degree, clamp=r_max)
        assert total_mixup(low) <= total_mixup(high)


@settings(max_examples=25, deadline=None)
@given(instances)
def test_rank_functions_are_monotone(params):
    fp, _ = make_pair(params, k_max=1)
    n = fp.n
    for mode in ("standard_L", "image"):
        grid = rank_function(fp, 0, mode)
        # non-decreasing in i (rows), non-increasing in j (columns)
        for j in range(1, n + 1):
            col = grid[1 : j + 1, j]
            assert (np.diff(col) >= 0).all()
        for i in range(1, n + 1):
            row = grid[i, i:n]
            if row.size > 1:
                assert (np.diff(row) <= 0).all()


@settings(max_examples=40, deadline=None)
@given(instances)
def test_index_deaths_follow_membership(params):
    """An index-level image death is always an ambient or subcomplex cell
    of the right dimension, finite deaths pair distinct cells, and each
    value is the value of the cell its id names, inf for an inf id."""
    fp, _ = make_pair(params)
    for degree in (0, 1):
        if degree > max(fp.max_dim, 0):
            continue
        ids = mixup_barcode_indices(fp, degree)
        b, dp, d = (col[col != INF].astype(np.int64) - 1 for col in ids.T)
        assert len(np.unique(d)) == len(d) and len(np.unique(dp)) == len(dp)
        assert (fp.dim[b] == degree).all() and fp.in_l[b].all()
        assert (fp.dim[d] == degree + 1).all() and fp.in_l[d].all()
        assert (fp.dim[dp] == degree + 1).all()
        bc, value = compute_mixup_barcode(fp, degree), fp.value.tolist()
        assert bc.values.tolist() == [
            [INF if c == INF else value[int(c) - 1] for c in row] for row in bc.index_triples.tolist()
        ]


@settings(max_examples=60, deadline=None)
@given(instances, st.integers(0, 3), st.sets(st.integers(0, 3), min_size=1))
@example({"seed": 0, "n_a": 6, "n_b": 0, "dim": 2, "scale": 1.2}, 0, {0, 1, 2, 3})  # empty B
@example({"seed": 0, "n_a": 5, "n_b": 3, "dim": 2, "scale": 0.01}, 0, {0, 1, 2})  # no edges
@example({"seed": 1, "n_a": 5, "n_b": 3, "dim": 2, "scale": 0.15}, 0, {0, 1, 3})  # no triangles
@example({"seed": 0, "n_a": 4, "n_b": 3, "dim": 2, "scale": 0.5}, 3, {0, 1, 2, 3})  # 3 duplicates
def test_one_build_serves_every_degree(params, copies, degrees):
    """Each degree k of one build up to max(degrees) + 1 has the values, row
    for row, of a build that stops at k + 1. The ids of index_triples may
    differ, since the taller build has more cells. The last `copies` points
    repeat the first ones."""
    rng = np.random.default_rng(params["seed"])
    n = params["n_a"] + params["n_b"]
    pts = rng.random((n, params["dim"]))
    copies = min(copies, n // 2)
    pts[n - copies :] = pts[:copies]
    dist = pairwise_distances(pts)
    config = StatsConfig(r_max=float(params["scale"] * np.sqrt(params["dim"])))
    shared = interaction_barcode(dist, params["n_a"], sorted(degrees), config)
    assert sorted(shared) == sorted(degrees)
    for k in degrees:
        alone = interaction_barcode(dist, params["n_a"], [k], config)[k]
        assert np.array_equal(shared[k].values, alone.values)


@settings(max_examples=60, deadline=None)
@given(instances, st.integers(0, 3))
def test_euler_poincare_on_rips_pairs(params, k_max):
    fp, _ = make_pair(params, k_max=k_max)
    assert euler_poincare_mismatches(fp) == []


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_euler_poincare_on_explicit_pairs(seed):
    fp = random_explicit_instance(np.random.default_rng(seed))
    assert euler_poincare_mismatches(fp) == []


def test_euler_poincare_past_the_oracle():
    """A Rips pair of 69,991 cells up to dim 4, too large for the oracle."""
    pts = np.random.default_rng(0).normal(size=(200, 3))
    fp = build_rips_pair(PointCloud(pts[:160]), PointCloud(pts[160:]), r_max=1.1, k_max=3)
    assert fp.n > 30 * SIZE_GUARD and fp.max_dim == 4
    assert euler_poincare_mismatches(fp) == []
