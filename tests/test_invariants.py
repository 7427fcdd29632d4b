"""Property tests for the structural invariants of the decomposition."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mixbar import (
    INF,
    PointCloud,
    build_rips_pair,
    compute_mixup_barcode,
    mixup_barcode_indices,
    rank_function,
    total_mixup,
)
from mixbar.oracle import SIZE_GUARD
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
        for t in mixup_barcode_indices(fp, degree):
            assert t.birth <= t.death_image <= t.death


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
        with_b = (
            sorted(
                (t.birth, t.death)
                for t in compute_mixup_barcode(fp, degree, clamp=r_max).triples
            )
            if degree <= max(fp.max_dim, 0)
            else []
        )
        without = sorted(
            (t.birth, t.death)
            for t in compute_mixup_barcode(alone, degree, clamp=r_max).triples
        )
        assert with_b == without


@settings(max_examples=40, deadline=None)
@given(instances)
def test_restriction_matches_standalone_build(params):
    fp, r_max = make_pair(params)
    rng = np.random.default_rng(params["seed"])
    a = PointCloud(rng.random((params["n_a"], params["dim"])))
    alone = build_rips_pair(a, None, r_max=r_max, k_max=2)
    sub = restrict_to_L(fp)
    # equal boundaries from the vertices up mean equal vertex sets
    assert [(c.dim, c.value, c.boundary) for c in sub.cells] == [
        (c.dim, c.value, c.boundary) for c in alone.cells
    ]


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
    for mode in ("standard_L", "image"):
        rf = rank_function(fp, 0, mode)
        grid = rf.grid
        n = rf.n
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
    of the right dimension, and finite deaths pair distinct cells."""
    fp, _ = make_pair(params)
    for degree in (0, 1):
        if degree > max(fp.max_dim, 0):
            continue
        triples = mixup_barcode_indices(fp, degree)
        deaths = [t.death for t in triples if t.death != INF]
        assert len(set(deaths)) == len(deaths)
        image_deaths = [t.death_image for t in triples if t.death_image != INF]
        assert len(set(image_deaths)) == len(image_deaths)
        for t in triples:
            assert fp.cells[t.birth - 1].dim == degree
            assert fp.cells[t.birth - 1].member == "L"
            if t.death != INF:
                killer = fp.cells[t.death - 1]
                assert killer.dim == degree + 1
                assert killer.member == "L"
            if t.death_image != INF:
                assert fp.cells[t.death_image - 1].dim == degree + 1


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
