"""Sampler tests: exact cardinality, exact marginal law, reproducibility."""

import numpy as np
import pytest

from coreselect.hypersimplex import HypersimplexPoint, InfeasiblePointError, euclidean_project
from coreselect.sampling import (
    draw,
    expected_set_value,
    madow_marginal_measure,
    madow_sample,
    madow_support,
)


def _point(p, k):
    p = np.asarray(p, dtype=float)
    return HypersimplexPoint(p.size, k, p)


def _random_point(n, k, rng):
    return euclidean_project(rng.random(n) * 2.0 - 0.5, k)


def searchsorted_oracle(p, u_values, k):
    """Independent vectorized selection: grid point u + i lands in the
    interval located by a binary search over the prefix sums."""
    prefix = np.concatenate([[0.0], np.cumsum(p)])
    prefix[-1] = k
    grids = np.asarray(u_values)[:, None] + np.arange(k)[None, :]
    return np.searchsorted(prefix, grids, side="right") - 1


def test_integral_p_selects_its_support():
    assert madow_sample(_point([1.0, 1.0, 0.0, 0.0], 2), 0.0) == (0, 1)
    assert madow_sample(_point([1.0, 1.0, 0.0, 0.0], 2), 0.99) == (0, 1)


def test_hand_traced_selection():
    # prefix sums (0.5, 1.0, 1.5, 2.0) with u = 0.3 pick grid points 0.3, 1.3
    assert madow_sample(_point([0.5, 0.5, 0.5, 0.5], 2), 0.3) == (0, 2)


def test_rejects_bad_u_and_infeasible_p():
    pt = _point([0.5, 0.5, 0.5, 0.5], 2)
    with pytest.raises(ValueError):
        madow_sample(pt, 1.0)
    with pytest.raises(ValueError):
        madow_sample(pt, -0.1)
    with pytest.raises(InfeasiblePointError):
        madow_sample(_point([0.9, 0.9, 0.9, 0.9], 2), 0.5)
    # NaN fails both the range check and the sum check
    with pytest.raises(InfeasiblePointError):
        madow_sample(_point([0.5, np.nan, 0.5, 1.0], 2), 0.3)
    with pytest.raises(InfeasiblePointError):
        madow_sample(_point([np.nan] * 4, 2), 0.3)


def test_exact_cardinality_property():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(1, 40))
        k = int(rng.integers(1, n + 1))
        pt = _random_point(n, k, rng)
        sel = madow_sample(pt, float(rng.random()))
        assert len(sel) == k
        assert len(set(sel)) == k
        assert all(0 <= j < n for j in sel)


def test_draw_is_reproducible_and_returns_u():
    pt = _point([0.9, 0.7, 0.3, 0.1], 2)
    s1, u1 = draw(pt, np.random.default_rng(42))
    s2, u2 = draw(pt, np.random.default_rng(42))
    assert s1 == s2 and u1 == u2
    assert madow_sample(pt, u1) == s1


def test_k_equals_n_gives_full_set():
    pt = _point([1.0, 1.0, 1.0], 3)
    assert madow_sample(pt, 0.37) == (0, 1, 2)


def test_marginal_law_exact():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(2, 30))
        k = int(rng.integers(1, n + 1))
        pt = _random_point(n, k, rng)
        measure = madow_marginal_measure(pt)
        np.testing.assert_allclose(measure, pt.p, atol=1e-12)


def test_support_probabilities_sum_to_one():
    rng = np.random.default_rng(2)
    pt = _random_point(12, 5, rng)
    support = madow_support(pt)
    assert abs(sum(w for w, _ in support) - 1.0) < 1e-12
    assert all(len(s) == 5 for _, s in support)


def test_expected_set_value_matches_direct_sum():
    rng = np.random.default_rng(3)
    w = rng.random(8)
    pt = _random_point(8, 3, rng)
    got = expected_set_value(pt, lambda s: float(sum(w[list(s)])))
    np.testing.assert_allclose(got, float(w @ pt.p), atol=1e-12)


def test_monte_carlo_inclusion_frequencies():
    # frequencies over many draws stay within a 4-sigma binomial envelope
    p = np.array([0.9, 0.7, 0.3, 0.1])
    pt = _point(p, 2)
    rng = np.random.default_rng(4)
    m = 200_000
    counts = np.zeros(4)
    for _ in range(m):
        for j in madow_sample(pt, float(rng.random())):
            counts[j] += 1
    freq = counts / m
    sigma = np.sqrt(p * (1 - p) / m)
    assert np.all(np.abs(freq - p) <= 4.0 * sigma)


def test_agrees_with_searchsorted_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 25))
        k = int(rng.integers(1, n + 1))
        pt = _random_point(n, k, rng)
        us = rng.random(50)
        oracle = searchsorted_oracle(pt.p, us, k)
        for row, u in zip(oracle, us):
            assert madow_sample(pt, float(u)) == tuple(sorted(int(x) for x in row))


def test_uniform_p_selects_everyone_equally():
    pt = _point([0.5] * 4, 2)
    rng = np.random.default_rng(6)
    counts = np.zeros(4)
    m = 20_000
    for _ in range(m):
        for j in madow_sample(pt, float(rng.random())):
            counts[j] += 1
    np.testing.assert_allclose(counts / m, 0.5, atol=4 * np.sqrt(0.25 / m))
