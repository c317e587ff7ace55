"""Sampler tests: exact cardinality, exact marginal law, reproducibility."""

import numpy as np
import pytest

from coreselect.hypersimplex import (
    InfeasiblePointError,
    entropic_ftrl_argmax,
    euclidean_project,
)
from coreselect.oracles import expected_set_value, madow_marginal_measure, madow_support
from coreselect.sampling import _prefix_sums, draw, madow_sample


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
    assert madow_sample([1.0, 1.0, 0.0, 0.0], 2, 0.0).tolist() == [0, 1]
    assert madow_sample([1.0, 1.0, 0.0, 0.0], 2, 0.99).tolist() == [0, 1]


def test_hand_traced_selection():
    # prefix sums (0.5, 1.0, 1.5, 2.0) with u = 0.3 pick grid points 0.3, 1.3
    sel = madow_sample(np.array([0.5, 0.5, 0.5, 0.5]), 2, 0.3)
    assert sel.shape == (2,) and sel.dtype.kind == "i" and sel.tolist() == [0, 2]


def test_rejects_bad_u_and_infeasible_p():
    p = [0.5, 0.5, 0.5, 0.5]
    with pytest.raises(ValueError):
        madow_sample(p, 2, 1.0)
    with pytest.raises(ValueError):
        madow_sample(p, 2, -0.1)
    with pytest.raises(InfeasiblePointError):
        madow_sample([0.9, 0.9, 0.9, 0.9], 2, 0.5)
    # NaN fails both the range check and the sum check
    with pytest.raises(InfeasiblePointError):
        madow_sample([0.5, np.nan, 0.5, 1.0], 2, 0.3)
    with pytest.raises(InfeasiblePointError):
        madow_sample([np.nan] * 4, 2, 0.3)


def test_exact_cardinality_property():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(1, 40))
        k = int(rng.integers(1, n + 1))
        p = _random_point(n, k, rng)
        sel = madow_sample(p, k, float(rng.random())).tolist()
        assert len(sel) == k
        assert len(set(sel)) == k
        assert all(0 <= j < n for j in sel)


def test_draw_is_reproducible_and_uses_one_uniform():
    p = np.array([0.9, 0.7, 0.3, 0.1])
    s1 = draw(p, 2, np.random.default_rng(42))
    s2 = draw(p, 2, np.random.default_rng(42))
    assert s1.tolist() == s2.tolist()
    u = np.random.default_rng(42).random()
    assert madow_sample(p, 2, u).tolist() == s1.tolist()


def test_k_equals_n_gives_full_set():
    assert madow_sample(np.array([1.0, 1.0, 1.0]), 3, 0.37).tolist() == [0, 1, 2]


def test_marginal_law_exact():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(2, 30))
        k = int(rng.integers(1, n + 1))
        p = _random_point(n, k, rng)
        measure = madow_marginal_measure(p, k)
        np.testing.assert_allclose(measure, p, atol=1e-12)


def test_support_probabilities_sum_to_one():
    rng = np.random.default_rng(2)
    p = _random_point(12, 5, rng)
    support = madow_support(p, 5)
    assert abs(sum(w for w, _ in support) - 1.0) < 1e-12
    assert all(len(s) == 5 for _, s in support)


def test_expected_set_value_matches_direct_sum():
    rng = np.random.default_rng(3)
    w = rng.random(8)
    p = _random_point(8, 3, rng)
    got = expected_set_value(p, 3, lambda s: float(sum(w[list(s)])))
    np.testing.assert_allclose(got, float(w @ p), atol=1e-12)


def test_monte_carlo_inclusion_frequencies():
    # frequencies over many draws stay within a 4-sigma binomial envelope
    p = np.array([0.9, 0.7, 0.3, 0.1])
    rng = np.random.default_rng(4)
    m = 200_000
    counts = np.zeros(4)
    for _ in range(m):
        for j in madow_sample(p, 2, float(rng.random())):
            counts[j] += 1
    freq = counts / m
    sigma = np.sqrt(p * (1 - p) / m)
    assert np.all(np.abs(freq - p) <= 4.0 * sigma)


def test_agrees_with_searchsorted_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 25))
        k = int(rng.integers(1, n + 1))
        p = _random_point(n, k, rng)
        us = rng.random(50)
        oracle = searchsorted_oracle(p, us, k)
        for row, u in zip(oracle, us):
            assert madow_sample(p, k, float(u)).tolist() == sorted(int(x) for x in row)


def test_uniform_p_selects_everyone_equally():
    p = np.array([0.5] * 4)
    rng = np.random.default_rng(6)
    counts = np.zeros(4)
    m = 20_000
    for _ in range(m):
        for j in madow_sample(p, 2, float(rng.random())):
            counts[j] += 1
    np.testing.assert_allclose(counts / m, 0.5, atol=4 * np.sqrt(0.25 / m))


def falls_back(p, k, u):
    """Whether the prefix-sum sweep alone chooses fewer than k elements."""
    grid = np.ceil(_prefix_sums(p.clip(0.0, 1.0), k) - u)
    return int((grid[1:] > grid[:-1]).sum()) < k


def fallback_cases(n, k, count, rng):
    """(p, u) pairs where an interval boundary lands within a few ulps of a
    grid point, so the sampler's fallback fills the set."""
    cases = []
    while len(cases) < count:
        p = entropic_ftrl_argmax(rng.standard_normal(n), 3.0, k)  # some caps
        for a in _prefix_sums(p, k)[1:-1]:
            frac = a - np.floor(a)
            hits = [u for u in frac + np.arange(-4, 5) * np.spacing(frac)
                    if 0.0 <= u < 1.0 and falls_back(p, k, u)]
            if hits:
                cases.append((p, float(hits[0])))
                break
    return cases


def test_block_of_points_samples_each_row_as_alone():
    rng = np.random.default_rng(8)
    n, k = 12, 6
    rows = [_random_point(n, k, rng) for _ in range(20)]
    us = list(rng.random(20))
    rows += [np.r_[np.ones(k), np.zeros(n - k)], np.full(n, k / n)]
    us += [0.0, 0.999]
    for p, u in fallback_cases(n, k, 3, rng):
        rows.append(p)
        us.append(u)
    block = np.array(rows)
    want = [madow_sample(p, k, u).tolist() for p, u in zip(rows, us)]
    got = madow_sample(block, k, np.array(us))
    assert got.shape == (len(rows), k) and got.dtype.kind == "i"
    assert got.tolist() == want
    # the draws a block takes are the ones its rows would take one by one
    single = np.random.default_rng(9)
    assert draw(block, k, np.random.default_rng(9)).tolist() == [
        draw(p, k, single).tolist() for p in rows]


def test_a_point_just_outside_the_box_draws_as_its_clip():
    # unclipped, the interval of element 2 would start below the end of
    # element 0's, and u = 0.4999997 would choose 3 elements
    p = np.array([0.5, -5e-7, 0.5 + 5e-7, 1.0])
    us = [0.0, 0.25, 0.4999997, 0.75]
    for u in us:
        assert madow_sample(p, 2, u).tolist() == madow_sample(p.clip(0.0, 1.0), 2, u).tolist()
    assert madow_sample(np.array([p, p]), 2, np.array(us[2:])).tolist() == [
        madow_sample(p.clip(0.0, 1.0), 2, u).tolist() for u in us[2:]]


def test_block_rejects_what_a_row_rejects():
    good = [0.5] * 4
    with pytest.raises(ValueError, match="need 2 draws"):
        madow_sample(np.array([good, good]), 2, np.array([0.3]))
    with pytest.raises(ValueError, match="u must lie"):
        madow_sample(np.array([good, good]), 2, np.array([0.3, 1.0]))
    # the last two clip to a sum of exactly k: only the range of the point
    # as given rejects them
    for bad in ([0.5, np.nan, 0.5, 0.5], [0.9, 0.9, 0.9, 0.9], [1.5, 0.5, 0.0, 0.0],
                [1.5, -0.5, 1.0, 0.0], [1.2, -0.2, 1.0, 0.0]):
        with pytest.raises(InfeasiblePointError):
            madow_sample(bad, 2, 0.3)
        with pytest.raises(InfeasiblePointError):
            madow_sample(np.array([good, bad]), 2, np.array([0.3, 0.3]))


def test_the_sampler_alone_pins_the_total():
    # the solvers only clip, so the sampler's check is the one on a point's
    # sum: an integral point one short of k raises, alone or as a block row
    n, k = 6, 3
    short = (np.arange(n) < k - 1).astype(float)
    good = np.full(n, k / n)
    with pytest.raises(InfeasiblePointError, match="is not within 1e-06 of k"):
        madow_sample(short, k, 0.3)
    with pytest.raises(InfeasiblePointError, match="is not within 1e-06 of k"):
        madow_sample(np.array([good, short, good]), k, np.full(3, 0.3))
    # a total off by less than the tolerance draws exactly k distinct indices
    us = np.r_[np.linspace(0.0, 1.0, 64, endpoint=False), 1.0 - 5e-7, np.nextafter(1.0, 0.0)]
    under, over = short.copy(), short.copy()
    under[k - 1] = 1.0 - 5e-7
    over[k - 1:k + 1] = 1.0, 5e-7
    for p in (good + 5e-7 / n, good - 5e-7 / n, under, over):
        assert abs(p.sum() - k) > 4e-7
        for u in us.tolist():
            assert len(set(madow_sample(p, k, u).tolist())) == k
        got = madow_sample(np.tile(p, (len(us), 1)), k, us)
        assert all(len(set(row)) == k for row in got.tolist())


def test_an_empty_block_draws_no_sets():
    # a block of no points takes no draws and gives a (0, k) index array,
    # as a block of rows gives (B, k)
    for n, k in ((4, 2), (1, 1)):
        got = madow_sample(np.zeros((0, n)), k, np.zeros(0))
        assert got.shape == (0, k) and got.dtype.kind == "i"
        got = draw(np.zeros((0, n)), k, np.random.default_rng(0))
        assert got.shape == (0, k) and got.dtype.kind == "i"
    with pytest.raises(ValueError, match="0 points need 0 draws"):
        madow_sample(np.zeros((0, 4)), 2, np.zeros(1))


def support_loop(p, k):
    """The support written out, with each interval's draw: one draw of the
    point per u-interval, at its midpoint, clamped below 1 for a sub-ulp
    segment."""
    pts = np.unique(np.concatenate([[0.0, 1.0], np.mod(_prefix_sums(p, k), 1.0)]))
    top = np.nextafter(1.0, 0.0)
    mids = [min(0.5 * (lo + hi), top) for lo, hi in zip(pts[:-1], pts[1:])]
    return [(float(hi - lo), u, madow_sample(p, k, u))
            for lo, hi, u in zip(pts[:-1], pts[1:], mids)]


def test_support_in_one_draw_equals_one_draw_per_interval():
    rng = np.random.default_rng(10)
    ulp = np.spacing(1.0) / 2  # 1 - ulp is the float below 1
    points = [
        (np.array([1.0 - ulp, ulp, 0.0]), 1),  # the segment [1 - ulp, 1]: its midpoint rounds to 1
        (np.ones(5), 5),  # k = n
        (np.array([1.0]), 1),  # n = 1
    ]
    # enough random points that the order of some measure's sums shows
    points += [(_random_point(12, 5, rng), 5) for _ in range(100)]
    points += [(p, 6) for p, _ in fallback_cases(12, 6, 3, rng)]
    for p, k in points:
        want = support_loop(p, k)
        got = madow_support(p, k)
        assert [w for w, _ in got] == [w for w, _, _ in want]
        assert [s.tolist() for _, s in got] == [s.tolist() for _, _, s in want]
        # each set of an interval wider than a few ulps is the one the binary
        # search over the prefix sums finds at its midpoint (in a narrower
        # one, the rounding of u + i moves the search's grid points)
        wide = [(u, s.tolist()) for (w, u, _), (_, s) in zip(want, got) if w > 1e-12]
        oracle = searchsorted_oracle(p, [u for u, _ in wide], k)
        assert [s for _, s in wide] == oracle.tolist()
        measure = np.zeros(len(p))
        for length, _, sel in want:
            measure[sel] += length
        assert madow_marginal_measure(p, k).tobytes() == measure.tobytes()
