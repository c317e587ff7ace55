"""Solver tests against independent brute-force oracles."""

import math
import warnings

import numpy as np
import pytest

from coreselect.hypersimplex import (
    InfeasiblePointError,
    QuadraticObjective,
    _entropic_few,
    afw_minimize,
    entropic_ftrl_argmax,
    euclidean_project,
    lmo,
)
from coreselect.oracles import (
    enumerate_lmo_value,
    enumerate_projection,
    exact_projection,
    validate_point,
)

RNG = np.random.default_rng(7)
# a tolerance of a few rounding steps of a coordinate in [0, 1]
EXACT_TOL = 8 * np.finfo(float).eps


# ---------------------------------------------------------------------------
# Oracles (independent of the implementations under test).

def project_bisect(y, k, iters=200):
    """Projection via bisection on the threshold; used only inside the
    projected-gradient oracle below."""
    lo, hi = y.min() - 2.0, y.max() + 2.0
    for _ in range(iters):
        tau = 0.5 * (lo + hi)
        if np.clip(y - tau, 0.0, 1.0).sum() > k:
            lo = tau
        else:
            hi = tau
    return np.clip(y - 0.5 * (lo + hi), 0.0, 1.0)


def entropic_argmax_pgd(theta, eta, k, step=0.1, tol=1e-10, iters=60000):
    """Projected gradient ascent on the entropic objective."""
    n = len(theta)
    p = np.full(n, k / n)
    for _ in range(iters):
        grad = theta - (1.0 / eta) * (np.log(np.maximum(p, 1e-300)) + 1.0)
        q = project_bisect(p + step * grad, k, iters=80)
        if np.linalg.norm(q - p) < tol:
            return q
        p = q
    return p


def entropic_argmax_scalar_bisect(theta, eta, k, iters=200):
    """Second oracle: bisection on the KKT multiplier c with
    p_i = min(1, c * exp(eta * theta_i))."""
    e = np.exp(eta * theta - np.max(eta * theta))
    lo, hi = 0.0, float(k / e.sum() + k + 1.0)
    while np.minimum(1.0, hi * e).sum() < k:
        hi *= 2.0
    for _ in range(iters):
        c = 0.5 * (lo + hi)
        if np.minimum(1.0, c * e).sum() < k:
            lo = c
        else:
            hi = c
    return np.minimum(1.0, 0.5 * (lo + hi) * e)


# ---------------------------------------------------------------------------
# Entropic argmax.

def test_entropic_zero_scores_gives_uniform():
    p = entropic_ftrl_argmax(np.zeros(4), 1.0, 2)
    np.testing.assert_allclose(p, 0.5)


def test_entropic_k_equals_n_is_all_ones():
    p = entropic_ftrl_argmax(np.array([3.0, -1.0, 0.2]), 2.0, 3)
    np.testing.assert_allclose(p, 1.0)


def test_entropic_known_value():
    # frozen from a projected-gradient solve iterated to ||dp|| < 1e-10
    p = entropic_ftrl_argmax(np.array([1.0, 0.0, 0.0, 0.0]), 1.0, 2)
    np.testing.assert_allclose(
        p, [0.95073377, 0.34975541, 0.34975541, 0.34975541], atol=1e-6
    )


def test_entropic_matches_projected_gradient():
    theta = np.array([1.0, 0.0, 0.0, 0.0])
    got = entropic_ftrl_argmax(theta, 1.0, 2)
    want = entropic_argmax_pgd(theta, 1.0, 2, step=0.05)
    np.testing.assert_allclose(got, want, atol=1e-6)


@pytest.mark.parametrize("trial", range(12))
def test_entropic_matches_scalar_bisection(trial):
    rng = np.random.default_rng(100 + trial)
    n = int(rng.integers(3, 20))
    k = int(rng.integers(1, n))
    eta = float(rng.uniform(0.1, 3.0))
    theta = rng.standard_normal(n) * 2.0
    got = entropic_ftrl_argmax(theta, eta, k)
    want = entropic_argmax_scalar_bisect(theta, eta, k)
    np.testing.assert_allclose(got, want, atol=1e-9)


def test_entropic_feasibility_and_kkt():
    for trial in range(60):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(2, 30))
        k = int(rng.integers(1, n + 1))
        theta = rng.standard_normal(n) * float(rng.uniform(0.1, 20))
        p = entropic_ftrl_argmax(theta, float(rng.uniform(0.05, 5.0)), k)
        validate_point(p, k, tol=1e-9)
        eta = 1.0  # recompute with the eta actually used
        # complementarity: log p - eta * theta constant on uncapped coordinates
        p = entropic_ftrl_argmax(theta, eta, k)
        free = p < 1.0 - 1e-9
        if free.sum() >= 2:
            c = np.log(p[free]) - eta * theta[free]
            assert c.max() - c.min() < 1e-7


def test_entropic_wide_score_spread_does_not_underflow():
    # exp(-800) underflows at the top score's scale: the tail sums of the
    # uncapped coordinates vanished and the solve raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = entropic_ftrl_argmax(np.array([800.0, 0.0, 0.0, 0.0, 0.0, 0.0]), 1.0, 3)
    np.testing.assert_allclose(p, [1.0, 0.4, 0.4, 0.4, 0.4, 0.4], rtol=1e-12)


@pytest.mark.parametrize("scale", [1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6])
def test_entropic_kkt_form_at_every_score_scale(scale):
    rng = np.random.default_rng(int(np.log10(scale)) + 300)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        k = int(rng.integers(1, n))
        eta = float(rng.uniform(0.1, 3.0))
        theta = rng.standard_normal(n) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = entropic_ftrl_argmax(theta, eta, k)
        validate_point(p, k, tol=1e-9)
        # p = min(1, c * exp(eta * theta)), with c read off the largest
        # uncapped coordinate j: p_j = c * exp(s_j)
        s = eta * theta
        free = p < 1.0
        j = int(np.argmax(np.where(free, s, -np.inf)))
        assert np.all(s[~free] >= s[j])
        np.testing.assert_allclose(p[free], p[j] * np.exp(s[free] - s[j]),
                                   rtol=1e-9, atol=1e-12)
        # capped coordinates have c * exp(s_i) >= 1 (unreadable once p_j
        # itself is below the smallest double)
        if p[j] > 0.0:
            capped = p[j] * np.exp(np.minimum(s[~free] - s[j], 700.0))
            assert np.all(capped >= 1.0 - 1e-9)

def test_entropic_monotone_in_scores():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n, k = 8, 3
        theta = rng.standard_normal(n)
        base = entropic_ftrl_argmax(theta, 1.2, k)
        i = int(rng.integers(n))
        bumped = theta.copy()
        bumped[i] += float(rng.uniform(0.01, 2.0))
        assert entropic_ftrl_argmax(bumped, 1.2, k)[i] >= base[i] - 1e-12


def test_entropic_rejects_bad_input():
    with pytest.raises(ValueError):
        entropic_ftrl_argmax(np.array([np.nan, 0.0]), 1.0, 1)
    with pytest.raises(ValueError):
        entropic_ftrl_argmax(np.zeros(3), -1.0, 1)
    for eta in (np.nan, np.inf):
        with pytest.raises(ValueError, match="eta must be positive and finite"):
            entropic_ftrl_argmax(np.zeros(3), eta, 1)
    with pytest.raises(ValueError):
        entropic_ftrl_argmax(np.zeros(3), 1.0, 4)
    # non-finite scores, in one vector, in a block row and in the few-rows
    # body, which checks them only in its branch for wide spreads; that
    # branch names them before any infinities are subtracted, so without a
    # warning
    for bad in (np.inf, -np.inf, np.nan):
        for theta in (np.array([bad, 0.0, 1.0]), np.full(3, bad)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for solve, scores in ((entropic_ftrl_argmax, theta),
                                      (_entropic_few, theta[None])):
                    with pytest.raises(ValueError, match="theta contains non-finite entries"):
                        solve(scores, 1.0, 2)
                with pytest.raises(ValueError, match="theta contains non-finite entries"):
                    entropic_ftrl_argmax(np.array([np.zeros(3), theta]), 1.0, 2)
    # eta * theta overflows at the top score, in one vector, in a block row
    # and in the few-rows body
    theta = np.array([2.0, 2.0, 0.0, 1.0])
    for solve, scores in ((entropic_ftrl_argmax, theta),
                          (entropic_ftrl_argmax, np.array([np.zeros(4), theta])),
                          (_entropic_few, theta[None])):
        with pytest.raises(ValueError, match="eta \\* theta overflows"), \
                np.errstate(over="ignore", invalid="ignore"):
            solve(scores, 1e308, 2)


def test_entropic_overflow_is_named_without_a_warning():
    # eta * theta past the float range: the named error, and no numpy
    # warning before it, from one vector, the few-rows body (1 and 2 rows)
    # and the row body (10 rows)
    theta = np.array([100.0, 200.0, 300.0, 50.0])
    for scores in (theta, theta[None], np.array([np.zeros(4), theta]),
                   np.tile(theta, (10, 1)), np.vstack([np.zeros((9, 4)), theta])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="eta \\* theta overflows"):
                entropic_ftrl_argmax(scores, 1e306, 2)


# ---------------------------------------------------------------------------
# Euclidean projection.

def test_project_feasible_point_is_fixed():
    p = np.array([0.4, 0.8, 0.3, 0.5])
    np.testing.assert_allclose(euclidean_project(p, 2), p, atol=1e-12)


def test_project_known_value():
    p = euclidean_project(np.array([2.0, 0.5, 0.5, -1.0]), 2)
    np.testing.assert_allclose(p, [1.0, 0.5, 0.5, 0.0], atol=1e-12)


def test_project_constant_vector_gives_uniform():
    p = euclidean_project(np.full(5, 3.7), 2)
    np.testing.assert_allclose(p, 0.4, atol=1e-12)


def test_project_matches_enumeration():
    rng = np.random.default_rng(11)
    cases = []
    for _ in range(120):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n + 1))
        cases.append((rng.standard_normal(n) * 2.5, k))
    for n in range(2, 8):
        for k in range(1, n + 1):
            # integer scores tie with each other and with each other's y - 1
            cases.append((rng.integers(-1, 3, n).astype(float), k))
            cases.append((np.full(n, rng.standard_normal()), k))
            cases.append((rng.standard_normal(n) * 1e6, k))
    for y, k in cases:
        got = euclidean_project(y, k)
        want = enumerate_projection(y, k)
        assert np.linalg.norm(got - want) < 1e-8, (y, k)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1.0, 1e8, 1e16, 1e20, 1e100, 1e300, 5e307])
def test_project_is_exact_at_every_scale(scale):
    # spread wide, the projection is the top-2 vertex; no sum over the
    # scores may round it away (at 5e307 their differences overflow)
    rng = np.random.default_rng(7)
    for _ in range(200):
        y = rng.standard_normal(6) * scale
        want = np.array([float(f) for f in exact_projection(y, 2)])
        np.testing.assert_allclose(euclidean_project(y, 2), want, rtol=0,
                                   atol=EXACT_TOL, err_msg=repr(y))


@pytest.mark.parametrize("n", [200, 2000])
def test_project_is_one_threshold_at_large_n(n):
    rng = np.random.default_rng(n)
    ys = [rng.standard_normal(n), rng.integers(-1, 3, n).astype(float), np.full(n, -0.7)]
    for y in ys:
        for k in (1, n // 7, n // 2, n - 1):
            p = euclidean_project(y, k)
            # every one of these inputs has coordinates strictly inside (0, 1)
            tau = float(np.mean((y - p)[(p > 0.0) & (p < 1.0)]))
            np.testing.assert_allclose(p, np.clip(y - tau, 0.0, 1.0), rtol=0, atol=1e-12)
            assert abs(float(p.sum()) - k) <= 1e-9


def test_project_idempotent_and_nonexpansive():
    rng = np.random.default_rng(12)
    for _ in range(40):
        n = int(rng.integers(2, 40))
        k = int(rng.integers(1, n + 1))
        y = rng.standard_normal(n) * 3
        z = rng.standard_normal(n) * 3
        py, pz = euclidean_project(y, k), euclidean_project(z, k)
        np.testing.assert_allclose(euclidean_project(py, k), py, atol=1e-9)
        assert np.linalg.norm(py - pz) <= np.linalg.norm(y - z) + 1e-9
        validate_point(euclidean_project(y, k), k, 1e-9)


def test_project_rejects_nonfinite():
    with pytest.raises(ValueError):
        euclidean_project(np.array([np.inf, 0.0]), 1)


# ---------------------------------------------------------------------------
# Linear minimization oracle.

def test_lmo_examples():
    np.testing.assert_array_equal(lmo(np.array([3.0, 1, 2, 4]), 2), [0, 1, 1, 0])
    np.testing.assert_array_equal(lmo(np.array([5.0, -2, 7]), 3), [1, 1, 1])
    # ties break toward the lowest index
    np.testing.assert_array_equal(lmo(np.array([1.0, 1, 1, 0]), 2), [1, 0, 0, 1])
    np.testing.assert_array_equal(lmo(np.array([2.0, 0, 1, 1, 1]), 3), [0, 1, 1, 1, 0])
    np.testing.assert_array_equal(lmo(np.array([3.0, 0.0, -0.0, 0.0]), 2), [0, 1, 1, 0])


def test_lmo_minimizes_over_all_vertices():
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, n + 1))
        cost = rng.standard_normal(n)
        got = float(cost @ lmo(cost, k))
        want = enumerate_lmo_value(cost, k)
        assert abs(got - want) < 1e-12


# ---------------------------------------------------------------------------
# Ties: lmo's default sort with a stable fallback against one stable sort,
# and the projection against exact arithmetic.

def project_breakpoint_sums_reference(y, k):
    """The projection as it was once solved, written out: one stable sort of
    all 2n breakpoints {y - 1, y}, then running sums of +y and -y over them
    (Wang & Lu 2015).  Those sums cancel, so it holds only at moderate scale."""
    n = y.size
    bps = np.concatenate([y - 1.0, y])
    order = np.argsort(bps, kind="stable")
    bps = bps[order]
    enters = order < n
    entered = np.cumsum(enters) - enters
    n_act = 2 * entered - np.arange(2 * n)
    act_sum = np.zeros(2 * n)
    act_sum[1:] = np.cumsum(np.concatenate([y, -y])[order[:-1]])
    s = (n - entered) + act_sum - n_act * bps
    m = int(np.argmax(s <= k + 1e-15))
    if n_act[m] > 0:
        tau = (n - entered[m] + act_sum[m] - k) / n_act[m]
    else:
        tau = bps[m]
    return np.clip(y - tau, 0.0, 1.0)


def lmo_stable_reference(cost, k):
    v = np.zeros(cost.size)
    v[np.argsort(cost, kind="stable")[:k]] = 1.0
    return v


def sort_inputs(n, rng):
    """Named inputs: no ties, and each way a tie can arise."""
    y = rng.standard_normal(n)
    collide = rng.standard_normal(n)
    collide[1::2] = collide[: n // 2 * 2: 2] - 1.0  # y_i - 1 == y_j exactly
    return {
        "random": y,
        "random-wide": y * 1e3,
        "integer-ties": rng.integers(-3, 4, n).astype(float),
        "constant": np.full(n, 0.7),
        "signed-zero": rng.choice([0.0, -0.0, 1.0, -1.0, 0.5], n),
        "collide": collide,
        "huge": y * 1e17,  # y - 1 rounds back to y
    }


@pytest.mark.parametrize("n", [20, 1000, 1025, 2000])
def test_default_sort_matches_the_stable_sort_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for name, y in sort_inputs(n, rng).items():
        bps = np.sort(np.concatenate([y - 1.0, y]))
        assert (bps[1:] == bps[:-1]).any() == (name not in ("random", "random-wide"))
        for k in (1, 5, n // 3, n - 1):
            # the projection reads only the values of its sorted candidates,
            # so no sort order reaches it: each tie is checked for the exact
            # answer instead
            want = np.array([float(f) for f in exact_projection(y, k)])
            np.testing.assert_allclose(euclidean_project(y, k), want, rtol=0,
                                       atol=EXACT_TOL, err_msg=f"{name}, k={k}")
            assert lmo(y, k).tobytes() == lmo_stable_reference(y, k).tobytes(), (name, k)
    # four signed zeros at ranks k-2..k+1: only the stable order decides the set
    cost = rng.standard_normal(n)
    k = n // 2
    cost -= np.sort(cost)[k]
    cost[cost.argsort()[k - 2:k + 2]] = [0.0, -0.0, -0.0, 0.0]
    assert lmo(cost, k).tobytes() == lmo_stable_reference(cost, k).tobytes()


@pytest.mark.parametrize("n", [1000, 2000])
def test_project_moves_only_by_rounding_from_the_breakpoint_sums(n):
    # solving over the candidates changed the numerics, not the answer: at
    # moderate scale p stays within the old sums' rounding of the old p
    rng = np.random.default_rng(n + 1)
    for scale in (0.3, 1.0, 3.0, 30.0):
        y = rng.standard_normal(n) * scale
        for k in (1, 5, n // 20, n // 3, n - 1):
            np.testing.assert_allclose(euclidean_project(y, k),
                                       project_breakpoint_sums_reference(y, k),
                                       rtol=0, atol=1e-11, err_msg=f"{scale}, k={k}")


@pytest.mark.parametrize("n", [20, 1000])
def test_lmo_of_a_block_is_each_row_alone(n):
    rng = np.random.default_rng(n + 2)
    # the last row has four signed zeros at ranks n/2-2..n/2+1
    cost = rng.standard_normal(n)
    cost -= np.sort(cost)[n // 2]
    cost[cost.argsort()[n // 2 - 2:n // 2 + 2]] = [0.0, -0.0, -0.0, 0.0]
    block = np.array(list(sort_inputs(n, rng).values()) + [cost])
    for k in (1, 5, n // 3, n // 2, n - 1, n):
        want = np.array([lmo_stable_reference(row, k) for row in block])
        assert lmo(block, k).tobytes() == want.tobytes(), k
    block[2, 3] = np.inf
    with pytest.raises(ValueError, match="cost contains non-finite entries"):
        lmo(block, 2)


def lmo_tie_rows(n, k, rng):
    """Rows of n costs with ties where the row LMO must see them: the k-th
    and (k+1)-th smallest equal, signed zeros there in either index order,
    and ties inside the k smallest with none at the boundary."""
    ranks = rng.permutation(n).astype(float)  # distinct costs 0..n-1
    boundary = np.where(ranks == k, k - 1.0, ranks)
    low = ranks - (k - 1)  # 0.0 at rank k-1 and 1.0 at rank k
    neg_first, pos_first = low.copy(), low.copy()
    neg_first[ranks == k - 1], neg_first[ranks == k] = -0.0, 0.0
    pos_first[ranks == k - 1], pos_first[ranks == k] = 0.0, -0.0
    inside = np.where(ranks < k, -1.0, ranks)  # the k smallest all tie
    zeros = np.where(ranks < k, rng.choice([0.0, -0.0], n), ranks)
    rows = [boundary, neg_first, pos_first, inside, zeros, np.full(n, 0.5),
            rng.choice([0.0, -0.0], n), rng.standard_normal(n)]
    # again, each with its entries in another order
    return np.array(rows + [row[rng.permutation(n)] for row in rows])


@pytest.mark.parametrize("n", [2, 20, 1000])
def test_row_lmo_on_ties_is_the_1d_lmo_bit_for_bit(n):
    rng = np.random.default_rng(n + 3)
    for k in sorted({1, n // 2, n - 1}):
        block = lmo_tie_rows(n, k, rng)
        got = lmo(block, k)
        for row, v in zip(block, got):
            assert v.tobytes() == lmo(row, k).tobytes(), (k, row)
            assert v.tobytes() == lmo_stable_reference(row, k).tobytes(), (k, row)
        # a block of one row, and rows of the block in another order
        assert lmo(block[:1], k).tobytes() == got[:1].tobytes()
        order = rng.permutation(len(block))
        assert lmo(block[order], k).tobytes() == got[order].tobytes()


def entropic_stable_reference(theta, eta, k):
    """The entropic argmax of one score vector with one stable sort, written out."""
    n = theta.size
    if k == n:
        return np.ones(n)
    s = eta * theta
    order = np.argsort(-s, kind="stable")
    d = s[order] - s[order[0]]
    if d[-1] >= -690.0:
        e = np.exp(d)
        rev = np.cumsum(e[::-1])
        c = np.arange(k, 0, -1) / rev[n - k:][::-1]
        j = int(np.argmax(c * e[:k] <= 1.0 + 1e-12))
        p_sorted = c[j] * e
        p_sorted[:j] = 1.0
    else:
        log_tail = np.logaddexp.accumulate(d[::-1])[::-1][:k] - d[:k]
        j = int(np.argmax((k - np.arange(k)) * np.exp(-log_tail) <= 1.0 + 1e-12))
        e = np.exp(d[j:] - d[j])
        p_sorted = np.ones(n)
        p_sorted[j:] = (k - j) / float(np.sum(e)) * e
    p = np.empty(n)
    p[order] = p_sorted
    return np.clip(p, 0.0, 1.0)


def straddling_ties(n, rng):
    """Scores for k = n - 1 where rounding caps one of two equal scores and
    not the other.  One top score, n - 3 equal ones at -a for a in [1e5, 1e7]
    and two lower ones whose exponentials add up to exp(-a): in exact
    arithmetic every equal score's cap test reads 1, below the 1 + 1e-12
    bound, but the log-space tail sums at -a carry rounding errors of 1e-11
    to 1e-9 (the spacing of doubles near a)."""
    for _ in range(1000):
        a = rng.uniform(1e5, 1e7)
        r = rng.uniform(0.2, 2.0)
        lower = [-a - r, -a + math.log1p(-math.exp(-r))]
        theta = np.array([0.0] + [-a] * (n - 3) + lower)[rng.permutation(n)]
        tied = entropic_stable_reference(theta, 1.0, n - 1)[theta == -a]
        if tied.min() < tied.max():
            return theta
    raise AssertionError("no scores with equal ones on both sides of the caps")


@pytest.mark.parametrize("n", [20, 1000, 1025, 2000])
def test_entropic_default_sort_matches_the_stable_sort_bit_for_bit(n):
    rng = np.random.default_rng(n + 1)
    inputs = sort_inputs(n, rng)
    inputs["signed-zero-only"] = rng.choice([0.0, -0.0], n)
    for k in (1, 5, n // 3, n - 1, n):
        for eta in (0.3, 40.0):
            rows = []
            for name, theta in inputs.items():
                want = entropic_stable_reference(theta, eta, k)
                got = entropic_ftrl_argmax(theta, eta, k)
                assert got.tobytes() == want.tobytes(), (name, k, eta)
                rows.append(want)
            # a block of score vectors gives each row's maximizer, bit for bit;
            # the block mixes tied, untied and underflowing ("huge") rows
            block = entropic_ftrl_argmax(np.array(list(inputs.values())), eta, k)
            assert block.shape == (len(rows), n)
            assert block.tobytes() == np.array(rows).tobytes(), (k, eta)
    # equal scores on both sides of the caps: only the stable order decides
    # which of them is capped
    block = np.array([inputs["random"], straddling_ties(n, rng),
                      straddling_ties(n, rng)])
    rows = [entropic_stable_reference(theta, 1.0, n - 1) for theta in block]
    for theta, want in zip(block, rows):
        assert entropic_ftrl_argmax(theta, 1.0, n - 1).tobytes() == want.tobytes()
    assert entropic_ftrl_argmax(block, 1.0, n - 1).tobytes() == np.array(rows).tobytes()


# ---------------------------------------------------------------------------
# Away-steps Frank-Wolfe.

def _random_point(n, k, rng):
    return euclidean_project(rng.random(n) * 1.5 - 0.2, k)


def _summed(k, centers, linear):
    """The one quadratic of sum_t (sigma_t / 2) ||p - c_t||^2 - <p, linear>,
    up to a constant: its weights summed and b = linear + sum_t sigma_t c_t."""
    sigma, b = 0.0, linear
    for sigma_t, c in centers:
        sigma, b = sigma + sigma_t, b + sigma_t * c
    return QuadraticObjective(k, sigma, b)


def test_afw_single_center_returns_center():
    rng = np.random.default_rng(31)
    center = _random_point(6, 2, rng)
    obj = QuadraticObjective(2, 1.0, center)
    res = afw_minimize(obj, eps=1e-10, max_iters=3000)
    assert res.converged
    assert np.linalg.norm(res.p - center) < 1e-4


def test_afw_vertex_center_recovered_immediately():
    v = np.array([1.0, 0, 1, 0])
    obj = QuadraticObjective(2, 1.0, v)
    # the default start, the vertex maximizing <p, b>, is v
    res = afw_minimize(obj, eps=1e-12, max_iters=50)
    np.testing.assert_allclose(res.p, v, atol=1e-12)
    assert res.iterations == 0


def test_afw_matches_exact_projection_route():
    rng = np.random.default_rng(33)
    for _ in range(10):
        n, k = 10, 3
        centers = [(float(rng.uniform(0.2, 2.0)), _random_point(n, k, rng))
                   for _ in range(int(rng.integers(1, 4)))]
        obj = _summed(k, centers, rng.standard_normal(n))
        eps = 1e-9
        res = afw_minimize(obj, eps=eps, max_iters=5000)
        exact = obj.exact_minimizer()
        assert obj.value(res.p) - obj.value(exact) <= eps + 1e-12
        if res.converged:
            assert res.gap <= eps * (1 + 1e-9)


def test_afw_progress_is_monotone_in_budget():
    rng = np.random.default_rng(35)
    n, k = 8, 3
    centers = [(1.3, _random_point(n, k, rng)), (0.7, _random_point(n, k, rng))]
    obj = _summed(k, centers, rng.standard_normal(n))
    vals = [obj.value(afw_minimize(obj, 1e-14, budget).p)
            for budget in (1, 2, 4, 8, 16, 32)]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_afw_requires_strict_convexity():
    obj = QuadraticObjective(2, 0.0, np.ones(4))
    with pytest.raises(ValueError, match="afw_minimize needs a positive weight sigma"):
        afw_minimize(obj, 1e-6, 10)


def test_afw_iteration_cap_flags_not_raises():
    rng = np.random.default_rng(36)
    n, k = 12, 4
    # interior optimum, so two iterations cannot certify a 1e-16 gap
    obj = _summed(k, [(1.0, _random_point(n, k, rng))], 0.01 * rng.standard_normal(n))
    res = afw_minimize(obj, eps=1e-16, max_iters=2)
    assert not res.converged
    validate_point(res.p, k, 1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_afw_rejects_non_finite_objectives_once_per_solve(bad):
    # a non-finite linear part or center reaches b, and an objective with a
    # non-finite b is refused when it is built, so no solve sees one
    n, k = 6, 2
    center, linear = np.full(n, k / n), np.linspace(-1.0, 1.0, n)
    bad_linear = linear.copy()
    bad_linear[2] = bad
    bad_center = center.copy()
    bad_center[4] = bad
    match = "the objective's vector b contains non-finite entries"
    for centers, lin in (([(1.0, center)], bad_linear),
                         ([(1.0, center), (0.5, bad_center)], linear)):
        with pytest.raises(ValueError, match=match):
            _summed(k, centers, lin)
    obj = _summed(k, [(1.0, center)], linear)
    with pytest.raises(ValueError, match="the warm start's weights must be finite"):
        afw_minimize(obj, 1e-9, 50, (np.array([[0, 1], [2, 3]]), np.array([1.0, np.inf])))


def test_afw_names_a_gradient_that_overflows():
    # a finite weight and b, whose mean is 0, but at the
    # warm start's vertex sigma * x - b is 1.5e308 + 1.2e308
    obj = QuadraticObjective(2, 1.5e308, np.array([-1.2e308, 1.2e308, -1.2e308, 1.2e308]))
    with np.errstate(over="ignore"), \
            pytest.raises(ValueError, match="gradient overflows the float range"):
        afw_minimize(obj, 1e-9, 50, (np.array([[0, 2]]), np.ones(1)))


def afw_dict_reference(obj, eps, max_iters, active=None):
    """Away-steps Frank-Wolfe written out with the active set as a dict from
    index tuples to weights, scored through a Python ``max``: returns
    (p, gap, iterations, converged, weights)."""
    n, k = obj.n, obj.k
    drift = obj.b - float(np.mean(obj.b))

    def grad(x):
        return obj.sigma * x - drift

    def vert(key):
        v = np.zeros(n)
        v[list(key)] = 1.0
        return v

    if active:
        weights = {key: float(w) for key, w in active.items() if w > 0.0}
        total = sum(weights.values())
        weights = {key: w / total for key, w in weights.items()}
        x = np.zeros(n)
        for key, w in weights.items():
            x[list(key)] += w
    else:
        key = tuple(lmo(-drift, k).nonzero()[0].tolist())
        weights = {key: 1.0}
        x = vert(key)

    gap = np.inf
    it = 0
    for it in range(1, max_iters + 1):
        g = grad(x)
        s = lmo(g, k)
        d_fw = s - x
        gap = float(-g @ d_fw)
        if gap <= eps:
            return np.clip(x, 0.0, 1.0), gap, it - 1, True, weights

        away_key = max(weights, key=lambda key: float(g[list(key)].sum()))
        v_away = vert(away_key)
        d_away = x - v_away
        away_gap = float(-g @ d_away)

        if gap >= away_gap:
            d = d_fw
            gamma_max = 1.0
            step_key = tuple((s > 0.5).nonzero()[0].tolist())
            is_fw = True
        else:
            d = d_away
            a = weights[away_key]
            gamma_max = a / (1.0 - a) if a < 1.0 else np.inf
            is_fw = False

        dd = float(d @ d)
        if dd <= 0.0:
            break
        gamma = float(-(g @ d) / (obj.sigma * dd))
        gamma = min(max(gamma, 0.0), gamma_max)
        if gamma <= 0.0 or not np.isfinite(gamma):
            break

        x = x + gamma * d
        if is_fw:
            for key in list(weights):
                weights[key] *= 1.0 - gamma
            weights[step_key] = weights.get(step_key, 0.0) + gamma
        else:
            for key in list(weights):
                weights[key] *= 1.0 + gamma
            weights[away_key] -= gamma
        weights = {key: w for key, w in weights.items() if w > 1e-15}

    g = grad(x)
    s = lmo(g, k)
    gap = float(-g @ (s - x))
    return np.clip(x, 0.0, 1.0), gap, it, gap <= eps, weights


@pytest.mark.parametrize("n, k", [(12, 4), (20, 9), (30, 12)])
def test_afw_matches_the_dict_active_set_bit_for_bit(n, k):
    # a run of warm-started solves, as the optimistic policy makes them: the
    # regularizer weight grows and its center moves with each solution.
    # The optima lie inside the polytope, so the active sets grow past 20
    # vertices; k >= 9 sums the away scores pairwise
    def solve(obj, eps, max_iters, active, ref_active):
        res = afw_minimize(obj, eps, max_iters, active)
        p, gap, iterations, converged, weights = afw_dict_reference(
            obj, eps, max_iters, ref_active)
        assert res.p.tobytes() == p.tobytes()
        assert (res.gap, res.iterations, res.converged) == (gap, iterations, converged)
        keys, w = res.active
        assert [tuple(key) for key in keys.tolist()] == list(weights)
        assert w.tolist() == list(weights.values())
        return res, weights

    rng = np.random.default_rng(n)
    sigma, center = 0.5, _random_point(n, k, rng)
    linear = rng.standard_normal(n)
    active = ref_active = None
    grown = capped = 0
    for i in range(70):
        if i % 10 == 0:  # a cold start, so that no active set grows past hundreds
            active = ref_active = None
        obj = _summed(k, [(sigma, center)], linear)
        # every tenth tolerance is out of reach, so the solve hits its cap
        eps = 1e-300 if i % 10 == 9 else 10.0 ** -rng.integers(4, 12)
        max_iters = int(rng.choice([5, 40, 120]))
        res, ref_active = solve(obj, eps, max_iters, active, ref_active)
        active = res.active
        grown += len(ref_active) > 20
        capped += res.iterations == max_iters and not res.converged
        sigma += float(rng.uniform(0.0, 0.3))
        center = (center + res.p) / 2.0
        linear = 0.3 * rng.standard_normal(n)  # small: optima stay inside
    assert capped and grown
    # at a weight near the float limit sigma * ||d||^2 overflows, the step
    # rounds to 0 and the solve stalls in its first iteration
    obj = _summed(k, [(1e308 / k, np.full(n, k / n))], linear)
    res, _ = solve(obj, 1e-9, 50, None, None)
    assert res.iterations == 1 and not res.converged


def test_quadratic_objective_rejects_negative_weights():
    # a weight that is negative, NaN or infinite is named, and so is a b
    # that is not one finite vector
    for sigma in (-0.5, -np.inf, np.nan, np.inf):
        with pytest.raises(ValueError, match="the weight sigma must be nonnegative and finite, "
                                             f"got {sigma!r}"):
            QuadraticObjective(1, sigma, np.zeros(3))
    with pytest.raises(ValueError, match="the objective's vector b must be a 1-d vector, "
                                         r"got shape \(2, 3\)"):
        QuadraticObjective(1, 1.0, np.zeros((2, 3)))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="the objective's vector b contains non-finite"):
            QuadraticObjective(1, 1.0, np.array([0.0, bad, 1.0]))
    # a zero weight is an objective, linear, and so are n and the weight's type
    obj = QuadraticObjective(1, 0, [0.0, 1.0, 2.0])
    assert (obj.n, obj.sigma, type(obj.sigma)) == (3, 0.0, float)


def test_validate_point():
    with pytest.raises(Exception):
        validate_point(np.array([0.5, 0.5, 0.5]), 2)
    validate_point(np.array([0.7, 0.8, 0.5]), 2)
    for p in ([0.5, np.nan, 1.0], [np.nan] * 3):
        with pytest.raises(InfeasiblePointError):
            validate_point(np.array(p), 2)
    # one vector only, and 1 <= k <= n
    for p, k in ((np.full((2, 3), 2 / 3), 2), (np.ones(3), 4)):
        with pytest.raises(InfeasiblePointError):
            validate_point(p, k)


def test_validate_point_takes_a_list():
    validate_point([0.5, 0.5], 1)
    for p, k in (([0.5, 0.75], 1), ([[0.5, 0.5]], 1), ([0.5, float("nan")], 1)):
        with pytest.raises(InfeasiblePointError):
            validate_point(p, k)
