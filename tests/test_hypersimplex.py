"""Solver tests against independent brute-force oracles."""

import warnings

import numpy as np
import pytest

from coreselect.hypersimplex import (
    HypersimplexPoint,
    InfeasiblePointError,
    QuadraticObjective,
    _refeasibilize,
    afw_minimize,
    entropic_ftrl_argmax,
    euclidean_project,
    lmo,
)
from coreselect.oracles import enumerate_lmo_value, enumerate_projection

RNG = np.random.default_rng(7)


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
    pt = entropic_ftrl_argmax(np.zeros(4), 1.0, 2)
    np.testing.assert_allclose(pt.p, 0.5)


def test_entropic_k_equals_n_is_all_ones():
    pt = entropic_ftrl_argmax(np.array([3.0, -1.0, 0.2]), 2.0, 3)
    np.testing.assert_allclose(pt.p, 1.0)


def test_entropic_known_value():
    # frozen from a projected-gradient solve iterated to ||dp|| < 1e-10
    pt = entropic_ftrl_argmax(np.array([1.0, 0.0, 0.0, 0.0]), 1.0, 2)
    np.testing.assert_allclose(
        pt.p, [0.95073377, 0.34975541, 0.34975541, 0.34975541], atol=1e-6
    )


def test_entropic_matches_projected_gradient():
    theta = np.array([1.0, 0.0, 0.0, 0.0])
    got = entropic_ftrl_argmax(theta, 1.0, 2).p
    want = entropic_argmax_pgd(theta, 1.0, 2, step=0.05)
    np.testing.assert_allclose(got, want, atol=1e-6)


@pytest.mark.parametrize("trial", range(12))
def test_entropic_matches_scalar_bisection(trial):
    rng = np.random.default_rng(100 + trial)
    n = int(rng.integers(3, 20))
    k = int(rng.integers(1, n))
    eta = float(rng.uniform(0.1, 3.0))
    theta = rng.standard_normal(n) * 2.0
    got = entropic_ftrl_argmax(theta, eta, k).p
    want = entropic_argmax_scalar_bisect(theta, eta, k)
    np.testing.assert_allclose(got, want, atol=1e-9)


def test_entropic_feasibility_and_kkt():
    for trial in range(60):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(2, 30))
        k = int(rng.integers(1, n + 1))
        theta = rng.standard_normal(n) * float(rng.uniform(0.1, 20))
        pt = entropic_ftrl_argmax(theta, float(rng.uniform(0.05, 5.0)), k)
        pt.validate(tol=1e-9)
        eta = 1.0  # recompute with the eta actually used
        # complementarity: log p - eta * theta constant on uncapped coordinates
        pt = entropic_ftrl_argmax(theta, eta, k)
        free = pt.p < 1.0 - 1e-9
        if free.sum() >= 2:
            c = np.log(pt.p[free]) - eta * theta[free]
            assert c.max() - c.min() < 1e-7


def test_entropic_wide_score_spread_does_not_underflow():
    # exp(-800) underflows at the top score's scale: the tail sums of the
    # uncapped coordinates vanished and the solve raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pt = entropic_ftrl_argmax(np.array([800.0, 0.0, 0.0, 0.0, 0.0, 0.0]), 1.0, 3)
    np.testing.assert_allclose(pt.p, [1.0, 0.4, 0.4, 0.4, 0.4, 0.4], rtol=1e-12)


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
            pt = entropic_ftrl_argmax(theta, eta, k)
        pt.validate(tol=1e-9)
        # p = min(1, c * exp(eta * theta)), with c read off the largest
        # uncapped coordinate j: p_j = c * exp(s_j)
        p, s = pt.p, eta * theta
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
        base = entropic_ftrl_argmax(theta, 1.2, k).p
        i = int(rng.integers(n))
        bumped = theta.copy()
        bumped[i] += float(rng.uniform(0.01, 2.0))
        assert entropic_ftrl_argmax(bumped, 1.2, k).p[i] >= base[i] - 1e-12


def refeasibilize_reference(p, k):
    """The repair written out: clip, spread the residual over the interior
    in proportion to mass, clip again."""
    p = np.clip(p, 0.0, 1.0)
    resid = k - float(p.sum())
    if resid == 0.0:
        return p
    interior = (p > 0.0) & (p < 1.0)
    if not interior.any():
        if abs(resid) > 1e-7:
            raise InfeasiblePointError("cannot repair infeasible integral vector")
        return p
    w = p[interior]
    p[interior] = w + resid * (w / float(w.sum()))
    return np.clip(p, 0.0, 1.0)


def test_refeasibilize_matches_the_written_out_repair_bit_for_bit():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        n = int(rng.integers(1, 40))
        k = int(rng.integers(1, n + 1))
        p = rng.random(n) * (k / n) * 2.0
        p[rng.random(n) < 0.2] = 1.0
        p[rng.random(n) < 0.2] = rng.choice([0.0, -0.0, -0.3, 1.4])
        # residuals from rounding noise up to ones large enough to push
        # interior coordinates past a bound
        p *= k / max(float(p.sum()), 1e-300) * (1.0 + rng.choice([0.0, 1e-15, -1e-13, 0.3, -0.3]))
        try:
            want = refeasibilize_reference(p.copy(), k)
        except InfeasiblePointError:
            with pytest.raises(InfeasiblePointError):
                _refeasibilize(p.copy(), k)
            continue
        assert _refeasibilize(p.copy(), k).tobytes() == want.tobytes()


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


# ---------------------------------------------------------------------------
# Euclidean projection.

def test_project_feasible_point_is_fixed():
    p = np.array([0.4, 0.8, 0.3, 0.5])
    np.testing.assert_allclose(euclidean_project(p, 2).p, p, atol=1e-12)


def test_project_known_value():
    pt = euclidean_project(np.array([2.0, 0.5, 0.5, -1.0]), 2)
    np.testing.assert_allclose(pt.p, [1.0, 0.5, 0.5, 0.0], atol=1e-12)


def test_project_constant_vector_gives_uniform():
    pt = euclidean_project(np.full(5, 3.7), 2)
    np.testing.assert_allclose(pt.p, 0.4, atol=1e-12)


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
        got = euclidean_project(y, k).p
        want = enumerate_projection(y, k)
        assert np.linalg.norm(got - want) < 1e-8, (y, k)


@pytest.mark.parametrize("n", [200, 2000])
def test_project_is_one_threshold_at_large_n(n):
    rng = np.random.default_rng(n)
    ys = [rng.standard_normal(n), rng.integers(-1, 3, n).astype(float), np.full(n, -0.7)]
    for y in ys:
        for k in (1, n // 7, n // 2, n - 1):
            p = euclidean_project(y, k).p
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
        py, pz = euclidean_project(y, k).p, euclidean_project(z, k).p
        np.testing.assert_allclose(euclidean_project(py, k).p, py, atol=1e-9)
        assert np.linalg.norm(py - pz) <= np.linalg.norm(y - z) + 1e-9
        euclidean_project(y, k).validate(1e-9)


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
# Away-steps Frank-Wolfe.

def _random_point(n, k, rng):
    return euclidean_project(rng.random(n) * 1.5 - 0.2, k)


def test_afw_single_center_returns_center():
    rng = np.random.default_rng(31)
    center = _random_point(6, 2, rng)
    obj = QuadraticObjective(6, 2, [(1.0, center.p)], np.zeros(6))
    res = afw_minimize(obj, eps=1e-10, max_iters=3000)
    assert res.converged
    assert np.linalg.norm(res.point.p - center.p) < 1e-4


def test_afw_vertex_center_recovered_immediately():
    v = np.array([1.0, 0, 1, 0])
    obj = QuadraticObjective(4, 2, [(1.0, v)], np.zeros(4))
    res = afw_minimize(obj, eps=1e-12, max_iters=50, start=v)
    np.testing.assert_allclose(res.point.p, v, atol=1e-12)
    assert res.iterations == 0


def test_afw_matches_exact_projection_route():
    rng = np.random.default_rng(33)
    for _ in range(10):
        n, k = 10, 3
        centers = [(float(rng.uniform(0.2, 2.0)), _random_point(n, k, rng).p)
                   for _ in range(int(rng.integers(1, 4)))]
        obj = QuadraticObjective(n, k, centers, rng.standard_normal(n))
        eps = 1e-9
        res = afw_minimize(obj, eps=eps, max_iters=5000)
        exact = obj.exact_minimizer()
        assert obj.value(res.point.p) - obj.value(exact.p) <= eps + 1e-12
        if res.converged:
            assert res.gap <= eps * (1 + 1e-9)


def test_afw_progress_is_monotone_in_budget():
    rng = np.random.default_rng(35)
    n, k = 8, 3
    centers = [(1.3, _random_point(n, k, rng).p), (0.7, _random_point(n, k, rng).p)]
    obj = QuadraticObjective(n, k, centers, rng.standard_normal(n))
    start = lmo(rng.standard_normal(n), k)
    vals = [obj.value(afw_minimize(obj, 1e-14, budget, start=start).point.p)
            for budget in (1, 2, 4, 8, 16, 32)]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_afw_requires_strict_convexity():
    obj = QuadraticObjective(4, 2, [], np.ones(4))
    with pytest.raises(ValueError):
        afw_minimize(obj, 1e-6, 10)


def test_afw_iteration_cap_flags_not_raises():
    rng = np.random.default_rng(36)
    n, k = 12, 4
    # interior optimum, so two iterations cannot certify a 1e-16 gap
    obj = QuadraticObjective(
        n, k, [(1.0, _random_point(n, k, rng).p)], 0.01 * rng.standard_normal(n)
    )
    res = afw_minimize(obj, eps=1e-16, max_iters=2)
    assert not res.converged
    res.point.validate(1e-9)


def test_quadratic_objective_rejects_negative_weights():
    with pytest.raises(ValueError):
        QuadraticObjective(3, 1, [(-0.5, np.zeros(3))], np.zeros(3))


def test_hypersimplex_point_validation():
    with pytest.raises(Exception):
        HypersimplexPoint(3, 2, np.array([0.5, 0.5, 0.5])).validate()
    HypersimplexPoint(3, 2, np.array([0.7, 0.8, 0.5])).validate()
    for p in ([0.5, np.nan, 1.0], [np.nan] * 3):
        with pytest.raises(InfeasiblePointError):
            HypersimplexPoint(3, 2, np.array(p)).validate()
