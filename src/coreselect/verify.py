"""Verification suite behind the ``verify`` subcommand: each check runs a
library routine against a brute-force oracle of ``coreselect.oracles`` on
small random instances and reports one ``CheckResult``.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from .adversary import random_coverage
from .corevec import hungarian_duals
from .hypersimplex import (
    QuadraticObjective,
    afw_minimize,
    entropic_ftrl_argmax,
    euclidean_project,
    lmo,
)
from .oracles import (
    avg_submodular_shapley_check,
    balanced_masks,
    check_monotone,
    check_submodular,
    core_membership,
    dictator_vector,
    enumerate_lmo_value,
    enumerate_matching_value,
    enumerate_projection,
    estimate_rho,
    exact_projection,
    find_dictator,
    indicator_game,
    madow_marginal_measure,
    marginal_vector,
    random_monotone_function,
    second_game,
    shapley_exact,
    tightest_alpha,
    validate_point,
)
from .policy import norm_bound
from .sampling import madow_sample
from .setfn import MatchingRewardFunction, distance_sup

SEED = 2024  # every check draws from SeedSequence([SEED, crc32(check name)])


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def random_feasible_point(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    return euclidean_project(rng.random(n) * 2.0 - 0.5, k)


def _check_projection(rng, max_n, projection_fn) -> CheckResult:
    for trial in range(76):
        n = int(rng.integers(2, min(7, max_n) + 1))
        k = int(rng.integers(1, n + 1))
        if trial < 60:
            y = rng.standard_normal(n) * 2.0
        elif trial < 64:
            # integer scores: breakpoints y_i and y_j - 1 coincide
            y = rng.integers(-1, 3, n).astype(float)
        elif trial < 66:
            y = np.full(n, rng.standard_normal())
        else:
            # spread so wide that y - 1 rounds to y: float distances cannot
            # rank the candidates, so the reference is exact
            y = rng.standard_normal(n) * (1e20 if trial < 71 else 1e300)
        try:
            got = projection_fn(y, k)
        except ValueError as exc:
            return CheckResult("projection-vs-active-set-enumeration", False,
                               f"raised at n={n}, k={k}, y={y.tolist()}: {exc}")
        if trial < 66:
            want = enumerate_projection(y, k)
        else:
            want = np.array([float(f) for f in exact_projection(y, k)])
        if float(np.linalg.norm(got - want)) > 1e-7:
            return CheckResult("projection-vs-active-set-enumeration", False,
                               f"mismatch at n={n}, k={k}: {got} vs {want}")
    return CheckResult("projection-vs-active-set-enumeration", True,
                       "60 random instances and 6 tie-heavy ones against enumeration, "
                       "5 at scale 1e20 and 5 at 1e300 against exact rational arithmetic")


def _check_lmo(rng, max_n) -> CheckResult:
    for _ in range(40):
        n = int(rng.integers(2, min(12, max_n) + 1))
        k = int(rng.integers(1, n + 1))
        cost = rng.standard_normal(n)
        got = float(cost @ lmo(cost, k))
        want = enumerate_lmo_value(cost, k)
        if abs(got - want) > 1e-9:
            return CheckResult("lmo-vs-vertex-enumeration", False,
                               f"mismatch at n={n}, k={k}: {got} vs {want}")
    return CheckResult("lmo-vs-vertex-enumeration", True, "40 random instances")


def _check_madow(rng, max_n) -> CheckResult:
    for _ in range(50):
        n = int(rng.integers(2, min(20, max_n) + 1))
        k = int(rng.integers(1, n + 1))
        p = random_feasible_point(n, k, rng)
        measure = madow_marginal_measure(p, k)
        if float(np.abs(measure - p).max()) > 1e-10:
            return CheckResult("madow-exact-marginal-law", False,
                               f"measure mismatch at n={n}, k={k}")
        sel = madow_sample(p, k, float(rng.random()))
        if len(sel) != k:
            return CheckResult("madow-exact-marginal-law", False, "cardinality violated")
    return CheckResult("madow-exact-marginal-law", True, "50 random instances")


def _check_entropic_kkt(rng, max_n) -> CheckResult:
    for _ in range(40):
        n = int(rng.integers(2, min(20, max_n) + 1))
        k = int(rng.integers(1, n))
        eta = float(rng.uniform(0.1, 3.0))
        theta = rng.standard_normal(n) * 2.0
        p = entropic_ftrl_argmax(theta, eta, k)
        validate_point(p, k)
        free = p < 1.0 - 1e-9
        if free.sum() >= 2:
            c = np.log(p[free]) - eta * theta[free]
            if float(c.max() - c.min()) > 1e-7:
                return CheckResult("entropic-argmax-kkt", False,
                                   f"complementarity spread {c.max() - c.min():.2e}")
    return CheckResult("entropic-argmax-kkt", True, "40 random instances")


def _check_afw(rng, max_n) -> CheckResult:
    for _ in range(25):
        n = int(rng.integers(3, min(10, max_n) + 1))
        k = int(rng.integers(1, n))
        sigma, b = 0.0, np.zeros(n)  # 1 to 3 regularizers, summed into one quadratic
        for _ in range(int(rng.integers(1, 4))):
            sigma_t = float(rng.uniform(0.2, 2.0))
            sigma, b = sigma + sigma_t, b + sigma_t * random_feasible_point(n, k, rng)
        obj = QuadraticObjective(k, sigma, b + rng.standard_normal(n))
        eps = 1e-8
        res = afw_minimize(obj, eps=eps, max_iters=4000)
        exact = obj.exact_minimizer()
        fgap = obj.value(res.p) - obj.value(exact)
        if res.converged and res.gap > eps * (1 + 1e-9):
            return CheckResult("afw-gap-certificate", False, "certified gap above eps")
        if fgap > eps + 1e-10:
            return CheckResult("afw-gap-certificate", False,
                               f"objective gap {fgap:.2e} above eps")
    return CheckResult("afw-gap-certificate", True, "25 random objectives vs exact route")


def _random_submodular_instances(rng, max_n, sizes=(4, 6, 10, 12)):
    sizes = [min(n, max_n) for n in sizes]
    return [random_coverage(n, 2 * n, rng, density=0.4) for n in sizes]


def _check_marginal_membership(rng, max_n) -> CheckResult:
    count = 0
    for f in _random_submodular_instances(rng, max_n):
        if not check_submodular(f) or not check_monotone(f):
            return CheckResult("submodular-marginal-membership", False,
                               "coverage instance failed structural check")
        for _ in range(100):
            g = marginal_vector(f, rng.permutation(f.n))
            if not core_membership(g, f, 1.0):
                return CheckResult("submodular-marginal-membership", False,
                                   f"marginal vector outside 1-core at n={f.n}")
            count += 1
    return CheckResult("submodular-marginal-membership", True,
                       f"{count} random permutations across coverage instances")


def _check_rho(rng, max_n) -> CheckResult:
    for trial in range(6):
        n = int(rng.integers(min(4, max_n), min(8, max_n) + 1))
        f = random_monotone_function(n, rng)
        rho = estimate_rho(f)
        if not (0.0 < rho <= 1.0):
            return CheckResult("rho-marginal-tightest-alpha", False,
                               f"rho estimate {rho} out of range for strictly monotone f")
        ta = tightest_alpha(marginal_vector(f, rng.permutation(n)), f)
        if ta > 1.0 / rho + 1e-7:
            return CheckResult("rho-marginal-tightest-alpha", False,
                               f"tightest alpha {ta:.6g} exceeds 1/rho {1 / rho:.6g}")
    return CheckResult("rho-marginal-tightest-alpha", True, "6 random monotone instances")


def _check_dictator(rng, max_n) -> CheckResult:
    for trial in range(10):
        n = int(rng.integers(3, min(10, max_n) + 1))
        f = random_monotone_function(n, rng)
        m = float(max(f.value([i]) for i in range(n)))
        i_star = find_dictator(f, m)
        if i_star is None:
            return CheckResult("dictator-membership", False, "dictator not found at its own level")
        g, alpha = dictator_vector(f, i_star, m)
        if not core_membership(g, f, alpha, tol=1e-7):
            return CheckResult("dictator-membership", False,
                               f"dictator vector outside M/m core at n={n}")
    return CheckResult("dictator-membership", True, "10 random monotone instances")


def _check_games(rng=None, max_n=None) -> CheckResult:
    first, second = indicator_game(), second_game()
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        g = np.array([t, 1.0 - t, 0.0])
        if not core_membership(g, first, 1.0):
            return CheckResult("three-player-games", False, f"(t, 1-t, 0) fails at t={t}")
    for g_bad in (np.array([1.25, -0.25, 0.0]), np.array([-0.25, 1.25, 0.0]),
                  np.array([0.5, 0.2, 0.3])):
        if core_membership(g_bad, first, 1.0):
            return CheckResult("three-player-games", False,
                               f"{g_bad} wrongly accepted in the 1-core")
    g = np.array([3.0, 0.0, -1.0])
    if not core_membership(g, second, 2.0):
        return CheckResult("three-player-games", False, "(3, 0, -1) not in the 2-core")
    ta = tightest_alpha(g, second)
    if abs(ta - 1.5) > 1e-9:
        return CheckResult("three-player-games", False, f"tightest alpha {ta} != 1.5")
    if find_dictator(first, 1.0) != 0:
        return CheckResult("three-player-games", False, "dictator of the first game not element 0")
    g, alpha = dictator_vector(second, 0, 1.0)
    if alpha != 2.0 or not core_membership(g, second, 2.0):
        return CheckResult("three-player-games", False, "dictator vector of the second game fails")
    if not check_monotone(second):
        return CheckResult("three-player-games", False, "second game should be monotone")
    return CheckResult("three-player-games", True, "boundary family and 2-core point reproduced")


def _check_matching_duals(rng, max_n) -> CheckResult:
    most = min(4, max_n // 2)  # a matching reward on m + m vertices
    for trial in range(9):
        m = most if trial == 8 else int(rng.integers(1, most + 1))
        if trial == 8:
            # integer costs in {0, 1, 2}: ties make the dual polytope most degenerate
            w = rng.integers(0, 3, (m, m)).astype(float)
        elif trial % 2:
            # separable costs admit nonnegative optimal prices
            w = rng.random(m)[:, None] + rng.random(m)[None, :]
        else:
            w = rng.random((m, m)) * 2.0
        u, v, matching, value = hungarian_duals(w)
        if trial % 2 and (np.any(u < -1e-9) or np.any(v < -1e-9)):
            return CheckResult("matching-dual-membership", False,
                               "negative price on a separable instance")
        if np.any(u[:, None] + v[None, :] > w + 1e-7):
            return CheckResult("matching-dual-membership", False, "dual infeasible")
        if abs(u.sum() + v.sum() - value) > 1e-6:
            return CheckResult("matching-dual-membership", False, "strong duality violated")
        if any(abs(u[i] + v[j] - w[i, j]) > 1e-6 for i, j in matching):
            return CheckResult("matching-dual-membership", False,
                               "matched pair not tight")
        if abs(value - enumerate_matching_value(w)) > 1e-9:
            return CheckResult("matching-dual-membership", False,
                               "matching value differs from enumeration")
        if not core_membership(np.concatenate([u, v]), MatchingRewardFunction(w), 1.0,
                               masks=balanced_masks(m)):
            return CheckResult("matching-dual-membership", False,
                               "dual vector violates a balanced-subset constraint")
    return CheckResult("matching-dual-membership", True,
                       "8 random bipartite instances and 1 tie-heavy one")


def _check_shapley(rng, max_n) -> CheckResult:
    first = indicator_game()
    sh = shapley_exact(first)
    if not np.allclose(sh, [0.5, 0.5, 0.0], atol=1e-12):
        return CheckResult("shapley-core-membership", False, f"exact Shapley {sh} wrong")
    if not avg_submodular_shapley_check(first):
        return CheckResult("shapley-core-membership", False,
                           "indicator game should pass the averaged condition")
    if not core_membership(sh, first, 1.0):
        return CheckResult("shapley-core-membership", False, "Shapley not in the core")
    for f in _random_submodular_instances(rng, max_n, sizes=(4, 6)):
        if not core_membership(shapley_exact(f), f, 1.0, tol=1e-6):
            return CheckResult("shapley-core-membership", False,
                               "submodular Shapley outside the core")
    return CheckResult("shapley-core-membership", True, "exact values and membership agree")


def _check_norm_bounds(rng, max_n) -> CheckResult:
    for trial in range(10):
        n = int(rng.integers(3, min(10, max_n) + 1))
        f = random_coverage(n, 2 * n, rng, density=0.4)
        M = f.full_value()
        g = marginal_vector(f, rng.permutation(n))
        if np.any(g < -1e-12):
            return CheckResult("admissible-norm-bounds", False, "negative marginal gain")
        l2, l1 = float(np.linalg.norm(g)), float(np.abs(g).sum())
        if l2 > l1 + 1e-9 or l1 > M + 1e-7:
            return CheckResult("admissible-norm-bounds", False, "monotone norm chain violated")
        if l2 > norm_bound(1.0, M) + 1e-7:
            return CheckResult("admissible-norm-bounds", False, "core ball radius violated")
        table = random_monotone_function(min(n, 6), rng)
        best = int(np.argmax([table.value([i]) for i in range(table.n)]))
        spike, alpha = dictator_vector(table, best)
        if float(np.linalg.norm(spike)) > norm_bound(alpha, table.full_value()) + 1e-7:
            return CheckResult("admissible-norm-bounds", False, "dictator vector outside ball")
        m = int(rng.integers(1, min(3, max_n // 2) + 1))
        w = rng.random(m)[:, None] + rng.random(m)[None, :]  # nonnegative prices exist
        u, v, _, _ = hungarian_duals(w)
        duals = np.concatenate([u, v])
        if float(np.linalg.norm(duals)) > 2 * m * float(w.max()) / math.sqrt(2.0) + 1e-7:
            return CheckResult("admissible-norm-bounds", False, "matching vector outside ball")
    return CheckResult("admissible-norm-bounds", True, "10 rounds of constructions")


def _check_hint_inequality(rng, max_n) -> CheckResult:
    for trial in range(1000):
        n = int(rng.integers(2, min(8, max_n) + 1))
        f = random_coverage(n, 2 * n, rng, density=0.5)
        fvec = marginal_vector(f, rng.permutation(n))
        h = fvec + rng.standard_normal(n) * rng.uniform(0, 1.5)
        lhs = float(np.abs(fvec - h).sum())
        rhs = 3.0 * distance_sup(f, h)
        if lhs > rhs + 1e-9:
            return CheckResult("hint-distance-inequality", False,
                               f"l1 gap {lhs:.6g} exceeds 3x sup distance {rhs:.6g}")
    return CheckResult("hint-distance-inequality", True, "1000 random pairs")


def verify_all(max_n: int = 12, projection_fn=None) -> list[CheckResult]:
    """Run the whole oracle suite; ``projection_fn`` is injectable so a broken
    implementation can be shown to fail (and the default to pass)."""
    if max_n < 3:
        raise ValueError("max_n must be at least 3")
    projection_fn = euclidean_project if projection_fn is None else projection_fn
    checks = [
        ("projection", _check_projection, True),
        ("lmo", _check_lmo, False),
        ("madow", _check_madow, False),
        ("entropic", _check_entropic_kkt, False),
        ("afw", _check_afw, False),
        ("marginal", _check_marginal_membership, False),
        ("rho", _check_rho, False),
        ("dictator", _check_dictator, False),
        ("games", _check_games, False),
        ("matching", _check_matching_duals, False),
        ("shapley", _check_shapley, False),
        ("norms", _check_norm_bounds, False),
        ("hints", _check_hint_inequality, False),
    ]
    results = []
    for name, fn, wants_projection in checks:
        rng = np.random.default_rng(
            np.random.SeedSequence([SEED, zlib.crc32(name.encode())])
        )
        if wants_projection:
            results.append(fn(rng, max_n, projection_fn))
        else:
            results.append(fn(rng, max_n))
    return results
