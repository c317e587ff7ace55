"""Reward-family evaluation and structural diagnostics."""

import numpy as np
import pytest

from coreselect.oracles import TableFunction, enumerate_matching_value, second_game
from coreselect.setfn import (
    CoverageFunction,
    EnumerationTooLargeError,
    MatchingRewardFunction,
    ModularFunction,
    SetFunction,
    check_monotone,
    check_submodular,
    distance_sup,
    estimate_rho,
    indices_of,
    mask_of,
)


def brute_distance(f, h):
    return max(
        abs(f.value_mask(m) - h.value_mask(m)) for m in range(1 << f.n)
    )


def brute_submodular(f, tol=1e-9):
    """Direct check of every (A subset of B, i outside B) inequality."""
    n = f.n
    for b_mask in range(1 << n):
        a = b_mask
        while True:
            for i in range(n):
                if b_mask >> i & 1:
                    continue
                bi = 1 << i
                lhs = f.value_mask(a | bi) - f.value_mask(a)
                rhs = f.value_mask(b_mask | bi) - f.value_mask(b_mask)
                if lhs + tol < rhs:
                    return False
            if a == 0:
                break
            a = (a - 1) & b_mask
    return True


def brute_rho(f, tol=1e-12):
    n = f.n
    best = 1.0
    for b_mask in range(1 << n):
        a = b_mask
        while True:
            for i in range(n):
                if b_mask >> i & 1:
                    continue
                bi = 1 << i
                den = f.value_mask(b_mask | bi) - f.value_mask(b_mask)
                num = f.value_mask(a | bi) - f.value_mask(a)
                if den > tol:
                    if num <= tol:
                        return 0.0
                    best = min(best, num / den)
            if a == 0:
                break
            a = (a - 1) & b_mask
    return best


def test_mask_round_trip():
    assert indices_of(mask_of([0, 3, 5])) == (0, 3, 5)
    assert mask_of(()) == 0 and indices_of(0) == ()


def test_modular_evaluation_and_bounds():
    f = ModularFunction(np.array([1.0, -2.0, 3.0]))
    assert f.value([0, 2]) == 4.0
    assert f.value([]) == 0.0
    assert f.full_value() == 2.0
    assert not f.monotone
    np.testing.assert_allclose(
        f.values_all(), [0, 1, -2, -1, 3, 4, 1, 2], atol=1e-12
    )


def test_coverage_against_union_counting():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n, universe = 6, 10
        family = [rng.integers(0, universe, size=rng.integers(1, 5)).tolist()
                  for _ in range(n)]
        f = CoverageFunction(family, universe)
        for _ in range(20):
            mask = int(rng.integers(0, 1 << n))
            want = len(set().union(*[set(family[i]) for i in indices_of(mask)])) if mask else 0
            assert f.value_mask(mask) == want
        np.testing.assert_allclose(
            f.values_all(),
            [f.value_mask(m) for m in range(1 << n)],
        )


def test_distance_sup_modular_closed_form():
    f = ModularFunction(np.array([1.0, 2.0]))
    h = ModularFunction(np.array([2.0, 1.0]))
    assert distance_sup(f, h) == 1.0
    assert distance_sup(f, f) == 0.0


def test_distance_sup_closed_form_matches_enumeration():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 11))
        f = ModularFunction(rng.standard_normal(n))
        h = ModularFunction(rng.standard_normal(n))
        assert abs(distance_sup(f, h) - brute_distance(f, h)) < 1e-12


def test_distance_sup_enumerated_for_coverage():
    f = CoverageFunction([[0, 1], [1, 2], [2]], 3)
    # singleton-additive modular approximation
    h = ModularFunction(np.array([2.0, 2.0, 1.0]))
    assert distance_sup(f, h) == brute_distance(f, h)


def test_distance_sup_size_guard():
    class Big(SetFunction):
        def __init__(self):
            super().__init__(25, 1.0)

        def value_mask(self, mask):
            return 0.0

    with pytest.raises(EnumerationTooLargeError):
        distance_sup(Big(), ModularFunction(np.zeros(25)))


def test_check_submodular_and_monotone_on_modular():
    f = ModularFunction(np.array([0.5, 1.5, 0.0]))
    assert check_submodular(f)
    assert check_monotone(f)
    g = ModularFunction(np.array([0.5, -1.5]))
    assert check_submodular(g)
    assert not check_monotone(g)


def test_coverage_is_submodular_and_monotone():
    rng = np.random.default_rng(2)
    for _ in range(10):
        family = [rng.integers(0, 8, size=rng.integers(1, 4)).tolist() for _ in range(5)]
        f = CoverageFunction(family, 8)
        assert check_submodular(f)
        assert check_monotone(f)


def test_check_submodular_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = 4
        vals = np.concatenate([[0.0], rng.random((1 << n) - 1) * 2])
        f = TableFunction(vals, monotone=False)
        assert check_submodular(f) == brute_submodular(f)


def test_second_game_is_monotone():
    assert check_monotone(second_game())


def test_rho_is_one_for_submodular_and_modular():
    assert estimate_rho(ModularFunction(np.array([1.0, 2.0, 3.0]))) == 1.0
    f = CoverageFunction([[0, 1], [1, 2], [2, 3]], 4)
    assert estimate_rho(f) == 1.0


def test_rho_synthetic_supermodular_perturbation():
    # f(S) = |S| + eps when |S| >= 2: lattice scan gives 1 / (1 + eps)
    eps = 0.1
    n = 4
    vals = [bin(m).count("1") + (eps if bin(m).count("1") >= 2 else 0.0)
            for m in range(1 << n)]
    f = TableFunction(vals)
    got = estimate_rho(f)
    assert abs(got - 1.0 / (1.0 + eps)) < 1e-12
    assert abs(got - brute_rho(f)) < 1e-12


def test_rho_matches_brute_force_on_random_monotone():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = 4
        vals = np.zeros(1 << n)
        for mask in range(1, 1 << n):
            parents = [mask & ~(1 << i) for i in range(n) if mask >> i & 1]
            vals[mask] = max(vals[p] for p in parents) + 0.1 + rng.random()
        f = TableFunction(vals)
        assert abs(estimate_rho(f) - brute_rho(f)) < 1e-12


def test_rho_zero_when_no_positive_factor_works():
    # pure complementarity: each element alone is worthless, the pair pays;
    # a zero marginal below a positive one rules out every positive factor
    vals = [0.0, 0.0, 0.0, 1.0]
    f = TableFunction(vals)
    assert estimate_rho(f) == 0.0
    assert brute_rho(f) == 0.0


def test_matching_reward_against_permutation_enumeration():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = int(rng.integers(1, 5))
        w = rng.random((m, m)) * 3
        f = MatchingRewardFunction(w)
        rows = sorted(rng.permutation(m)[: rng.integers(1, m + 1)].tolist())
        cols = sorted(rng.permutation(m)[: len(rows)].tolist())
        s = rows + [m + c for c in cols]
        want = enumerate_matching_value(w[np.ix_(rows, cols)])
        assert abs(f.value(s) - want) < 1e-12


def test_matching_reward_unbalanced_is_zero():
    f = MatchingRewardFunction(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert f.value([0]) == 0.0
    assert f.value([0, 1, 2]) == 0.0
    assert f.value([]) == 0.0
    assert not f.is_balanced([0])
    assert f.is_balanced([0, 2])


def test_matching_rejects_bad_matrices():
    with pytest.raises(ValueError):
        MatchingRewardFunction(np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        MatchingRewardFunction(np.array([[-1.0]]))
