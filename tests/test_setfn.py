"""Reward-family evaluation and structural diagnostics."""

import numpy as np
import pytest

from coreselect.blocks import block_rounds
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


@pytest.mark.parametrize("n", [1, 20, 1000, 2000])
def test_block_gather_sum_matches_each_row_alone(n):
    # numpy's pairwise sum adds fewer than 8 terms in a loop, unrolls by 8
    # and splits past 128, so k covers each case; rows span 1e-5 to 1e5
    rng = np.random.default_rng(n)
    B = block_rounds(n)
    for k in sorted({min(k, n) for k in (1, 5, 7, 8, 9, 16, 128, 129, n)}):
        scale = 10.0 ** rng.uniform(-5.0, 5.0, (B, 1))
        for w in (rng.random((B, n)) * scale, rng.standard_normal((B, n)) * scale):
            sets = np.sort(rng.random((B, n)).argsort(axis=1)[:, :k], axis=1)
            want = [float(row[idx].sum()) for row, idx in zip(w, sets.tolist())]
            assert w[np.arange(B)[:, None], sets].sum(axis=1).tolist() == want
            assert ModularFunction(w).value(sets).tobytes() == np.array(want).tobytes()


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


def union_reward(family, chosen, scale):
    """``scale`` times the size of the union of the chosen items, from plain
    Python sets: the product ``CoverageFunction`` computes."""
    return scale * len(set().union(*[set(family[i]) for i in chosen]))


@pytest.mark.parametrize("universe", [1, 63, 64, 65, 128, 129, 4000])
def test_coverage_of_any_universe_is_the_union_size(universe):
    rng = np.random.default_rng(universe)
    n, scale = 12, 1.0 / universe
    family = [np.flatnonzero(rng.random(universe) < 0.3).tolist() for _ in range(n)]
    family[0].append(universe - 1)  # the top item is covered
    f = CoverageFunction(family, universe, scale=scale)
    assert f.full_value() == f.value_bound == union_reward(family, range(n), scale)
    for _ in range(20):
        chosen = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False).tolist()
        assert f.value(chosen) == union_reward(family, chosen, scale)
        perm = rng.permutation(n)
        want = [union_reward(family, perm[:i].tolist(), scale) for i in range(n + 1)]
        assert f.prefix_values(perm).tolist() == want
    # a (b, k) block of sets, and (b, n) rows of permutations
    perms = rng.permuted(np.tile(np.arange(n), (30, 1)), axis=1)
    for k in (1, 5, n):
        want = [union_reward(family, row, scale) for row in perms[:, :k].tolist()]
        assert f.value(perms[:, :k]).tobytes() == np.array(want).tobytes()
    want = [[union_reward(family, row[:i], scale) for i in range(n + 1)]
            for row in perms.tolist()]
    assert f.prefix_values(perms).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("universe", [63, 64, 65, 130])
def test_coverage_values_all_of_any_universe(universe):
    rng = np.random.default_rng(universe)
    for n in (1, 4, 10):
        family = [np.flatnonzero(rng.random(universe) < 0.2).tolist() for _ in range(n)]
        family[-1].append(universe - 1)
        f = CoverageFunction(family, universe, scale=1.0 / universe)
        want = [union_reward(family, indices_of(m), 1.0 / universe) for m in range(1 << n)]
        assert f.values_all().tolist() == want


def test_coverage_rejects_items_outside_the_universe():
    for universe in (1, 63, 64, 65, 4000):
        for item in (universe, -1):
            with pytest.raises(ValueError, match="outside the universe"):
                CoverageFunction([[0], [item]], universe)
    with pytest.raises(ValueError):
        CoverageFunction([[0]], 0)


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


def matching_values_reference(f, sets):
    """The values of a matching block written out: ``_value`` of each set
    on its round's matrix, one set at a time."""
    stack = f.w if f.phase is not None else f.w[None]
    phase = f.phase if f.phase is not None else np.zeros(len(sets), dtype=int)
    return np.array([MatchingRewardFunction(stack[p])._value(row)
                     for p, row in zip(phase.tolist(), sets.tolist())])


def random_sets(rng, b, n, k, m):
    """b unsorted k-sets of 0..n-1, about half of them balanced (k / 2
    entries below m) when k is even."""
    sets = np.array([rng.permutation(n)[:k] for _ in range(b)]).reshape(b, k)
    for row in sets[: b // 2]:
        if k % 2 == 0 and k // 2 <= m:
            row[:] = rng.permutation(np.concatenate([
                rng.permutation(m)[: k // 2], m + rng.permutation(m)[: k // 2]]))
    return sets


@pytest.mark.parametrize("m, k, b, P", [
    (1, 2, 1, 1), (2, 2, 7, 1), (3, 4, 1, 2), (5, 4, 30, 3), (5, 3, 20, 2),
    (10, 10, 204, 10), (10, 9, 50, 4), (10, 20, 40, 1), (12, 16, 60, 5),
    (20, 18, 30, 30), (10, 0, 5, 1),
])
@pytest.mark.parametrize("ties", [False, True])
def test_matching_block_values_equal_the_sets_one_at_a_time(m, k, b, P, ties):
    rng = np.random.default_rng(100 * m + k + b + P)
    w = rng.random((P, m, m)) * 3
    if ties:  # a few distinct weights, so assignments tie
        w = np.round(w)
    sets = random_sets(rng, b, 2 * m, k, m)
    phase = np.sort(rng.integers(0, P, size=b))
    block = MatchingRewardFunction(w, phase)
    got = block.value(sets)
    want = matching_values_reference(block, sets)
    assert got.shape == (b,) and got.tobytes() == want.tobytes()
    if k and k % 2 == 0 and k // 2 <= m and b > 1:
        assert (want != 0).any()  # some rows are balanced
    # one matrix: b sets of the same reward
    one = MatchingRewardFunction(w[0])
    assert one.value(sets).tobytes() == matching_values_reference(one, sets).tobytes()
    # the full values, one per round, each its own matrix's
    full = [MatchingRewardFunction(w[p]).full_value() for p in phase.tolist()]
    assert block.full_value().tobytes() == np.array(full).tobytes()
    assert one.full_value() == one._value(range(2 * m))


def test_matching_block_has_no_value_on_one_set():
    block = MatchingRewardFunction(np.ones((2, 3, 3)), np.array([0, 0, 1]))
    assert block.n == 6 and block.value_bound == 3.0
    for single in (lambda: block.value([0, 3]), lambda: block.value_mask(9),
                   block.values_all):
        with pytest.raises(ValueError, match="takes one set per round"):
            single()
    with pytest.raises(ValueError, match="phase index"):
        MatchingRewardFunction(np.ones((2, 3, 3)))
    with pytest.raises(ValueError, match="phase index"):
        MatchingRewardFunction(np.ones((3, 3)), np.array([0]))
    with pytest.raises(ValueError, match="name matrices of the stack"):
        MatchingRewardFunction(np.ones((2, 3, 3)), np.array([0, 2]))


def test_matching_rejects_bad_matrices():
    with pytest.raises(ValueError):
        MatchingRewardFunction(np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        MatchingRewardFunction(np.array([[-1.0]]))
