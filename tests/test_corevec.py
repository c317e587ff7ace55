"""Core-vector constructions checked against exhaustive enumeration."""

import itertools
import math

import numpy as np
import pytest

from coreselect import corevec
from coreselect.corevec import (
    avg_submodular_shapley_check,
    core_membership,
    core_vectors,
    dictator_vector,
    find_dictator,
    hungarian_duals,
    marginal_vector,
    matching_core_vector,
    shapley_exact,
    subset_sums,
    tightest_alpha,
)
from coreselect.oracles import (
    TableFunction,
    enumerate_matching_value,
    indicator_game,
    second_game,
)
from coreselect.setfn import (
    CoverageFunction,
    MatchingRewardFunction,
    ModularFunction,
    check_submodular,
    distance_sup,
)


def shapley_by_permutations(f):
    """Oracle: average marginal vector over all n! permutations."""
    n = f.n
    acc = np.zeros(n)
    count = 0
    for perm in itertools.permutations(range(n)):
        acc += marginal_vector(f, np.array(perm)).g
        count += 1
    return acc / count


def random_coverage(n, rng):
    family = [rng.integers(0, 2 * n, size=rng.integers(1, n)).tolist() for _ in range(n)]
    return CoverageFunction(family, 2 * n)


# ---------------------------------------------------------------------------
# Marginal vectors.

def test_marginal_of_modular_is_the_coefficients():
    rng = np.random.default_rng(0)
    w = rng.standard_normal(6)
    f = ModularFunction(w)
    for _ in range(5):
        perm = rng.permutation(6)
        np.testing.assert_allclose(marginal_vector(f, perm).g, w, atol=1e-12)


def test_marginal_of_indicator_game_identity_permutation():
    av = marginal_vector(indicator_game(), np.arange(3))
    np.testing.assert_allclose(av.g, [1.0, 0.0, 0.0], atol=1e-12)
    assert core_membership(av.g, indicator_game(), 1.0)


def test_marginal_of_coverage_example():
    f = CoverageFunction([[0, 1], [1, 2], [2]], 3)
    av = marginal_vector(f, np.arange(3), submodular=True)
    np.testing.assert_allclose(av.g, [2.0, 1.0, 0.0], atol=1e-12)
    assert av.alpha == 1.0
    assert core_membership(av.g, f, 1.0)


def test_marginal_sums_to_full_value_exactly():
    rng = np.random.default_rng(1)
    for _ in range(20):
        f = random_coverage(6, rng)
        g = marginal_vector(f, rng.permutation(6)).g
        assert g.sum() == f.full_value()


def test_marginal_alpha_tags():
    f = indicator_game()
    assert marginal_vector(f).alpha is None
    assert marginal_vector(f, submodular=True).alpha == 1.0
    assert marginal_vector(f, rho=0.5).alpha == 2.0
    with pytest.raises(ValueError):
        marginal_vector(f, rho=1.5)
    with pytest.raises(ValueError):
        marginal_vector(f, np.array([0, 0, 1]))


def test_submodular_marginals_live_in_the_core():
    rng = np.random.default_rng(2)
    for _ in range(10):
        f = random_coverage(5, rng)
        assert check_submodular(f)
        for _ in range(100):
            g = marginal_vector(f, rng.permutation(5)).g
            assert core_membership(g, f, 1.0)


# ---------------------------------------------------------------------------
# Shapley values.

def test_shapley_exact_indicator_game():
    np.testing.assert_allclose(shapley_exact(indicator_game()), [0.5, 0.5, 0.0], atol=1e-12)


def test_shapley_exact_matches_permutation_enumeration():
    rng = np.random.default_rng(4)
    for _ in range(5):
        f = random_coverage(5, rng)
        np.testing.assert_allclose(
            shapley_exact(f), shapley_by_permutations(f), atol=1e-10
        )


# ---------------------------------------------------------------------------
# Dictators.

def test_find_dictator_examples():
    assert find_dictator(indicator_game(), 1.0) == 0
    assert find_dictator(ModularFunction(np.array([0.1, 0.9])), 0.5) == 1
    assert find_dictator(ModularFunction(np.array([0.1, 0.2])), 0.5) is None


def test_dictator_vector_first_game():
    av = dictator_vector(indicator_game(), 0, 1.0)
    np.testing.assert_allclose(av.g, [1.0, 0.0, 0.0])
    assert av.alpha == 1.0
    assert core_membership(av.g, indicator_game(), 1.0)


def test_dictator_vector_second_game():
    f = second_game()
    av = dictator_vector(f, 0, 1.0)
    np.testing.assert_allclose(av.g, [2.0, 0.0, 0.0])
    assert av.alpha == 2.0
    assert core_membership(av.g, f, 2.0)


def test_dictator_vector_modular_spike():
    f = ModularFunction(np.array([1.0, 0.0, 0.0]))
    av = dictator_vector(f, 0)
    np.testing.assert_allclose(av.g, f.w)


# ---------------------------------------------------------------------------
# Membership and tightest level.

def test_membership_and_tightest_for_published_point():
    f = second_game()
    g = np.array([3.0, 0.0, -1.0])
    assert core_membership(g, f, 2.0)
    assert tightest_alpha(g, f) == pytest.approx(1.5)


def test_core_family_of_indicator_game():
    f = indicator_game()
    for t in np.linspace(0, 1, 9):
        assert core_membership(np.array([t, 1 - t, 0.0]), f, 1.0)
    assert not core_membership(np.array([1.2, -0.2, 0.0]), f, 1.0)
    assert not core_membership(np.array([0.4, 0.4, 0.2]), f, 1.0)


def test_membership_requires_exact_total():
    f = ModularFunction(np.array([1.0, 1.0]))
    assert not core_membership(np.array([1.0, 0.5]), f, 5.0)


def test_modular_tightest_alpha_is_one():
    w = np.array([0.5, 1.5, 0.2])
    f = ModularFunction(w)
    assert core_membership(w, f, 1.0)
    assert tightest_alpha(w, f) == 1.0


def test_tightest_alpha_flags_mass_on_zero_sets():
    f = TableFunction([0.0, 0.0, 1.0, 1.0])
    assert tightest_alpha(np.array([0.5, 0.5]), f) == float("inf")


def test_tightest_alpha_bounded_by_rho_guarantee():
    from coreselect.setfn import estimate_rho

    eps = 0.25
    vals = [bin(m).count("1") + (eps if bin(m).count("1") >= 2 else 0.0)
            for m in range(16)]
    f = TableFunction(vals)
    rho = estimate_rho(f)
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = marginal_vector(f, rng.permutation(4)).g
        assert tightest_alpha(g, f) <= 1.0 / rho + 1e-9


def test_subset_sums_matches_direct():
    g = np.array([1.0, -2.0, 0.5])
    gs = subset_sums(g)
    for mask in range(8):
        direct = sum(g[i] for i in range(3) if mask >> i & 1)
        assert abs(gs[mask] - direct) < 1e-12


# ---------------------------------------------------------------------------
# Matching duals.

def test_hungarian_one_by_one():
    u, v, matching, value = hungarian_duals(np.array([[5.0]]))
    assert value == 5.0
    assert matching == [(0, 0)]
    assert abs(u[0] + v[0] - 5.0) < 1e-9


def test_hungarian_two_by_two():
    w = np.array([[1.0, 2.0], [3.0, 4.0]])
    u, v, matching, value = hungarian_duals(w)
    assert value == 5.0
    assert matching == [(0, 0), (1, 1)]
    assert np.all(u[:, None] + v[None, :] <= w + 1e-9)
    assert abs(u.sum() + v.sum() - 5.0) < 1e-9
    assert np.all(u >= -1e-12) and np.all(v >= -1e-12)


def test_hungarian_matches_enumeration():
    rng = np.random.default_rng(8)
    for _ in range(20):
        m = 3
        w = rng.random((m, m)) * 4
        u, v, matching, value = hungarian_duals(w)
        assert abs(value - enumerate_matching_value(w)) < 1e-9
        assert abs(u.sum() + v.sum() - value) < 1e-6
        assert np.all(u[:, None] + v[None, :] <= w + 1e-7)
        for i, j in matching:
            assert abs(u[i] + v[j] - w[i, j]) < 1e-6  # tight on matched pairs


def test_hungarian_nonnegative_prices_for_separable_costs():
    # costs of the form a_i + b_j admit nonnegative optimal prices; the
    # returned pair should land on them
    rng = np.random.default_rng(81)
    for _ in range(10):
        m = int(rng.integers(1, 5))
        a, b = rng.random(m) * 2, rng.random(m) * 2
        w = a[:, None] + b[None, :]
        u, v, _, value = hungarian_duals(w)
        assert abs(value - (a.sum() + b.sum())) < 1e-9
        assert np.all(u >= -1e-9) and np.all(v >= -1e-9)


def test_hungarian_rejects_bad_input():
    with pytest.raises(ValueError):
        hungarian_duals(np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        hungarian_duals(np.array([[-1.0]]))


def _repeated_rows_and_columns():
    base = np.random.default_rng(31).random((3, 3))
    w = np.vstack([base, base[:2]])        # rows 3, 4 repeat rows 0, 1
    return w[:, [0, 1, 1, 2, 0]]           # columns repeat too


DEGENERATE_COSTS = {
    "zero": np.zeros((4, 4)),
    "constant": np.full((5, 5), 2.5),
    "repeated-rows-and-columns": _repeated_rows_and_columns(),
    "binary-ties": np.random.default_rng(32).integers(0, 2, (6, 6)).astype(float),
    "one-by-one": np.array([[0.75]]),
    "random-30": np.random.default_rng(33).random((30, 30)),
    "scaled-1e6": np.random.default_rng(34).random((4, 4)) * 1e6,
}


@pytest.mark.parametrize("name", sorted(DEGENERATE_COSTS))
def test_hungarian_duals_on_degenerate_costs(name):
    w = DEGENERATE_COSTS[name]
    m = w.shape[0]
    u, v, matching, value = hungarian_duals(w)
    tol = 1e-9 * max(1.0, float(w.max()))
    assert np.all(u[:, None] + v[None, :] <= w + tol)
    for i, j in matching:
        assert abs(u[i] + v[j] - w[i, j]) <= tol
    assert abs(u.sum() + v.sum() - value) <= m * tol
    if m <= 6:
        assert abs(value - enumerate_matching_value(w)) <= m * tol
    if m <= 4:
        f = MatchingRewardFunction(w)
        assert core_membership(np.concatenate([u, v]), f, 1.0, tol=m * tol,
                               masks=np.array(f.balanced_masks()))


def test_hungarian_duals_reject_a_non_optimal_assignment(monkeypatch):
    # the anti-diagonal costs 2 where the diagonal costs 0: the arcs of the
    # anti-diagonal assignment close a negative cycle
    w = np.array([[0.0, 1.0], [1.0, 0.0]])
    monkeypatch.setattr(corevec, "linear_sum_assignment",
                        lambda _w: (np.arange(2), np.array([1, 0])))
    with pytest.raises(RuntimeError, match="negative cycle"):
        hungarian_duals(w)

@pytest.mark.parametrize("name", sorted(DEGENERATE_COSTS))
def test_hungarian_duals_of_a_stack_equal_its_matrices_one_at_a_time(name):
    # the degenerate matrix among random, tied, separable and scaled ones of
    # its size, whose relaxations settle after different numbers of rounds
    w = DEGENERATE_COSTS[name]
    m = len(w)
    rng = np.random.default_rng(m)
    stack = np.stack([rng.random((m, m)), w, np.round(rng.random((m, m)) * 2),
                      rng.random(m)[:, None] + rng.random(m)[None, :],
                      np.ascontiguousarray(w[::-1]), rng.random((m, m)) * 1e6, w])
    u, v, matching, value = hungarian_duals(stack)
    assert u.shape == v.shape == (len(stack), m) and value.shape == (len(stack),)
    for p, wp in enumerate(stack):
        up, vp, matching_p, value_p = hungarian_duals(wp)
        assert u[p].tobytes() == up.tobytes() and v[p].tobytes() == vp.tobytes()
        assert list(zip(range(m), matching[p].tolist())) == matching_p
        assert value[p] == value_p
    # a stack of one is the matrix itself, as rows
    one = hungarian_duals(w[None])
    assert one[0].tobytes() == hungarian_duals(w)[0][None].tobytes()


def test_hungarian_duals_of_a_stack_return_each_rows_column():
    # a stack's matching is its (P, m) assignment columns, not P lists of
    # pairs that core_vectors would build and throw away; one matrix
    # keeps its list of pairs, which verify reads
    rng = np.random.default_rng(11)
    for P, m in ((1, 1), (3, 4), (10, 10)):
        stack = rng.random((P, m, m))
        u, v, cols, value = hungarian_duals(stack)
        assert isinstance(cols, np.ndarray) and cols.dtype.kind == "i"
        assert cols.shape == (P, m)
        for p, wp in enumerate(stack):
            assert hungarian_duals(wp)[2] == list(zip(range(m), cols[p].tolist()))
            assert sorted(cols[p].tolist()) == list(range(m))


def test_hungarian_duals_of_a_stack_name_the_matrix_that_fails(monkeypatch):
    # only the anti-diagonal matrix gets the non-optimal assignment
    bad = np.array([[0.0, 1.0], [1.0, 0.0]])
    solve = corevec.linear_sum_assignment

    def solver(w):
        return (np.arange(2), np.array([1, 0])) if w.tobytes() == bad.tobytes() else solve(w)

    monkeypatch.setattr(corevec, "linear_sum_assignment", solver)
    rng = np.random.default_rng(3)
    stack = np.stack([rng.random((2, 2)), rng.random((2, 2)), bad, bad, rng.random((2, 2))])
    with pytest.raises(corevec.DualsError,
                       match="^matrix 2 of the stack: .*negative cycle") as info:
        hungarian_duals(stack)
    assert info.value.index == 2
    # the matrices around it still solve, and one matrix alone names none
    hungarian_duals(np.delete(stack, [2, 3], axis=0))
    with pytest.raises(corevec.DualsError, match="^shortest-path") as info:
        hungarian_duals(bad)
    assert info.value.index == 0


def test_matching_core_vector_membership_on_balanced_subsets():
    w = np.array([[1.0, 2.0], [3.0, 4.0]])
    f = MatchingRewardFunction(w)
    av = matching_core_vector(w)
    assert abs(av.g.sum() - f.full_value()) < 1e-9
    assert core_membership(av.g, f, 1.0, masks=np.array(f.balanced_masks()))
    # the published dual pair is itself a valid core point
    assert core_membership(np.array([1.0, 3.0, 0.0, 1.0]), f, 1.0,
                           masks=np.array(f.balanced_masks()))


def test_matching_core_vector_random_instances():
    rng = np.random.default_rng(9)
    for _ in range(10):
        m = int(rng.integers(1, 4))
        w = rng.random((m, m)) * 2
        f = MatchingRewardFunction(w)
        av = matching_core_vector(w)
        assert abs(av.g.sum() - f.full_value()) < 1e-6
        assert core_membership(av.g, f, 1.0, masks=np.array(f.balanced_masks()))


def test_matching_core_vector_norm_bound_with_nonnegative_prices():
    # the ball-radius bound presumes nonnegative prices, so exercise it on
    # separable costs where those exist
    rng = np.random.default_rng(91)
    for _ in range(10):
        m = int(rng.integers(1, 5))
        w = rng.random(m)[:, None] + rng.random(m)[None, :]
        av = matching_core_vector(w)
        assert np.linalg.norm(av.g) <= 2 * m * w.max() / math.sqrt(2.0) + 1e-7


# ---------------------------------------------------------------------------
# Averaged-submodularity Shapley condition.

def test_shapley_condition_modular_true():
    f = ModularFunction(np.array([1.0, 2.0, 0.5]))
    assert avg_submodular_shapley_check(f)


def test_shapley_condition_indicator_game():
    f = indicator_game()
    assert avg_submodular_shapley_check(f)
    assert core_membership(shapley_exact(f), f, 1.0)


def test_shapley_condition_counterexample_found_by_search():
    rng = np.random.default_rng(10)
    found = False
    for _ in range(200):
        n = 3
        vals = np.zeros(8)
        for mask in range(1, 8):
            parents = [mask & ~(1 << i) for i in range(n) if mask >> i & 1]
            vals[mask] = max(vals[p] for p in parents) + rng.random() ** 3
        f = TableFunction(vals)
        if not avg_submodular_shapley_check(f):
            found = True
            assert not core_membership(shapley_exact(f), f, 1.0)
            break
    assert found, "random search should hit a function whose Shapley value leaves the core"


# ---------------------------------------------------------------------------
# Norm bounds and the hint inequality.

def test_norm_bound_alpha_ball():
    rng = np.random.default_rng(11)
    for _ in range(20):
        f = random_coverage(5, rng)
        M = f.full_value()  # a monotone reward's largest value
        g = marginal_vector(f, rng.permutation(5), submodular=True).g
        assert np.linalg.norm(g) <= 1.0 * M * math.sqrt(2) + 1e-7
        assert np.all(g >= -1e-12)
        assert np.linalg.norm(g) <= np.abs(g).sum() + 1e-12
        assert np.abs(g).sum() <= M + 1e-9


def test_hint_inequality_l1_vs_sup_distance():
    rng = np.random.default_rng(12)
    for _ in range(200):
        f = random_coverage(5, rng)
        fvec = marginal_vector(f, rng.permutation(5), submodular=True).g
        h = fvec + rng.standard_normal(5)
        assert np.abs(fvec - h).sum() <= 3.0 * distance_sup(f, h) + 1e-9


# ---------------------------------------------------------------------------
# The proxy vectors of a run: core_vectors.

def test_modular_strategy_returns_coefficients():
    f = ModularFunction(np.array([[1.0, 2.0], [3.0, 4.0]]))  # a run of 2 rounds
    rng = np.random.default_rng(12)
    state = rng.bit_generator.state
    assert core_vectors(f, 2, rng) is f.w
    assert rng.bit_generator.state == state


def test_marginal_strategy_identity_vs_random():
    # the marginal vectors of a coverage reward follow a fresh permutation
    # per round, so the rows of a long run are not all the same
    f = CoverageFunction([[0, 1], [1, 2], [2]], 3)
    rows = core_vectors(f, 20, np.random.default_rng(13))
    assert rows.shape == (20, 3)
    assert len({tuple(np.round(g, 9)) for g in rows}) > 1
    np.testing.assert_allclose(rows.sum(axis=1), f.full_value())


def test_core_vectors_pick_the_construction_by_reward_family():
    rng = np.random.default_rng(14)
    stack = rng.random((3, 3, 3))
    state = rng.bit_generator.state
    # a modular run of 2 rounds: its own coefficient rows
    f = ModularFunction(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert core_vectors(f, 2, rng) is f.w
    # a matching run, on one matrix and on a stack of phases: each round's
    # row is its phase's duals, u then v
    for f, b in ((MatchingRewardFunction(stack[0]), 4),
                 (MatchingRewardFunction(stack, np.array([0, 0, 1, 2, 2])), 5)):
        u, v, _, _ = hungarian_duals(f.w)
        duals = np.concatenate([u, v], axis=-1).reshape(-1, f.n)
        want = duals[np.zeros(b, dtype=np.intp) if f.phase is None else f.phase]
        assert core_vectors(f, b, rng).tobytes() == want.tobytes()
    assert rng.bit_generator.state == state  # neither draws
    # coverage and table rewards: each row is marginal_vector along the
    # permutation the generator draws for its round
    for g in (CoverageFunction([[0, 1], [1, 2], [2], [0, 3]], 4),
              TableFunction(rng.random(16), monotone=False)):
        got_rng, want_rng = np.random.default_rng(15), np.random.default_rng(15)
        want = [marginal_vector(g, want_rng.permutation(4)).g for _ in range(7)]
        assert core_vectors(g, 7, got_rng).tobytes() == np.array(want).tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("n, universe, b", [(6, 12, 1), (20, 40, 204), (40, 80, 30)])
def test_marginal_strategy_run_is_its_rounds_one_at_a_time(n, universe, b):
    from coreselect.adversary import random_coverage

    f = random_coverage(n, universe, np.random.default_rng(n))
    got_rng, want_rng = np.random.default_rng(b), np.random.default_rng(b)
    got = core_vectors(f, b, got_rng)
    want = np.array([marginal_vector(f, want_rng.permutation(n), submodular=True).g
                     for _ in range(b)])
    assert got.shape == (b, n) and got.tobytes() == want.tobytes()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_modular_and_matching_strategies_leave_their_generator_untouched():
    # so one call on the joined runs of a lane group serves every lane;
    # the marginal vectors draw a permutation per round
    from coreselect.adversary import adversary_from_config

    for kind, n in (("modular-random", 6), ("modular-drift", 6), ("onehot-ensemble", 6),
                    ("matching-random", 8), ("coverage-drift", 6)):
        adv = adversary_from_config({"kind": kind}, n)
        rng = np.random.default_rng(7)
        state = rng.bit_generator.state
        strategy = adv.core_strategy(rng)
        for f, b in adv.rounds(30, np.random.default_rng(8)):
            strategy(f, b)
        assert (rng.bit_generator.state == state) == (kind != "coverage-drift"), kind


def test_coverage_runs_hold_a_bounded_slice_of_their_words():
    import tracemalloc

    from coreselect.adversary import random_coverage

    # 204 rounds of 20 elements over 200000 items: all of a run's gathered
    # words at once would take about 100 MiB
    n, b = 20, 204
    f = random_coverage(n, 200000, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    sets = np.sort(rng.permuted(np.tile(np.arange(n), (b, 1)), axis=1)[:, :5], axis=1)
    for call in (lambda: core_vectors(f, b, rng), lambda: f.value(sets)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


def test_matching_dual_strategy_solves_once_per_run(monkeypatch):
    calls = []
    solve = corevec.hungarian_duals

    def counting(w, *args, **kwargs):
        calls.append(w)
        return solve(w, *args, **kwargs)

    w = np.array([[1.0, 2.0], [3.0, 4.0]])
    duals = matching_core_vector(w).g
    monkeypatch.setattr(corevec, "hungarian_duals", counting)
    rng = np.random.default_rng(0)

    def strategy(f, b):
        return core_vectors(f, b, rng)

    f = MatchingRewardFunction(w)
    rows = strategy(f, 5)
    assert len(calls) == 1 and rows.shape == (5, 4)
    # every round of the run gets the duals of its reward
    np.testing.assert_array_equal(rows, np.tile(duals, (5, 1)))
    # each run is solved on its own, into rows of its own: writing one
    # run's rows changes no other run's
    rows[0, 0] = 99.0
    assert strategy(f, 3).tobytes() == np.tile(duals, (3, 1)).tobytes()
    assert len(calls) == 2
    # a block that spans phases: one call on its stack, and each round
    # gets its phase's duals
    stack = np.random.default_rng(4).random((3, 2, 2))
    phase = np.array([0, 0, 1, 2, 2, 2])
    rows = strategy(MatchingRewardFunction(stack, phase), 6)
    assert len(calls) == 3 and calls[-1] is stack
    want = np.array([matching_core_vector(stack[p]).g for p in phase])
    assert rows.tobytes() == want.tobytes()


def test_matching_dual_strategy_gives_the_full_values_it_solved(monkeypatch):
    # the duals' matching values, as the reward's full-set values, have the
    # bits full_value solves for, on random and quarter-rounded (tied)
    # stacks; after the strategy, full_value solves nothing
    from coreselect import setfn

    rng = np.random.default_rng(29)
    cases = []
    for m in range(1, 16):
        for rounded in (False, True):
            w = rng.random((4, m, m)) * 3
            cases.append((np.round(4 * w) / 4 if rounded else w, rng.integers(0, 4, 9)))
    solved = [MatchingRewardFunction(w, phase).full_value() for w, phase in cases]
    for (w, phase), want in zip(cases, solved):
        f = MatchingRewardFunction(w, phase)
        core_vectors(f, len(phase), rng)
        with monkeypatch.context() as patch:
            patch.setattr(setfn, "assignment_solver", lambda: pytest.fail("solved again"))
            assert f.full_value().tobytes() == want.tobytes()
    # one matrix: its value as a float
    f = MatchingRewardFunction(cases[-1][0][0])
    core_vectors(f, 2, rng)
    assert f.full_value() == MatchingRewardFunction(f.w).full_value()


def test_matching_dual_strategy_names_the_rows_of_the_phase_that_fails(monkeypatch):
    def failing(w, *args, **kwargs):
        raise corevec.DualsError(1, "matrix 1 of the stack: boom")

    monkeypatch.setattr(corevec, "hungarian_duals", failing)
    f = MatchingRewardFunction(np.ones((3, 2, 2)), np.array([0, 1, 1, 1, 2]))
    with pytest.raises(corevec.DualsError, match="boom") as info:
        core_vectors(f, 5, np.random.default_rng(0))
    assert info.value.rows == range(1, 4)
    # a matrix that no round plays leaves the rows to the caller
    f = MatchingRewardFunction(np.ones((3, 2, 2)), np.array([0, 2, 2]))
    with pytest.raises(corevec.DualsError, match="boom") as info:
        core_vectors(f, 3, np.random.default_rng(0))
    assert not hasattr(info.value, "rows")
