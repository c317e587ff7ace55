"""Reward-family evaluation and structural diagnostics."""

import numpy as np
import pytest

from coreselect import setfn
from coreselect.adversary import random_coverage
from coreselect.blocks import block_rounds
from coreselect.oracles import (
    TableFunction,
    enumerate_matching_value,
    random_monotone_function,
    second_game,
)
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
    linear_sum_assignment,
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


def test_modular_table_has_the_bits_of_value(monkeypatch):
    # adding one element at a time, as a doubling table does, and numpy's
    # pairwise sum give mask 255 of this w as -5.099999999999999 and -5.1
    w = np.round(np.random.default_rng(8).standard_normal(8), 1)
    w[[1, 6]] = -0.0, 0.0
    f = ModularFunction(w)
    assert f.value(range(8)) == -5.1
    assert f.values_all()[255] == -5.1
    want = [f.value(indices_of(m)) for m in range(256)]
    assert f.values_all().tobytes() == np.array(want).tobytes()
    # at n = 14 the sets of 7 elements take 24024 indices: the table is
    # built by value calls of at most PLAN_CELLS indices each
    f = ModularFunction(np.random.default_rng(14).normal(size=14) * 10.0 ** np.arange(-7, 7))
    cells, real_value = [], ModularFunction.value

    def value(self, indices):
        cells.append(np.size(indices))
        return real_value(self, indices)

    monkeypatch.setattr(ModularFunction, "value", value)
    table = f.values_all()
    assert 0 < max(cells) <= setfn.PLAN_CELLS
    monkeypatch.undo()
    want = [f.value(indices_of(m)) for m in range(1 << 14)]
    assert table.tobytes() == np.array(want).tobytes()


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


def test_one_round_modular_reward_values_a_run_row_by_row():
    rng = np.random.default_rng(3)
    w = rng.standard_normal(9) * 10.0 ** rng.uniform(-5.0, 5.0, 9)
    w[4] = -0.0
    f = ModularFunction(w)
    for k in (0, 1, 4, 9):
        sets = rng.permuted(np.tile(np.arange(9), (6, 1)), axis=1)[:, :k]
        want = [float(w[s].sum()) for s in sets.tolist()]
        assert [f.value(s) for s in sets.tolist()] == want
        got = f.value(sets)
        assert got.shape == (6,) and got.tobytes() == np.array(want).tobytes()
    assert ModularFunction([1, 2, 3, 4]).value(np.array([[0, 1], [2, 3]])).tolist() == [3, 7]


def test_a_block_takes_one_set_per_round():
    # a run of sets that is not one per round names both counts
    rng = np.random.default_rng(4)
    modular = ModularFunction(rng.random((3, 6)))
    matching = MatchingRewardFunction(rng.random((2, 3, 3)), np.array([0, 0, 1, 1]))
    for f, b, rounds in ((modular, 1, 3), (modular, 2, 3), (modular, 4, 3),
                         (matching, 2, 4), (matching, 5, 4)):
        sets = np.tile(np.array([0, 3]), (b, 1))
        with pytest.raises(ValueError, match=f"block of {rounds} rounds takes {rounds} sets, "
                                             f"one per round, got {b}$"):
            f.value(sets)
    assert modular.value(np.tile(np.array([0, 3]), (3, 1))).shape == (3,)
    assert matching.value(np.tile(np.array([0, 3]), (4, 1))).shape == (4,)


@pytest.mark.parametrize("f", [
    ModularFunction(np.arange(1.0, 5.0)),
    CoverageFunction([[0], [1, 2], [2], []], 3),
    MatchingRewardFunction(np.arange(1.0, 5.0).reshape(2, 2)),
], ids=["modular", "coverage", "matching"])
def test_a_set_with_an_index_outside_the_ground_set_is_an_error(f):
    assert f.n == 4
    for indices in ([4], [0, 2, 4], [-1], [1, -1], np.array([0, 7])):
        with pytest.raises(ValueError, match=r"outside the ground set \[0, 4\)"):
            f.value(indices)
    assert f.value([0, 3]) == f.value(np.array([0, 3]))


def test_a_table_function_names_an_index_outside_its_ground_set():
    f = second_game()
    for indices in ([3], [-1], [0, 3], np.array([1, -2])):
        with pytest.raises(ValueError, match=r"^index -?\d+ is outside the ground set \[0, 3\)$"):
            f.value(indices)
    assert f.value([0, 2]) == 2.0 and f.value(np.array([1])) == 1.0


@pytest.mark.parametrize("f", [
    ModularFunction(np.arange(4.0)),
    ModularFunction(np.ones((2, 4))),
    CoverageFunction([[0], [1, 2], [2], []], 3),
    MatchingRewardFunction(np.arange(1.0, 5.0).reshape(2, 2)),
    TableFunction(np.arange(16.0)),
], ids=["modular", "modular-block", "coverage", "matching", "table"])
def test_a_run_with_an_index_outside_the_ground_set_is_an_error(f):
    # a run's indices are checked as one set's are: none wraps around, and
    # none is past the end; a run of no elements values to zeros
    assert f.n == 4
    for bad in (-1, -4, 4, 7):
        with pytest.raises(ValueError, match=rf"^index {bad} is outside the ground set \[0, 4\)$"):
            f.value(np.array([[0, 1], [2, bad]]))
    assert f.value(np.empty((2, 0), dtype=np.intp)).tolist() == [0.0, 0.0]


def contract_families():
    """A reward of each family on 8 elements, with ties and signed zeros."""
    rng = np.random.default_rng(8)
    w = np.round(rng.standard_normal(8), 1)
    w[[1, 6]] = -0.0, 0.0
    family = [rng.choice(20, size=int(rng.integers(0, 6)), replace=False) for _ in range(8)]
    return [ModularFunction(w), CoverageFunction(family, 20, scale=0.05),
            MatchingRewardFunction(np.round(rng.random((4, 4)) * 3))]


@pytest.mark.parametrize("f", contract_families(), ids=["modular", "coverage", "matching"])
def test_one_set_is_a_run_of_one_row(f):
    # value(S) is value of the run [S], and value_mask(m) is value of m's set
    rng = np.random.default_rng(f.n)
    for k in range(f.n + 1):
        for s in rng.permuted(np.tile(np.arange(f.n), (5, 1)), axis=1)[:, :k]:
            got = f.value(s.tolist())
            assert type(got) is float
            assert np.float64(got).tobytes() == f.value(s[None])[:1].tobytes()
    for m in range(1 << f.n):
        assert np.float64(f.value_mask(m)).tobytes() == \
            np.float64(f.value(indices_of(m))).tobytes()


class RootOfSum(SetFunction):
    """f(S) = the square root of the sum of ``w`` over S, defined only by
    ``value_mask``: every other body is the generic one."""

    def __init__(self, w):
        super().__init__(len(w))
        self.w = w

    def value_mask(self, mask):
        return float(np.sqrt(self.w[list(indices_of(mask))].sum()))


RUN = 12  # the sets of a run, the rounds of a block


def contract_reward(kind):
    """A reward of ``kind`` on 8 elements, and ``alone(i)``, the reward of
    the run's row i alone: the reward itself, unless it holds a block of
    ``RUN`` rounds."""
    rng = np.random.default_rng(9)
    if kind == "modular-block":
        w = np.round(rng.standard_normal((RUN, 8)), 1)
        w[0, [1, 6]] = -0.0, 0.0
        return ModularFunction(w), lambda i: ModularFunction(w[i])
    if kind == "matching-stack":
        stack, phase = np.round(rng.random((3, 4, 4)) * 3), np.sort(rng.integers(0, 3, RUN))
        return (MatchingRewardFunction(stack, phase),
                lambda i: MatchingRewardFunction(stack[phase[i]]))
    if kind == "table":
        f = random_monotone_function(8, rng)
    elif kind == "value-mask-only":
        f = RootOfSum(rng.random(8))
    else:
        f = dict(zip(("modular", "coverage", "matching"), contract_families()))[kind]
    return f, lambda i: f


@pytest.mark.parametrize("kind", ["modular", "modular-block", "coverage", "matching",
                                  "matching-stack", "table", "value-mask-only"])
def test_every_reward_values_a_run_as_each_set_alone(kind):
    # value of a run is each row valued alone, and the subset table and
    # prefix values are value of each set, bit for bit
    f, alone = contract_reward(kind)
    perms = np.random.default_rng(10).permuted(np.tile(np.arange(f.n), (RUN, 1)), axis=1)
    for k in range(f.n + 1):
        got = f.value(perms[:, :k])
        want = [alone(i).value(s) for i, s in enumerate(perms[:, :k].tolist())]
        assert got.shape == (RUN,) and got.tobytes() == np.array(want).tobytes()
    if kind.endswith(("-block", "-stack")):
        return  # a block of rewards has no table, and no prefixes of one set
    want = [f.value(indices_of(m)) for m in range(1 << f.n)]
    assert f.values_all().tobytes() == np.array(want).tobytes()
    want = [[f.value(p[:i]) for i in range(f.n + 1)] for p in perms.tolist()]
    assert f.prefix_values(perms).tobytes() == np.array(want).tobytes()
    assert f.prefix_values(perms[0]).tobytes() == np.array(want[0]).tobytes()


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
    family[1] = []  # an element that covers nothing
    f = CoverageFunction(family, universe, scale=scale)
    assert f.full_value() == union_reward(family, range(n), scale)
    # the (n, U) boolean incidence packs to the same words and values
    incidence = np.zeros((n, universe), dtype=bool)
    for row, items in zip(incidence, family):
        row[items] = True
    g = CoverageFunction(incidence, universe, scale=scale)
    assert g.words.shape == (n, -(-universe // 64))
    assert g.words.tobytes() == f.words.tobytes()
    assert g.full_value() == f.full_value()
    sets = rng.permuted(np.tile(np.arange(n), (30, 1)), axis=1)[:, :5]
    assert g.value(sets).tobytes() == f.value(sets).tobytes()
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


@pytest.mark.parametrize("cells", [1, 3, 7, 40])
def test_coverage_gathers_stay_within_plan_cells_words(cells, monkeypatch):
    # with PLAN_CELLS down to a few words, a row's sets are walked in slices
    # of at most PLAN_CELLS // W, the union carried from slice to slice:
    # every gather holds at most PLAN_CELLS words (one set's W at least),
    # and value and prefix_values keep their bits
    class Gathers(np.ndarray):
        sizes = []

        def __getitem__(self, key):
            out = np.asarray(super().__getitem__(key))
            Gathers.sizes.append(out.size)
            return out

    def calls(f, sets):
        return [f.value(sets[:, :k]) for k in (0, 1, 5, n)] + [f.prefix_values(sets)]

    rng = np.random.default_rng(cells)
    n = 13
    for universe in (65, 200, 700):
        f = random_coverage(n, universe, rng)
        sets = rng.permuted(np.tile(np.arange(n), (9, 1)), axis=1)
        want = calls(f, sets)
        monkeypatch.setattr(setfn, "PLAN_CELLS", cells)
        f.words, Gathers.sizes = f.words.view(Gathers), []
        got = calls(f, sets)
        monkeypatch.undo()
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        assert 0 < max(Gathers.sizes) <= max(cells, f.words.shape[1])


@pytest.mark.parametrize("universe", [63, 64, 65, 130])
def test_coverage_values_all_of_any_universe(universe):
    rng = np.random.default_rng(universe)
    for n in (1, 4, 10):
        family = [np.flatnonzero(rng.random(universe) < 0.2).tolist() for _ in range(n)]
        family[-1].append(universe - 1)
        f = CoverageFunction(family, universe, scale=1.0 / universe)
        want = [union_reward(family, indices_of(m), 1.0 / universe) for m in range(1 << n)]
        assert f.values_all().tolist() == want


@pytest.mark.parametrize("universe", [1, 2, 65])
def test_random_coverage_packs_its_incidence_as_index_lists_would(universe):
    # at density 0 every row is empty until the fallback covers one item,
    # and the fix-up then covers every item no row covers
    for density in (0.0, 0.3):
        f = random_coverage(6, universe, np.random.default_rng(universe), density)
        incidence = np.unpackbits(f.words.view(np.uint8), axis=1,
                                  bitorder="little")[:, :universe].astype(bool)
        assert incidence.any(axis=1).all() and incidence.any(axis=0).all()
        lists = CoverageFunction([np.flatnonzero(row) for row in incidence], universe,
                                 scale=1.0 / universe)
        assert lists.words.tobytes() == f.words.tobytes()
        assert f.full_value() == lists.full_value() == 1.0
    with pytest.raises(ValueError, match="must be \\(n, 65\\)"):
        CoverageFunction(np.ones((2, 64), dtype=bool), 65)


def test_coverage_rejects_items_outside_the_universe():
    for universe in (1, 63, 64, 65, 4000):
        for item in (universe, -1):
            with pytest.raises(ValueError, match="outside the universe"):
                CoverageFunction([[0], [item]], universe)
    with pytest.raises(ValueError):
        CoverageFunction([[0]], 0)


def test_distance_sup_modular_closed_form():
    f = ModularFunction(np.array([1.0, 2.0]))
    assert distance_sup(f, np.array([2.0, 1.0])) == 1.0
    assert distance_sup(f, f.w) == 0.0
    # a list of coefficients is a vector too
    assert distance_sup(f, [2.0, 1.0]) == 1.0


@pytest.mark.parametrize("f", [ModularFunction(np.array([1.0, 2.0, 0.5])),
                               ModularFunction(np.ones((2, 3))),
                               CoverageFunction([[0, 1], [1, 2], [2]], 3)])
def test_distance_sup_names_hints_that_are_no_finite_rows(f):
    # hints are one vector of n coefficients or (b, n) rows of them, all finite
    for bad in (np.zeros(2), np.zeros((2, 4)), np.zeros((1, 2, 3)), np.zeros(())):
        with pytest.raises(ValueError, match=r"the hints must be one vector or \(b, n\) "
                                             r"rows of n = 3 coefficients, got shape"):
            distance_sup(f, bad)
    for value in (np.nan, np.inf, -np.inf):
        for bad in (np.array([0.0, value, 1.0]), np.array([[0.0, 1.0, 2.0], [1.0, 1.0, value]])):
            with pytest.raises(ValueError, match="the hints contain non-finite entries"):
                distance_sup(f, bad)


def test_distance_sup_closed_form_matches_enumeration():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 11))
        f = ModularFunction(rng.standard_normal(n))
        h = ModularFunction(rng.standard_normal(n))
        assert abs(distance_sup(f, h.w) - brute_distance(f, h)) < 1e-12


def test_distance_sup_enumerated_for_coverage():
    f = CoverageFunction([[0, 1], [1, 2], [2]], 3)
    # singleton-additive modular approximation
    h = ModularFunction(np.array([2.0, 2.0, 1.0]))
    assert distance_sup(f, h.w) == brute_distance(f, h)


@pytest.mark.parametrize("cells", [1, 40, 100, 16384])
def test_distance_sup_takes_a_block_of_hints_for_a_tabulated_reward(cells, monkeypatch):
    # a block of (b, n) hints gives b gaps, each with the bits of its hint
    # alone, from tables of the hints over all 2^n subsets that hold at most
    # PLAN_CELLS entries each (one hint's 2^n where that is more)
    rng = np.random.default_rng(cells)
    real, tables = setfn.subset_table, []

    def subset_table(rows, op):
        if op is np.add:
            tables.append(rows.shape[0])
        return real(rows, op)

    monkeypatch.setattr(setfn, "PLAN_CELLS", cells)
    monkeypatch.setattr(setfn, "subset_table", subset_table)
    for f in (random_coverage(6, 18, rng), TableFunction(rng.random(1 << 5)),
              MatchingRewardFunction(rng.random((2, 2)))):
        F, H = f.values_all(), rng.normal(size=(13, f.n))
        H[0] = 0.0
        want = [float(np.abs(F - real(h, np.add)).max()) for h in H]
        tables.clear()
        got = distance_sup(f, H)
        assert got.tolist() == want
        assert sum(tables) == len(H)
        assert all(rows << f.n <= max(cells, 1 << f.n) for rows in tables)
        one = distance_sup(f, H[1])
        assert type(one) is float and one == want[1]


def test_distance_sup_size_guard():
    class Big(SetFunction):
        def __init__(self):
            super().__init__(25)

        def value_mask(self, mask):
            return 0.0

    with pytest.raises(EnumerationTooLargeError):
        distance_sup(Big(), np.zeros(25))


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


def test_table_length_must_be_a_power_of_two():
    # a fifth entry would be dropped silently, as a table of n = 2
    for vals in ([], [0.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0, 4.0], np.zeros(24)):
        with pytest.raises(ValueError, match=f"length {len(vals)} is not a power of two"):
            TableFunction(vals)
    assert TableFunction([0.0, 1.0, 2.0, 3.0]).n == 2


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


def matching_value_reference(w, indices):
    """The matching value of one set on the matrix w, written out: split
    into its U and V entries, each in the set's order, and the assignment
    of the submatrix they pick (0 for an empty or unbalanced set)."""
    m = len(w)
    rows = [i for i in indices if i < m]
    cols = [i - m for i in indices if i >= m]
    if len(rows) != len(cols) or not rows:
        return 0.0
    sub = w[np.array(rows)[:, None], cols]
    r, c = linear_sum_assignment(sub)
    return float(sub[r, c].sum())


def matching_values_reference(f, sets):
    """The values of a matching block written out: each set on its round's
    matrix, one set at a time."""
    stack = f.w if f.phase is not None else f.w[None]
    phase = f.phase if f.phase is not None else np.zeros(len(sets), dtype=int)
    return np.array([matching_value_reference(stack[p], row)
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
    assert one.full_value() == matching_value_reference(w[0], range(2 * m))


def test_matching_block_has_no_value_on_one_set():
    block = MatchingRewardFunction(np.ones((2, 3, 3)), np.array([0, 0, 1]))
    assert block.n == 6
    for single in (lambda: block.value([0, 3]), lambda: block.value_mask(9),
                   block.values_all, lambda: block.prefix_values(np.arange(6))):
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
