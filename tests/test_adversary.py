"""Generator determinism and declared-bound compliance."""

import tracemalloc

import numpy as np
import pytest

from coreselect.adversary import (
    HintSpec,
    _rescaled_rows,
    adversary_from_config,
    generate_hints,
    make_coverage_drift_adversary,
    make_matching_random_adversary,
    make_modular_drift_adversary,
    make_modular_random_adversary,
    make_onehot_adversary,
)
from coreselect.blocks import PLAN_CELLS, block_rounds
from coreselect.setfn import MatchingRewardFunction, ModularFunction, distance_sup


def one_per_round(runs):
    """The rewards one per round: each row of a modular run's reward as a
    function of its own, each round of a matching block as its phase's
    matrix, and a run of any other reward b times."""
    out = []
    for f, b in runs:
        if isinstance(f, ModularFunction):
            out += [ModularFunction(row) for row in f.w]
        elif isinstance(f, MatchingRewardFunction):
            assert len(f.phase) == b
            out += [MatchingRewardFunction(f.w[p]) for p in f.phase]
        else:
            out += [f] * b
    return out


def onehot_rounds(n, T, rng):
    """The one-hot rewards one per round, after checking that each run the
    adversary yields is a block of at most ``block_rounds(n)`` indicator
    rows."""
    runs = list(make_onehot_adversary(n).rounds(T, rng))
    for f, b in runs:
        assert isinstance(f, ModularFunction) and f.w.shape == (b, n)
        assert 1 <= b <= block_rounds(n)
        assert np.isin(f.w, (0.0, 1.0)).all() and (f.w.sum(axis=1) == 1.0).all()
    return one_per_round(runs)


def test_onehot_rounds_are_indicators():
    fs = onehot_rounds(5, 50, np.random.default_rng(0))
    assert len(fs) == 50
    for f in fs:
        assert np.sum(f.w == 1.0) == 1
        assert np.sum(f.w == 0.0) == 4
        assert f.full_value() == 1.0


def test_onehot_single_element_universe():
    fs = onehot_rounds(1, 10, np.random.default_rng(1))
    assert all(f.w[0] == 1.0 for f in fs)


@pytest.mark.parametrize("n, T", [(1, 5), (2, 1), (2, 409), (7, 1001), (20, 450), (1000, 41)])
def test_onehot_blocks_draw_the_hot_elements_of_one_draw(n, T):
    # one integers draw per block: the hot elements and the generator state
    # after them are those of one draw of all T at once
    rng, whole = np.random.default_rng(n + T), np.random.default_rng(n + T)
    rows = np.concatenate([f.w for f, _ in make_onehot_adversary(n).rounds(T, rng)])
    hot = whole.integers(0, n, size=T)
    assert rows.shape == (T, n) and (rows.sum(axis=1) == 1.0).all()
    assert rows.argmax(axis=1).tolist() == hot.tolist()
    assert rng.bit_generator.state == whole.bit_generator.state


def test_onehot_rounds_hold_one_block_at_a_time():
    # a million rounds at n = 20 are 4902 blocks of at most 204 x 20
    # coefficients (32 KiB); all their hot elements at once would be 8 MB
    tracemalloc.start()
    try:
        for _ in make_onehot_adversary(20).rounds(10**6, np.random.default_rng(0)):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_onehot_frequencies_uniform():
    n, T = 5, 40_000
    fs = onehot_rounds(n, T, np.random.default_rng(2))
    counts = np.sum([f.w for f in fs], axis=0)
    freq = counts / T
    sd = np.sqrt((1 / n) * (1 - 1 / n) / T)
    assert np.all(np.abs(freq - 1 / n) <= 4 * sd)


@pytest.mark.parametrize("factory", [
    lambda: make_onehot_adversary(6),
    lambda: make_modular_random_adversary(6, G=1.3),
    lambda: make_modular_drift_adversary(6, G=0.7),
    lambda: make_coverage_drift_adversary(6),
    lambda: make_matching_random_adversary(3),
])
def test_seed_determinism_all_kinds(factory):
    adv = factory()
    a = [f.values_all() for f in one_per_round(adv.rounds(30, np.random.default_rng(5)))]
    b = [f.values_all() for f in one_per_round(adv.rounds(30, np.random.default_rng(5)))]
    assert len(a) == len(b) == 30
    for fa, fb in zip(a, b):
        np.testing.assert_array_equal(fa, fb)


@pytest.mark.parametrize("factory", [
    lambda: make_modular_random_adversary(6, G=1.3),
    lambda: make_modular_drift_adversary(6, G=0.7),
])
def test_modular_kinds_respect_declared_bounds(factory):
    adv = factory()
    rng = np.random.default_rng(6)
    for f in one_per_round(adv.rounds(200, rng)):
        assert np.linalg.norm(f.w) <= adv.G + 1e-9
        assert f.full_value() <= adv.M + 1e-9
        assert np.all(f.w >= 0)
        assert f.value([]) == 0.0


def test_coverage_kind_respects_declared_bounds():
    adv = make_coverage_drift_adversary(6)
    rng = np.random.default_rng(7)
    check = np.random.default_rng(8)
    for f, _ in adv.rounds(100, rng):
        assert f.full_value() == pytest.approx(1.0)
        s = [int(i) for i in check.integers(0, 6, size=3)]
        assert 0.0 <= f.value(set(s)) <= adv.M + 1e-12
        assert f.value([]) == 0.0


def test_drift_actually_changes_phases():
    adv = make_modular_drift_adversary(6, G=1.0, phases=5)
    fs = one_per_round(adv.rounds(100, np.random.default_rng(9)))
    # compare phase medians: drift means some phases differ materially
    phase_means = [np.mean([f.w for f in fs[i * 20:(i + 1) * 20]], axis=0)
                   for i in range(5)]
    gaps = [np.linalg.norm(phase_means[i] - phase_means[i + 1]) for i in range(4)]
    assert max(gaps) > 0.05


@pytest.mark.parametrize("kind, n, T, phases", [
    ("onehot-ensemble", 20, 450, None),  # blocks of 204 rounds
    ("modular-random", 1000, 40, None),  # blocks of 16 rounds
    ("modular-drift", 20, 450, 7),  # phases of 65 rounds
    ("modular-drift", 20, 450, 1),  # one phase, longer than a block
    ("coverage-drift", 20, 450, 7),
    ("coverage-drift", 20, 450, 1),
    ("coverage-drift", 12, 10, 10),  # phases of one round
    ("coverage-drift", 1000, 40, 3),  # phases of 14, blocks of 16
    ("matching-random", 20, 450, 7),
    ("matching-random", 20, 450, 1),
    ("matching-random", 1000, 40, 3),
])
def test_runs_tile_the_rounds_within_blocks_and_phases(kind, n, T, phases):
    cfg = {"kind": kind} if phases is None else {"kind": kind, "phases": phases}
    adv = adversary_from_config(cfg, n)
    plen = max(1, -(-T // phases)) if phases is not None else T
    start, phase_rewards = 0, {}
    for f, b in adv.rounds(T, np.random.default_rng(n + T)):
        # rounds start+1..start+b, in order, inside one block
        assert isinstance(b, int) and 1 <= b <= block_rounds(n)
        assert f.n == n
        phase = np.arange(start, start + b) // plen
        if isinstance(f, ModularFunction):
            assert f.w.shape == (b, n)
        if isinstance(f, MatchingRewardFunction):
            # a block may span phases: each row names its phase's matrix,
            # the same matrix in every block the phase reaches
            assert f.phase.tolist() == (phase - phase[0]).tolist()
            assert len(f.w) == phase[-1] - phase[0] + 1
            for p, w in zip(range(phase[0], phase[-1] + 1), f.w):
                assert phase_rewards.setdefault(p, w).tobytes() == w.tobytes()
        else:  # no other run crosses a phase
            assert phase[0] == phase[-1]
            if not isinstance(f, ModularFunction):  # one reward object per phase
                assert phase_rewards.setdefault(phase[0], f) is f
        start += b
    assert start == T
    if phases is not None and kind != "modular-drift":
        assert len(phase_rewards) == -(-T // plen)
        if kind == "coverage-drift":
            assert len({id(f) for f in phase_rewards.values()}) == -(-T // plen)


def test_matching_blocks_draw_the_phase_matrices_in_round_order():
    # each phase's matrix is rng.random((m, m)) drawn at its first round
    m, T, phases = 10, 450, 7
    plen = -(-T // phases)
    runs = list(make_matching_random_adversary(m, w_max=2.0, phases=phases).rounds(
        T, np.random.default_rng(3)))
    assert [b for _, b in runs] == [204, 204, 42]
    rng = np.random.default_rng(3)
    want = [2.0 * rng.random((m, m)) for _ in range(-(-T // plen))]
    got = one_per_round(runs)
    for t, f in enumerate(got):
        assert f.w.tobytes() == want[t // plen].tobytes()


def _rescaled_reference(w, G, fallback):
    norm = float(np.linalg.norm(w))
    return (G / norm) * w if norm > 0 else fallback


def modular_random_reference(n, G, T, rng):
    """The modular-random stream written out, one round at a time."""
    for _ in range(T):
        w = rng.random(n)
        yield ModularFunction(_rescaled_reference(w, G, w))


def modular_drift_reference(n, G, phases, jitter, T, rng, fallbacks):
    """The modular-drift stream written out, one round at a time; appends
    each round that plays its base to ``fallbacks``."""
    plen = max(1, int(np.ceil(T / phases)))
    for t in range(T):
        if t % plen == 0:
            w = rng.random(n)
            base = _rescaled_reference(w, G, w)
        w = np.maximum(base + jitter * G * rng.standard_normal(n) / np.sqrt(n), 0.0)
        if not np.linalg.norm(w) > 0:
            fallbacks.append(t)
        yield ModularFunction(_rescaled_reference(w, G, base))


def assert_rows_are_rewards(runs, want):
    """Each run's reward holds, as its b rows, the rewards ``want`` of one
    round each, in order, with their bits and totals."""
    assert sum(b for _, b in runs) == len(want)
    start = 0
    for f, b in runs:
        assert len(f.w) == b
        # a block of rewards holds at most PLAN_CELLS coefficients
        assert f.w.ndim == 2 and 0 < f.w.size <= PLAN_CELLS
        rows = want[start:start + len(f.w)]
        start += len(f.w)
        assert f.w.tobytes() == np.array([g.w for g in rows]).tobytes()
        assert f.total.tobytes() == np.array([g.total for g in rows]).tobytes()
        assert f.full_value() is f.total
        assert f.n == rows[0].n
        assert f.monotone == all(g.monotone for g in rows)


@pytest.mark.parametrize("n, T, phases, jitter", [
    (1, 4100, 3, 0.25),  # blocks of 204 rounds; phases of 1367
    (1, 300, 7, 1e6),  # about half the rounds clamp to norm 0 and play the base
    (20, 450, 7, 0.25),  # blocks of 204 rounds; phases of 65
    (20, 450, 1, 0.25),
    (1000, 11, 4, 0.25),  # one block of 11 rounds; phases of 3
    (1000, 40, 3, 0.25),  # blocks of 16, 16 and 8 rounds; phases of 14
])
def test_modular_blocks_match_the_rounds_written_out(n, T, phases, jitter):
    got = list(make_modular_random_adversary(n, G=1.3).rounds(
        T, np.random.default_rng(n + T)))
    assert_rows_are_rewards(got, list(modular_random_reference(
        n, 1.3, T, np.random.default_rng(n + T))))
    fallbacks = []
    got = list(make_modular_drift_adversary(n, G=0.7, phases=phases, jitter=jitter).rounds(
        T, np.random.default_rng(n + T)))
    want = list(modular_drift_reference(n, 0.7, phases, jitter, T,
                                        np.random.default_rng(n + T), fallbacks))
    assert_rows_are_rewards(got, want)
    assert bool(fallbacks) == (jitter > 1.0)


def test_rescaled_rows_keep_a_row_of_norm_zero():
    # the last row's squares underflow, so its norm is 0 although it is not
    w = np.array([[0.3, 0.4, 0.0], [0.0, 0.0, 0.0], [1e-170, 0.0, 1e-200]])
    base = np.array([0.6, 0.0, 0.8])
    for fallback, rows in ((w, w), (base, [base] * 3)):
        want = np.array([_rescaled_reference(row, 1.3, b) for row, b in zip(w, rows)])
        assert _rescaled_rows(w, 1.3, fallback).tobytes() == want.tobytes()
    # a row whose squares overflow would be rescaled to 0
    with pytest.raises(ValueError, match="jitter \\* G too large"), np.errstate(over="ignore"):
        _rescaled_rows(np.array([[1e200, 0.0, 0.0]]), 1.0, base)


def test_modular_block_reward_is_its_rows_one_at_a_time():
    rng = np.random.default_rng(12)
    w = rng.standard_normal((9, 7))
    w[::2] = np.abs(w[::2])
    w[1, 3] = -0.0
    rows = [ModularFunction(row) for row in w]
    assert_rows_are_rewards([(ModularFunction(w), 9)], rows)
    assert ModularFunction(w).monotone is False
    assert_rows_are_rewards([(ModularFunction(w[::2]), 5)], rows[::2])
    assert ModularFunction(w[::2]).monotone is True
    sets = np.sort(rng.permuted(np.tile(np.arange(7), (9, 1)), axis=1)[:, :3], axis=1)
    want = [g.value(s) for g, s in zip(rows, sets.tolist())]
    assert ModularFunction(w).value(sets).tobytes() == np.array(want).tobytes()
    # a block has no value on one set
    for single in (lambda f: f.value_mask(3), lambda f: f.values_all(),
                   lambda f: f.prefix_values(np.arange(7)),
                   lambda f: distance_sup(f, np.zeros(7))):
        with pytest.raises(ValueError, match="a block of rewards takes one set per row"):
            single(ModularFunction(w))
    w[4, 2] = np.nan
    with pytest.raises(ValueError, match="coefficients must be a finite 1-d vector or rows"):
        ModularFunction(w)
    with pytest.raises(ValueError, match="coefficients must be a finite 1-d vector or rows"):
        ModularFunction(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError, match="ground set must be nonempty"):
        ModularFunction(np.zeros((2, 0)))


def test_adversary_from_config_round_trip_and_strictness():
    adv = adversary_from_config({"kind": "modular-random", "G": 2.0}, 5)
    assert adv.kind == "modular-random" and adv.G == 2.0
    adv2 = adversary_from_config({"kind": "matching-random"}, 6)
    f, _ = next(adv2.rounds(4, np.random.default_rng(0)))
    assert f.n == 6 and f.w.shape[1:] == (3, 3)
    with pytest.raises(ValueError, match="even ground set"):
        adversary_from_config({"kind": "matching-random", "bogus": 1}, 5)
    with pytest.raises(ValueError, match=r"unknown adversary keys: \['bogus'\]"):
        adversary_from_config({"kind": "modular-random", "bogus": 1}, 5)
    # the ground-set size comes from the config's n, never from the block
    for kind, size in (("onehot-ensemble", "n"), ("matching-random", "m")):
        with pytest.raises(ValueError, match="unknown adversary keys"):
            adversary_from_config({"kind": kind, size: 3}, 6)
    with pytest.raises(ValueError, match="unknown adversary kind: 'unknown'"):
        adversary_from_config({"kind": "unknown"}, 5)


def test_hints_perfect_and_noise_and_flip():
    rng = np.random.default_rng(10)
    fvecs = [rng.random(6) for _ in range(20)]
    perfect = generate_hints(fvecs, HintSpec("perfect"), np.random.default_rng(0))
    assert perfect.shape == (20, 6)
    for fv, h in zip(fvecs, perfect):
        np.testing.assert_array_equal(h, fv)
    noisy = generate_hints(fvecs, HintSpec("additive-noise", 0.37),
                           np.random.default_rng(1))
    for fv, h in zip(fvecs, noisy):
        assert np.linalg.norm(fv - h) == pytest.approx(0.37, abs=1e-12)
    flipped = generate_hints(fvecs, HintSpec("adversarial-flip"), np.random.default_rng(2))
    for fv, h in zip(fvecs, flipped):
        np.testing.assert_array_equal(h, -fv)


def hints_reference(fvecs, spec, rng):
    """The hint stream written out, one vector at a time."""
    out = []
    for fv in fvecs:
        if spec.mode == "perfect" or spec.noise_l2 == 0.0 and spec.mode == "additive-noise":
            h = fv.copy()
        elif spec.mode == "additive-noise":
            z = rng.standard_normal(fv.size)
            while not np.linalg.norm(z) > 0:
                z = rng.standard_normal(fv.size)
            h = fv + (spec.noise_l2 / float(np.linalg.norm(z))) * z
        else:
            h = -fv
        out.append(h)
    return np.array(out)


class ZeroedNormals:
    """Standard normals in chunks of n, with the chunks numbered in ``zero``
    set to 0, whether they are drawn one chunk or many per call."""

    def __init__(self, seed, n, zero):
        self.rng, self.n, self.zero, self.drawn = np.random.default_rng(seed), n, zero, 0

    def standard_normal(self, shape):
        z = self.rng.standard_normal(shape).reshape(-1, self.n)
        for i in range(len(z)):
            if self.drawn + i in self.zero:
                z[i] = 0.0
        self.drawn += len(z)
        return z.reshape(shape)


@pytest.mark.parametrize("n, B, zero", [
    (1, 40, ()),
    (6, 20, (0,)),
    (6, 20, (2, 3)),  # two directions of norm 0 in a row
    (6, 20, (19, 20)),  # the last direction and the one drawn for it
    (6, 20, (4, 20)),  # the direction drawn for the 5th hint is dropped as well
    (1000, 4, (1,)),
])
def test_hints_match_the_vectors_worked_out_one_at_a_time(n, B, zero):
    fvecs = [row for row in np.random.default_rng(n + B).standard_normal((B, n))]
    for spec in (HintSpec("perfect"), HintSpec("additive-noise", 0.37),
                 HintSpec("additive-noise", 0.0), HintSpec("adversarial-flip")):
        G = np.array(fvecs)
        got = generate_hints(G, spec, ZeroedNormals(B, n, zero))
        want_rng = ZeroedNormals(B, n, zero)
        assert got.tobytes() == hints_reference(fvecs, spec, want_rng).tobytes()
        # the block is read, never written, and no hint aliases it
        assert G.tobytes() == np.array(fvecs).tobytes() and not np.shares_memory(got, G)
        if spec.noise_l2 > 0.0:
            assert want_rng.drawn == B + len(zero)
    assert generate_hints([], HintSpec("additive-noise", 0.37), None).size == 0


def test_hint_spec_validation():
    with pytest.raises(ValueError):
        HintSpec("bogus")
    with pytest.raises(ValueError):
        HintSpec("additive-noise", -0.1)
