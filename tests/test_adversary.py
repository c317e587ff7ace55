"""Generator determinism and declared-bound compliance."""

import numpy as np
import pytest

from coreselect.adversary import (
    HintSpec,
    adversary_from_config,
    generate_hints,
    make_coverage_drift_adversary,
    make_matching_random_adversary,
    make_modular_drift_adversary,
    make_modular_random_adversary,
    make_onehot_adversary,
    onehot_ensemble,
)


def test_onehot_rounds_are_indicators():
    fs = onehot_ensemble(5, 50, np.random.default_rng(0))
    for f in fs:
        assert np.sum(f.w == 1.0) == 1
        assert np.sum(f.w == 0.0) == 4
        assert f.full_value() == 1.0


def test_onehot_single_element_universe():
    fs = onehot_ensemble(1, 10, np.random.default_rng(1))
    assert all(f.w[0] == 1.0 for f in fs)


def test_onehot_frequencies_uniform():
    n, T = 5, 40_000
    fs = onehot_ensemble(n, T, np.random.default_rng(2))
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
    a = [f.values_all() for f in adv.rounds(30, np.random.default_rng(5))]
    b = [f.values_all() for f in adv.rounds(30, np.random.default_rng(5))]
    for fa, fb in zip(a, b):
        np.testing.assert_array_equal(fa, fb)


@pytest.mark.parametrize("factory", [
    lambda: make_modular_random_adversary(6, G=1.3),
    lambda: make_modular_drift_adversary(6, G=0.7),
])
def test_modular_kinds_respect_declared_bounds(factory):
    adv = factory()
    rng = np.random.default_rng(6)
    for f in adv.rounds(200, rng):
        assert np.linalg.norm(f.w) <= adv.G + 1e-9
        assert f.full_value() <= adv.M + 1e-9
        assert np.all(f.w >= 0)
        assert f.value([]) == 0.0


def test_coverage_kind_respects_declared_bounds():
    adv = make_coverage_drift_adversary(6)
    rng = np.random.default_rng(7)
    check = np.random.default_rng(8)
    for f in adv.rounds(100, rng):
        assert f.full_value() == pytest.approx(1.0)
        s = [int(i) for i in check.integers(0, 6, size=3)]
        assert 0.0 <= f.value(set(s)) <= adv.M + 1e-12
        assert f.value([]) == 0.0


def test_drift_actually_changes_phases():
    adv = make_modular_drift_adversary(6, G=1.0, phases=5)
    fs = list(adv.rounds(100, np.random.default_rng(9)))
    # compare phase medians: drift means some phases differ materially
    phase_means = [np.mean([f.w for f in fs[i * 20:(i + 1) * 20]], axis=0)
                   for i in range(5)]
    gaps = [np.linalg.norm(phase_means[i] - phase_means[i + 1]) for i in range(4)]
    assert max(gaps) > 0.05


def test_adversary_from_config_round_trip_and_strictness():
    adv = adversary_from_config({"kind": "modular-random", "G": 2.0}, 5)
    assert adv.kind == "modular-random" and adv.G == 2.0
    adv2 = adversary_from_config({"kind": "matching-random"}, 6)
    assert adv2.n == 6
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
    for fv, h in zip(fvecs, perfect):
        np.testing.assert_array_equal(h.w, fv)
    noisy = generate_hints(fvecs, HintSpec("additive-noise", 0.37),
                           np.random.default_rng(1))
    for fv, h in zip(fvecs, noisy):
        assert np.linalg.norm(fv - h.w) == pytest.approx(0.37, abs=1e-12)
    flipped = generate_hints(fvecs, HintSpec("adversarial-flip"), np.random.default_rng(2))
    for fv, h in zip(fvecs, flipped):
        np.testing.assert_array_equal(h.w, -fv)


def test_hint_spec_validation():
    with pytest.raises(ValueError):
        HintSpec("bogus")
    with pytest.raises(ValueError):
        HintSpec("additive-noise", -0.1)
