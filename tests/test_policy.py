"""Policy round mechanics, estimator properties, and regret accounting."""

import math
import warnings

import numpy as np
import pytest

from coreselect.adversary import (
    HintSpec,
    generate_hints,
    make_coverage_drift_adversary,
    make_modular_drift_adversary,
)
from coreselect.corevec import marginal_strategy, modular_strategy
from coreselect.hypersimplex import lmo
from coreselect.policy import (
    OftrlPolicy,
    PricedPolicy,
    ScoreConfig,
    ScorePolicy,
    SemiBanditPolicy,
    augmented_regret,
    augmented_regret_bound,
    norm_bound,
    priced_epsilon,
    static_linear_regret,
    static_regret_bound,
)
from coreselect.sampling import madow_marginal_measure, madow_support
from coreselect.setfn import ModularFunction


def run_score(n, k, T, seed, adversary, G=None, policy_cls=ScorePolicy):
    cfg = ScoreConfig(n=n, k=k, T=T, M=adversary.M, G=G if G is not None else adversary.G)
    policy = policy_cls(cfg, np.random.default_rng(seed))
    strategy = adversary.core_strategy(np.random.default_rng(seed + 1))
    rng = np.random.default_rng(seed + 2)
    return [policy.step(f, strategy) for f in adversary.rounds(T, rng)]


# ---------------------------------------------------------------------------
# ScoreConfig defaults.

def test_config_defaults():
    cfg = ScoreConfig(n=20, k=5, T=1000, alpha=2.0, M=1.5)
    assert cfg.G == pytest.approx(2.0 * 1.5 * math.sqrt(2))
    assert cfg.eta == pytest.approx(
        math.sqrt(5 * math.log(4.0) / (2 * cfg.G**2 * 1000))
    )


def test_config_degenerate_full_selection():
    cfg = ScoreConfig(n=4, k=4, T=10)
    assert cfg.eta == 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        ScoreConfig(n=3, k=4, T=10)
    with pytest.raises(ValueError):
        ScoreConfig(n=3, k=2, T=10, alpha=0.5)
    for eta in (math.nan, math.inf):
        with pytest.raises(ValueError, match="eta must be finite"):
            ScoreConfig(n=3, k=2, T=10, eta=eta)
    with pytest.raises(ValueError, match="eta must be finite"):
        ScoreConfig(n=3, k=2, T=10, G=math.nan)
    with pytest.raises(ValueError, match="M must be nonnegative"):
        ScoreConfig(n=3, k=2, T=10, M=math.nan)


# ---------------------------------------------------------------------------
# Score policy rounds.

def test_first_round_is_uniform():
    adv = make_modular_drift_adversary(6, G=1.0)
    recs = run_score(6, 2, 3, 0, adv)
    np.testing.assert_allclose(recs[0].p, 2 / 6, atol=1e-12)


def test_traces_are_deterministic():
    adv = make_modular_drift_adversary(6, G=1.0)
    a = run_score(6, 2, 50, 7, adv)
    b = run_score(6, 2, 50, 7, adv)
    for ra, rb in zip(a, b):
        assert ra.selected == rb.selected
        assert ra.u == rb.u
        np.testing.assert_array_equal(ra.p, rb.p)
        np.testing.assert_array_equal(ra.gvec, rb.gvec)


def test_full_selection_when_k_equals_n():
    adv = make_modular_drift_adversary(5, G=1.0)
    recs = run_score(5, 5, 20, 3, adv)
    for r in recs:
        assert r.selected == (0, 1, 2, 3, 4)
        assert r.reward == pytest.approx(r.full_reward)
    assert augmented_regret(recs, 1.0, 5, 5) == pytest.approx(0.0, abs=1e-9)


def test_static_regret_under_published_bound_on_drift():
    adv = make_modular_drift_adversary(10, G=1.0)
    recs = run_score(10, 3, 2000, 11, adv, G=1.0)
    assert static_linear_regret(recs) <= static_regret_bound(10, 3, 2000, 1.0)


def test_constant_adversary_converges_to_top_k():
    w = np.array([1.0, 0.8, 0.6, 0.1, 0.05])
    f = ModularFunction(w)
    cfg = ScoreConfig(n=5, k=2, T=3000, M=float(w.sum()), G=float(np.linalg.norm(w)))
    pol = ScorePolicy(cfg, np.random.default_rng(0))
    strategy = modular_strategy()
    recs = [pol.step(f, strategy) for _ in range(3000)]
    # late-round selection probability concentrates on the two best elements
    late = np.mean([r.p[:2].sum() for r in recs[-100:]])
    assert late > 1.8
    assert static_linear_regret(recs) <= static_regret_bound(5, 2, 3000, cfg.G)


def test_expected_reward_identity_for_modular():
    adv = make_modular_drift_adversary(8, G=1.0)
    recs = run_score(8, 3, 60, 5, adv)
    for r in recs:
        assert r.expected_reward == pytest.approx(float(r.gvec @ r.p), abs=1e-12)
        # agreement with the support-enumeration oracle
        from coreselect.hypersimplex import HypersimplexPoint

        pt = HypersimplexPoint(8, 3, r.p)
        direct = sum(
            weight * float(r.gvec[list(s)].sum()) for weight, s in madow_support(pt)
        )
        assert r.expected_reward == pytest.approx(direct, abs=1e-9)


def test_reward_never_exceeds_full_reward_for_monotone():
    adv = make_coverage_drift_adversary(8)
    recs = run_score(8, 3, 200, 1, adv)
    for r in recs:
        assert r.reward <= r.full_reward + 1e-12


def test_benchmark_inequality_on_traces():
    # sum of full rewards is at most (n/k) * best fixed linear benchmark
    adv = make_coverage_drift_adversary(8)
    recs = run_score(8, 3, 300, 2, adv)
    total = np.sum([r.gvec for r in recs], axis=0)
    bench = float(total @ lmo(-total, 3))
    assert sum(r.full_reward for r in recs) <= (8 / 3) * bench + 1e-6


def test_core_strategy_failure_is_reported():
    adv = make_modular_drift_adversary(4, G=1.0)
    cfg = ScoreConfig(n=4, k=2, T=5, M=adv.M, G=1.0)
    pol = ScorePolicy(cfg, np.random.default_rng(0))
    f = ModularFunction(np.ones(4))

    def broken(_f):
        raise KeyError("nope")

    with pytest.raises(RuntimeError, match="core strategy failed"):
        pol.step(f, broken)


# ---------------------------------------------------------------------------
# Semi-bandit estimates.

def test_semibandit_feeds_ips_on_selected_only():
    adv = make_modular_drift_adversary(6, G=1.0)
    recs = run_score(6, 2, 40, 9, adv, policy_cls=SemiBanditPolicy)
    for r in recs:
        sel = set(r.selected)
        for i in range(6):
            if i in sel:
                assert r.fed[i] == pytest.approx(r.gvec[i] / r.p[i])
            else:
                assert r.fed[i] == 0.0


def test_semibandit_k_equals_n_is_exact():
    adv = make_modular_drift_adversary(4, G=1.0)
    recs = run_score(4, 4, 10, 9, adv, policy_cls=SemiBanditPolicy)
    for r in recs:
        np.testing.assert_allclose(r.fed, r.gvec, atol=1e-12)


def test_ips_estimate_is_exactly_unbiased_by_marginal_law():
    # E[g_i 1(i in S) / p_i] = g_i * measure{i selected} / p_i = g_i exactly
    from coreselect.hypersimplex import euclidean_project

    rng = np.random.default_rng(3)
    g = rng.random(7)
    pt = euclidean_project(rng.random(7), 3)
    measure = madow_marginal_measure(pt)
    est = g * measure / pt.p
    np.testing.assert_allclose(est, g, atol=1e-10)


def test_ips_monte_carlo_mean_within_ci():
    from coreselect.hypersimplex import euclidean_project
    from coreselect.sampling import madow_sample

    rng = np.random.default_rng(4)
    g = rng.random(6)
    pt = euclidean_project(rng.random(6) + 0.3, 3)
    m = 20000
    acc = np.zeros(6)
    for _ in range(m):
        sel = madow_sample(pt, float(rng.random()))
        for i in sel:
            acc[i] += g[i] / pt.p[i]
    mean = acc / m
    # per-coordinate variance of the indicator estimate
    sd = np.abs(g) * np.sqrt((1 - pt.p) / (pt.p * m))
    assert np.all(np.abs(mean - g) <= 4 * sd + 1e-12)


# ---------------------------------------------------------------------------
# Priced feedback.

def test_priced_epsilon_formula_value():
    assert priced_epsilon(20, 5, 10**5, 1.0, 1.0) == pytest.approx(0.0517549, abs=1e-6)


def test_priced_epsilon_clamps_with_warning():
    with pytest.warns(UserWarning):
        eps = priced_epsilon(20, 5, 2, 1.0, 0.01)
    assert eps == 1.0


def test_priced_always_observing_costs_every_round():
    adv = make_modular_drift_adversary(6, G=1.0)
    cfg = PricedPolicy.tuned_config(6, 2, 30, 1.0, cost=2.0)
    pol = PricedPolicy(cfg, np.random.default_rng(0), cost=2.0, epsilon=1.0)
    strategy = adv.core_strategy(np.random.default_rng(1))
    recs = [pol.step(f, strategy) for f in adv.rounds(30, np.random.default_rng(2))]
    assert all(r.observed for r in recs)
    assert sum(r.cost for r in recs) == pytest.approx(60.0)
    for r in recs:
        np.testing.assert_allclose(r.fed, r.gvec, atol=1e-12)


def test_priced_unobserved_round_feeds_zero():
    adv = make_modular_drift_adversary(6, G=1.0)
    cfg = PricedPolicy.tuned_config(6, 2, 400, 1.0, cost=1.0)
    pol = PricedPolicy(cfg, np.random.default_rng(5), cost=1.0, epsilon=0.2)
    strategy = adv.core_strategy(np.random.default_rng(6))
    recs = [pol.step(f, strategy) for f in adv.rounds(400, np.random.default_rng(7))]
    unobserved = [r for r in recs if not r.observed]
    observed = [r for r in recs if r.observed]
    assert unobserved and observed
    for r in unobserved:
        assert r.cost == 0.0
        np.testing.assert_array_equal(r.fed, np.zeros(6))
    for r in observed:
        assert r.cost == 1.0
        np.testing.assert_allclose(r.fed, r.gvec / 0.2, atol=1e-12)
    # observation frequency near epsilon
    assert abs(len(observed) / 400 - 0.2) < 4 * math.sqrt(0.2 * 0.8 / 400)


# ---------------------------------------------------------------------------
# Optimistic policy.

def make_oftrl_inputs(n, T, spec, seed, adversary=None):
    adv = adversary if adversary is not None else make_coverage_drift_adversary(n)
    fs = list(adv.rounds(T, np.random.default_rng(seed)))
    strategy = adv.core_strategy(np.random.default_rng(seed + 1))
    fvecs = [strategy(f).g for f in fs]
    hints = generate_hints(fvecs, spec, np.random.default_rng(seed + 2))
    return adv, fs, fvecs, hints


def run_oftrl(n, k, T, spec, seed, mode="exact", **kwargs):
    adv, fs, fvecs, hints = make_oftrl_inputs(n, T, spec, seed)
    cfg = ScoreConfig(n=n, k=k, T=T, M=adv.M, G=adv.G)
    pol = OftrlPolicy(cfg, np.random.default_rng(seed + 3), mode=mode, **kwargs)
    recs = [pol.step(f, h.w, lambda _f, fv=fv: fv)
            for f, h, fv in zip(fs, hints, fvecs)]
    return pol, recs, (fs, hints)


def test_perfect_hints_route_through_vertices_with_no_regret():
    pol, recs, _ = run_oftrl(8, 3, 400, HintSpec("perfect"), 0)
    assert pol.state.sigma_sum == 0.0  # no hint error ever observed
    for r in recs:
        assert np.all((r.p < 1e-12) | (r.p > 1 - 1e-12))  # vertex proposals
    assert static_linear_regret(recs) <= 1e-6 * 400


def test_sigma_schedule_telescopes():
    adv, fs, fvecs, hints = make_oftrl_inputs(8, 300, HintSpec("additive-noise", 0.3), 1)
    pol = OftrlPolicy(ScoreConfig(n=8, k=3, T=300, M=adv.M, G=adv.G),
                      np.random.default_rng(4))
    st = pol.state
    sigma_sums = [st.sigma_sum]
    for f, h, fv in zip(fs, hints, fvecs):
        pol.step(f, h.w, lambda _f, fv=fv: fv)
        sigma_sums.append(st.sigma_sum)
    assert st.sigma_sum == pytest.approx((1 / 3) * math.sqrt(st.delta_sum), abs=1e-9)
    assert len(sigma_sums) == 301 and sigma_sums == sorted(sigma_sums)  # sigma_t >= 0


def test_adversarial_flip_delta_is_four_norms():
    spec = HintSpec("adversarial-flip")
    rng = np.random.default_rng(2)
    fvecs = [rng.random(5) for _ in range(10)]
    hints = generate_hints(fvecs, spec, rng)
    for fv, h in zip(fvecs, hints):
        delta = float(np.sum((fv - h.w) ** 2))
        assert delta == pytest.approx(4 * float(fv @ fv))


def test_exact_and_afw_modes_agree_per_round():
    spec = HintSpec("additive-noise", 0.4)
    pol, recs, _ = run_oftrl(8, 3, 150, spec, 4, mode="afw",
                             track_exact_reference=True)
    assert pol.state.eps is not None
    bound = math.sqrt(
        2 * pol.state.eps / (pol.sigma_scale * math.sqrt(pol.state.first_delta))
    )
    checked = 0
    for r in recs:
        if r.p_ref is not None:
            assert np.linalg.norm(r.p - r.p_ref) <= bound
            checked += 1
    assert checked > 100


def test_oftrl_augmented_regret_within_hint_bound():
    from coreselect.setfn import distance_sup

    n, k, T = 8, 3, 400
    _, recs, (fs, hints) = run_oftrl(n, k, T, HintSpec("additive-noise", 0.3), 8)
    sq = [distance_sup(f, h) ** 2 for f, h in zip(fs, hints)]
    aug = augmented_regret(recs, 1.0, k, n, expected=True)
    assert aug <= 12 * k * math.sqrt(sum(sq)) + 1e-9


# ---------------------------------------------------------------------------
# Regret accounting.

def test_static_regret_single_round_formula():
    adv = make_modular_drift_adversary(6, G=1.0)
    recs = run_score(6, 2, 1, 13, adv)
    g = recs[0].gvec
    top2 = float(np.sort(g)[-2:].sum())
    want = top2 - (2 / 6) * float(g.sum())
    assert static_linear_regret(recs) == pytest.approx(want, abs=1e-12)


def test_static_regret_matches_replay():
    adv = make_modular_drift_adversary(7, G=1.0)
    recs = run_score(7, 3, 120, 17, adv)
    total = np.sum([r.gvec for r in recs], axis=0)
    bench = float(np.sort(total)[-3:].sum())
    replay = bench - sum(float(r.gvec @ r.p) for r in recs)
    assert static_linear_regret(recs) == pytest.approx(replay, abs=1e-9)


def test_augmented_regret_three_round_hand_trace():
    recs = []

    class R:
        def __init__(self, reward, full):
            self.reward = reward
            self.full_reward = full
            self.expected_reward = reward

    recs = [R(1.0, 2.0), R(0.5, 3.0), R(2.0, 2.0)]
    # (k / (n alpha)) * (2 + 3 + 2) - (1 + 0.5 + 2) with k=2, n=4, alpha=1
    assert augmented_regret(recs, 1.0, 2, 4) == pytest.approx(0.5 * 7 - 3.5)


def test_bound_helpers():
    assert static_regret_bound(20, 5, 10000, 1.0) == pytest.approx(
        2 * math.sqrt(2 * 5 * 10000 * math.log(4.0))
    )
    assert augmented_regret_bound(20, 5, 10000, 1.0) == pytest.approx(
        4 * math.sqrt(5 * 10000 * math.log(4.0))
    )
    assert static_regret_bound(5, 5, 100, 1.0) == 0.0
    assert norm_bound(2.0, 3.0) == pytest.approx(6.0 * math.sqrt(2))
