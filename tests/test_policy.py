"""Policy round mechanics, estimator properties, and regret accounting."""

import math
import re
import warnings
from dataclasses import fields

import numpy as np
import pytest

import coreselect.hypersimplex as hypersimplex_module
import coreselect.policy as policy_module
import coreselect.sampling as sampling_module
from coreselect.adversary import (
    HintSpec,
    adversary_from_config,
    generate_hints,
    make_coverage_drift_adversary,
    make_modular_drift_adversary,
)
from coreselect.blocks import PLAN_CELLS, block_rounds, running_sums
from coreselect.corevec import core_vectors
from coreselect.hypersimplex import entropic_ftrl_argmax, lmo
from coreselect.policy import (
    OftrlPolicy,
    PricedPolicy,
    RegretLedger,
    RoundRecord,
    ScoreConfig,
    ScorePolicy,
    SemiBanditPolicy,
    augmented_regret_bound,
    norm_bound,
    priced_epsilon,
    priced_regret_bound,
    static_regret_bound,
)
from coreselect.oracles import expected_set_value, madow_marginal_measure
from coreselect.sampling import _prefix_sums, draw, madow_sample
from coreselect.setfn import ModularFunction
from test_hypersimplex import straddling_ties


def joined(records):
    """The records of consecutive steps as the columns of one block."""
    def column(name):
        return np.concatenate([getattr(r, name) for r in records])

    return RoundRecord(range(records[0].t.start, records[-1].t.stop), column("p"),
                       column("selected"), column("gvec"),
                       [o for r in records for o in r.observed], column("cost"))


def valued(runs, record):
    """Each round's reward and full-set reward: the (f, b) runs, in order,
    valued on the sets ``record`` drew for their rounds."""
    reward, full, start = [], [], 0
    for f, b in runs:
        reward.append(f.value(record.selected[start:start + b]))
        full.append(np.broadcast_to(f.full_value(), b))
        start += b
    return np.concatenate(reward), np.concatenate(full)


def folded(n, k, played, alpha=1.0):
    """A ledger with a played (record, reward, full-set reward) folded in."""
    ledger = RegretLedger(n, k, alpha)
    ledger.fold(*played)
    return ledger


def one_per_round(runs):
    """The rewards one per round: each row of a modular run's reward as a
    function of its own, and a run of any other reward b times."""
    out = []
    for f, b in runs:
        if isinstance(f, ModularFunction):
            out += [ModularFunction(row) for row in f.w]
        else:
            out += [f] * b
    return out


def run_score(n, k, T, seed, adversary, G=None, policy_cls=ScorePolicy):
    """(record, reward, full-set reward) of all T rounds, played with one
    step per run the adversary yields."""
    cfg = ScoreConfig(n=n, k=k, T=T, M=adversary.M, G=G if G is not None else adversary.G)
    policy = policy_cls(cfg, np.random.default_rng(seed))
    strategy = adversary.core_strategy(np.random.default_rng(seed + 1))
    runs = list(adversary.rounds(T, np.random.default_rng(seed + 2)))
    record = joined([policy.step(strategy(f, b)) for f, b in runs])
    return (record, *valued(runs, record))


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


@pytest.mark.parametrize("G", [0.0, 1e-200, 1e-160, 1e200, math.inf])
def test_tuned_eta_names_G_and_T_where_2_G2_T_cannot_be_divided_by(G):
    # the tuned rate divides by 2 G^2 T: where that or its reciprocal is 0 or
    # past the float range, the error names G and T, not a division by zero
    # or the rate that came out of it
    where = re.escape(f"G = {G!r} and T = 10 make 2 * G**2 * T")
    with pytest.raises(ValueError, match=where):
        ScoreConfig(n=4, k=2, T=10, G=G)
    with pytest.raises(ValueError, match=where):
        PricedPolicy.tuned_config(4, 2, 10, G, 1.0)
    with pytest.raises(ValueError, match=where):
        priced_epsilon(4, 2, 10, G, 1.0)
    # an eta that is set needs no tuning
    assert ScoreConfig(n=4, k=2, T=10, G=G, eta=0.5).eta == 0.5


def test_tuned_eta_from_a_zero_value_bound_names_G_and_T():
    with pytest.raises(ValueError, match=r"G = 0\.0 and T = 10 make"):
        ScoreConfig(n=4, k=2, T=10, M=0.0)


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
    rec, _, _ = run_score(6, 2, 3, 0, adv)
    np.testing.assert_allclose(rec.p[0], 2 / 6, atol=1e-12)


def test_traces_are_deterministic():
    adv = make_modular_drift_adversary(6, G=1.0)
    a, _, _ = run_score(6, 2, 50, 7, adv)
    b, _, _ = run_score(6, 2, 50, 7, adv)
    # each round's set is the Madow sample at its uniform, replayed from a
    # generator in the policy's starting state
    u = np.random.default_rng(7).random(50)
    assert len(a.t) == len(b.t) == 50
    for sa, sb, p, ut in zip(a.selected.tolist(), b.selected.tolist(), a.p, u.tolist()):
        assert sa == sb == madow_sample(p, 2, ut).tolist()
    np.testing.assert_array_equal(a.p, b.p)
    np.testing.assert_array_equal(a.gvec, b.gvec)


def test_full_selection_when_k_equals_n():
    adv = make_modular_drift_adversary(5, G=1.0)
    played = run_score(5, 5, 20, 3, adv)
    rec, reward, full = played
    assert (rec.selected == np.arange(5)).all()
    assert reward == pytest.approx(full)
    assert folded(5, 5, played).aug_regret() == pytest.approx(0.0, abs=1e-9)


def test_static_regret_under_published_bound_on_drift():
    adv = make_modular_drift_adversary(10, G=1.0)
    played = run_score(10, 3, 2000, 11, adv, G=1.0)
    assert folded(10, 3, played).static_regret() <= static_regret_bound(10, 3, 2000, 1.0)


def test_constant_adversary_converges_to_top_k():
    w = np.array([1.0, 0.8, 0.6, 0.1, 0.05])
    f = ModularFunction(w[None])  # one round's reward, as a run of 1
    cfg = ScoreConfig(n=5, k=2, T=3000, M=float(w.sum()), G=float(np.linalg.norm(w)))
    pol = ScorePolicy(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    rec = joined([pol.step(core_vectors(f, 1, rng)) for _ in range(3000)])
    # late-round selection probability concentrates on the two best elements
    late = np.mean([p[:2].sum() for p in rec.p[-100:]])
    assert late > 1.8
    played = (rec, *valued([(f, 1)] * 3000, rec))
    assert folded(5, 2, played).static_regret() <= static_regret_bound(5, 2, 3000, cfg.G)


def test_reward_never_exceeds_full_reward_for_monotone():
    adv = make_coverage_drift_adversary(8)
    _, reward, full = run_score(8, 3, 200, 1, adv)
    assert (reward <= full + 1e-12).all()


def test_benchmark_inequality_on_traces():
    # sum of full rewards is at most (n/k) * best fixed linear benchmark
    adv = make_coverage_drift_adversary(8)
    rec, _, full = run_score(8, 3, 300, 2, adv)
    total = np.sum(rec.gvec, axis=0)
    bench = float(total @ lmo(-total, 3))
    assert sum(full.tolist()) <= (8 / 3) * bench + 1e-6


# ---------------------------------------------------------------------------
# Semi-bandit estimates.

def semibandit_feeds(n, k, T, seed):
    """Each round's record and what it added to theta, one step per round."""
    adv = make_modular_drift_adversary(n, G=1.0)
    pol = SemiBanditPolicy(ScoreConfig(n=n, k=k, T=T, M=adv.M, G=adv.G),
                           np.random.default_rng(seed))
    out = []
    for f in one_per_round(adv.rounds(T, np.random.default_rng(seed + 2))):
        before = pol.theta.copy()
        r = pol.step(f.w[None])
        out.append((r, pol.theta - before))
    return out


def test_semibandit_feeds_ips_on_selected_only():
    for r, fed in semibandit_feeds(6, 2, 40, 9):
        sel = set(r.selected[0].tolist())
        for i in range(6):
            if i in sel:
                assert fed[i] == pytest.approx(r.gvec[0, i] / r.p[0, i])
            else:
                assert fed[i] == 0.0


def test_semibandit_k_equals_n_is_exact():
    for r, fed in semibandit_feeds(4, 4, 10, 9):
        np.testing.assert_allclose(fed, r.gvec[0], atol=1e-12)


def semibandit_rows_reference(theta, G, eta, k, rng):
    """The semi-bandit's rows written out, one at a time: the public
    argmax, ``draw`` and the inverse-propensity feed into ``theta``."""
    n = theta.size
    p = np.ones(G.shape)
    selected = np.empty((len(G), k), dtype=np.intp)
    for i, g in enumerate(G):
        if k == n:
            selected[i] = range(n)
        else:
            p[i] = entropic_ftrl_argmax(theta, eta, k)
            selected[i] = draw(p[i], k, rng)
        chosen = selected[i]
        theta[chosen] += g[chosen] / p[i, chosen]
    return p, selected


def semibandit_inputs(n, B, case, rng):
    """(theta, G, eta, k): a starting theta, a block of proxy vectors, a
    rate and a set size for one semi-bandit block of the named case."""
    k = int(rng.integers(1, n + 1))
    theta = np.zeros(n)
    G = rng.normal(size=(B, n))
    eta = float(rng.choice([0.3, 3.0]))
    if case == "tied":  # integer G ties scores across rows
        G = rng.integers(-2, 3, (B, n)).astype(float)
    elif case == "log-space":  # scores spread past 690 / eta from the first row
        theta, eta = rng.permutation(n) / (n - 1), 1e4
    elif case == "straddling":  # equal scores on both sides of the caps
        theta, G, eta, k = straddling_ties(n, rng), np.zeros((B, n)), 1.0, n - 1
    return theta, G, eta, k


@pytest.mark.parametrize("B", [1, 204])
@pytest.mark.parametrize("case", ["normal", "tied", "log-space", "straddling"])
def test_semibandit_block_equals_the_written_out_rows(B, case):
    rng = np.random.default_rng([B, len(case)])
    for _ in range(60 if B == 1 else 8):
        n = int(rng.integers(5 if case == "straddling" else 2, 61))
        theta, G, eta, k = semibandit_inputs(n, B, case, rng)
        cfg = ScoreConfig(n=n, k=k, T=B, eta=eta)
        pol = SemiBanditPolicy(cfg, np.random.default_rng(n))
        pol.theta = theta.copy()
        record = pol.step(G)
        want_rng = np.random.default_rng(n)
        p, selected = semibandit_rows_reference(theta, G, eta, k, want_rng)
        assert record.p.tobytes() == p.tobytes(), (n, k)
        assert np.array_equal(record.selected, selected)
        assert pol.theta.tobytes() == theta.tobytes()
        assert pol.rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, "overflow"])
def test_semibandit_non_finite_theta_fails_at_the_written_out_round(bad):
    # the row after the one whose feed makes theta non-finite fails, naming
    # theta, with the rows before it fed as the written-out loop feeds them
    n, k, B = 12, 4, 9
    rng = np.random.default_rng(5)
    G = rng.normal(size=(B, n))
    G[5] = 1e308 if bad == "overflow" else bad
    cfg = ScoreConfig(n=n, k=k, T=B, eta=2.0)
    pol = SemiBanditPolicy(cfg, np.random.default_rng(6))
    theta = np.zeros(n)
    match = "theta contains non-finite entries"
    with np.errstate(over="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            semibandit_rows_reference(theta, G, cfg.eta, k, np.random.default_rng(6))
        with pytest.raises(ValueError, match=match):
            pol.step(G)
    assert not np.isfinite(theta).all()
    assert pol.theta.tobytes() == theta.tobytes()
    assert pol.t == 0


@pytest.mark.parametrize("R", [1, 8, 9])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_semibandit_lanes_name_a_non_finite_theta(R, bad):
    # past eight lanes the row body solves the rounds; it names a theta
    # that is not finite as the few-rows body does
    n, k, B = 12, 4, 9
    G = np.random.default_rng(5).normal(size=(B, n))
    G[5] = bad
    cfg = ScoreConfig(n=n, k=k, T=B, eta=2.0)
    lanes = [SemiBanditPolicy(cfg, np.random.default_rng(6 + r)) for r in range(R)]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="theta contains non-finite entries"):
            SemiBanditPolicy.play_lanes(lanes, [G] * R)


class FixedUniforms:
    """A generator stand-in whose ``random(size)`` hands out given draws in
    order, as a lane's generator would its own."""

    def __init__(self, u):
        self.u = list(u)

    def random(self, size):
        out, self.u = self.u[:size], self.u[size:]
        return np.array(out)


def fallback_case(n, k, eta, rng):
    """(theta, u): scores whose proposal caps a coordinate at 1, and a
    uniform at which rounding puts two grid points into that coordinate's
    interval, so the Madow draw hands a dropped slot on."""
    for _ in range(10_000):
        theta = rng.normal(size=n)
        theta[rng.integers(0, n, 2)] += 40.0
        p = entropic_ftrl_argmax(theta, eta, k)
        prefix = np.concatenate([[0.0], np.cumsum(p)])
        prefix[-1] = k
        for j in np.flatnonzero(p == 1.0).tolist():
            base = float(prefix[j] % 1.0)
            for u in (base, math.nextafter(base, 0.0), math.nextafter(base, 1.0)):
                grid = np.ceil(np.minimum(prefix, k) - u)
                if 0.0 <= u < 1.0 and np.count_nonzero(grid[1:] > grid[:-1]) < k:
                    return theta, u
    raise AssertionError("no proposal takes the Madow fallback")


LANE_CASES = ["log-space", "straddling", "fallback", "k == n"]


def check_lanes_equal_each_lane_alone(make, draws, R, case, monkeypatch):
    """Play R lanes of the policies ``make(cfg, rng)``, whose generators
    hand out ``draws`` uniforms per round, as one group and one by one: one
    lane takes the named branch while the others do not, and each lane's
    record, theta and branch counts must equal what it gives alone."""
    rng = np.random.default_rng([R, len(case)])
    n, B, eta = 20, 7, 1.0
    k = {"straddling": n - 1, "k == n": n}.get(case, 5)
    odd = int(rng.integers(R))
    thetas = [rng.normal(size=n) for _ in range(R)]
    us = [rng.random(draws * B).tolist() for _ in range(R)]
    G = rng.normal(size=(R, B, n))
    if case == "log-space":  # scores spread past 690 / eta
        thetas[odd] = rng.permutation(n) * 100.0
    elif case == "straddling":  # equal scores on both sides of the caps
        thetas[odd], G[odd] = straddling_ties(n, rng), 0.0
    elif case == "fallback":  # the first round's Madow uniform is the first draw
        thetas[odd], us[odd][0] = fallback_case(n, k, eta, rng)
    calls = {}

    def counted(name):
        real = getattr(sampling_module if name == "_fill_dropped_slots" else
                       hypersimplex_module, name)

        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return real(*args)

        return wrapper

    monkeypatch.setattr(sampling_module, "_fill_dropped_slots", counted("_fill_dropped_slots"))
    monkeypatch.setattr(hypersimplex_module, "_capped_exponentials_in_log_space",
                        counted("_capped_exponentials_in_log_space"))
    cfg = ScoreConfig(n=n, k=k, T=B, eta=eta)

    def lanes():
        pols = [make(cfg, FixedUniforms(u)) for u in us]
        for pol, theta in zip(pols, thetas):
            pol.theta = theta.copy()
        return pols

    alone = lanes()
    want = [pol.step(g) for pol, g in zip(alone, G)]
    seen, calls = calls, {}
    group = lanes()
    got = type(group[0]).play_lanes(group, list(G))
    assert calls == seen
    if case in ("log-space", "straddling"):
        assert 1 <= seen["_capped_exponentials_in_log_space"] <= B
    elif case == "fallback":
        assert seen == {"_fill_dropped_slots": 1}
    for a, b, pa, pb in zip(want, got, alone, group):
        assert a.t == b.t and a.observed == b.observed
        assert a.p.tobytes() == b.p.tobytes()
        assert a.selected.tobytes() == b.selected.astype(a.selected.dtype).tobytes()
        assert a.cost.tobytes() == b.cost.tobytes()
        assert pa.theta.tobytes() == pb.theta.tobytes() and pa.t == pb.t
        if k == n:  # the full set, proposed as all ones
            assert (b.p == 1.0).all() and (b.selected == np.arange(n)).all()


@pytest.mark.parametrize("R", [2, 3, 25])
@pytest.mark.parametrize("case", LANE_CASES)
def test_semibandit_lanes_equal_each_lane_alone(R, case, monkeypatch):
    # 2 and 3 lanes share the few-rows argmax, 25 the row body
    check_lanes_equal_each_lane_alone(SemiBanditPolicy, 1, R, case, monkeypatch)


@pytest.mark.parametrize("R", [1, 2, 25])
@pytest.mark.parametrize("case", LANE_CASES)
@pytest.mark.parametrize("policy", ["score", "priced"])
def test_score_and_priced_lanes_equal_each_lane_alone(policy, R, case, monkeypatch):
    # a lane alone plays its 7 rounds through the few-rows argmax, and
    # stacked with others through the row body; a priced round draws its
    # Madow uniform, then its coin
    if policy == "score":
        check_lanes_equal_each_lane_alone(ScorePolicy, 1, R, case, monkeypatch)
    else:
        check_lanes_equal_each_lane_alone(
            lambda cfg, rng: PricedPolicy(cfg, rng, cost=0.5, epsilon=0.6),
            2, R, case, monkeypatch)


def test_ips_estimate_is_exactly_unbiased_by_marginal_law():
    # E[g_i 1(i in S) / p_i] = g_i * measure{i selected} / p_i = g_i exactly
    from coreselect.hypersimplex import euclidean_project

    rng = np.random.default_rng(3)
    g = rng.random(7)
    p = euclidean_project(rng.random(7), 3)
    measure = madow_marginal_measure(p, 3)
    est = g * measure / p
    np.testing.assert_allclose(est, g, atol=1e-10)


def test_ips_monte_carlo_mean_within_ci():
    from coreselect.hypersimplex import euclidean_project
    from coreselect.sampling import madow_sample

    rng = np.random.default_rng(4)
    g = rng.random(6)
    p = euclidean_project(rng.random(6) + 0.3, 3)
    m = 20000
    acc = np.zeros(6)
    for _ in range(m):
        sel = madow_sample(p, 3, float(rng.random()))
        for i in sel:
            acc[i] += g[i] / p[i]
    mean = acc / m
    # per-coordinate variance of the indicator estimate
    sd = np.abs(g) * np.sqrt((1 - p) / (p * m))
    assert np.all(np.abs(mean - g) <= 4 * sd + 1e-12)


# ---------------------------------------------------------------------------
# Priced feedback.

def test_priced_epsilon_formula_value():
    assert priced_epsilon(20, 5, 10**5, 1.0, 1.0) == pytest.approx(0.0517549, abs=1e-6)


@pytest.mark.parametrize("cost", [0.0, -1.0, 1e-200, math.nan, math.inf, -math.inf])
def test_priced_epsilon_names_a_cost_the_config_would_reject(cost):
    # the tuned rate divides by cost**2: a cost the config would reject is
    # named, not divided by or clamped with a warning of a short horizon
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(
                f"cost must be finite and positive with a positive square, got {cost!r}")):
            priced_epsilon(4, 2, 10, 1.0, cost)


def test_priced_epsilon_clamps_with_warning():
    with pytest.warns(UserWarning):
        eps = priced_epsilon(20, 5, 2, 1.0, 0.01)
    assert eps == 1.0


def test_priced_always_observing_costs_every_round():
    adv = make_modular_drift_adversary(6, G=1.0)
    cfg = PricedPolicy.tuned_config(6, 2, 30, 1.0, cost=2.0)
    pol = PricedPolicy(cfg, np.random.default_rng(0), cost=2.0, epsilon=1.0)
    strategy = adv.core_strategy(np.random.default_rng(1))
    rec = joined([pol.step(strategy(f, b))
                  for f, b in adv.rounds(30, np.random.default_rng(2))])
    assert len(rec.t) == 30 and all(rec.observed)
    assert sum(rec.cost.tolist()) == pytest.approx(60.0)
    # every round fed its vector: theta is their sum, added one at a time
    total = np.zeros(6)
    for g in rec.gvec:
        total += g
    assert pol.theta.tobytes() == total.tobytes()


def test_priced_unobserved_round_feeds_zero(monkeypatch):
    argmax = policy_module.entropic_ftrl_argmax
    calls = []

    def counted(theta, eta, k):
        calls.append(1)
        return argmax(theta, eta, k)

    monkeypatch.setattr(policy_module, "entropic_ftrl_argmax", counted)
    adv = make_modular_drift_adversary(6, G=1.0)
    cfg = PricedPolicy.tuned_config(6, 2, 400, 1.0, cost=1.0)
    pol = PricedPolicy(cfg, np.random.default_rng(5), cost=1.0, epsilon=0.2)
    strategy = adv.core_strategy(np.random.default_rng(6))
    G = np.concatenate([strategy(f, b) for f, b in adv.rounds(400, np.random.default_rng(7))])
    recs = []
    feds = []
    for g in G:
        theta = pol.theta.copy()
        before = len(calls)
        r = pol.step(g[None])
        # a block of one: one row-wise argmax, bit for bit the 1-d argmax of
        # theta
        assert len(calls) - before == 1
        assert r.p[0].tobytes() == argmax(theta, cfg.eta, 2).tobytes()
        recs.append(r)
        feds.append(pol.theta - theta)
    unobserved = [(r, fed) for r, fed in zip(recs, feds) if not r.observed[0]]
    observed = [(r, fed) for r, fed in zip(recs, feds) if r.observed[0]]
    assert unobserved and observed
    for r, fed in unobserved:
        assert r.cost[0] == 0.0
        np.testing.assert_array_equal(fed, np.zeros(6))
    for r, fed in observed:
        assert r.cost[0] == 1.0
        np.testing.assert_allclose(fed, r.gvec[0] / 0.2, atol=1e-12)
    # observation frequency near epsilon
    assert abs(len(observed) / 400 - 0.2) < 4 * math.sqrt(0.2 * 0.8 / 400)


# ---------------------------------------------------------------------------
# Planned blocks of rounds.

ADVERSARY_KINDS = ("onehot-ensemble", "modular-random", "modular-drift",
                   "coverage-drift", "matching-random")


class ScriptedGenerator:
    """Uniforms from a fixed list, in order, behind the part of the
    ``Generator`` interface the policies use, state included."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.pos = 0
        self.bit_generator = self

    @property
    def state(self):
        return {"pos": self.pos}

    @state.setter
    def state(self, state):
        self.pos = state["pos"]

    def random(self, size=None):
        start = self.pos
        self.pos += 1 if size is None else size
        if size is None:
            return float(self.values[start])
        return self.values[start:self.pos].copy()


def make_planner(kind, cfg, rng):
    if kind == "score":
        return ScorePolicy(cfg, rng)
    if kind == "semibandit":
        return SemiBanditPolicy(cfg, rng)
    return PricedPolicy(cfg, rng, cost=1.5, epsilon=0.4)


def play(pol, gs, blocks=()):
    """The record of every round, theta after each step by the index of its
    last round, and the generator's state at the end: the rounds
    start..stop-1 of each (start, stop) in ``blocks`` played as one block,
    the others one step per round, each a block of one."""
    records, thetas = [], {}
    start, stops = 0, dict(blocks)
    while start < len(gs):
        stop = stops.get(start, start + 1)
        records.append(pol.step(gs[start:stop]))
        thetas[stop - 1] = pol.theta.copy()
        start = stop
    return joined(records), thetas, pol.rng.bit_generator.state


def assert_same_rounds(got, want):
    (got, got_thetas, got_state), (want, want_thetas, want_state) = got, want
    assert got.t == want.t
    assert got.p.tobytes() == want.p.tobytes()
    assert np.array_equal(got.selected, want.selected)
    assert got.observed == want.observed and {type(o) for o in got.observed} == {bool}
    assert got.cost.dtype == want.cost.dtype == np.float64
    assert got.cost.tobytes() == want.cost.tobytes()
    for t, theta in got_thetas.items():
        assert theta.tobytes() == want_thetas[t].tobytes(), t
    assert got_state == want_state


def madow_falls_back(p, k, u):
    """Whether the sampler's ulp fallback fills the set drawn at (p, u)."""
    grid = np.ceil(_prefix_sums(p.clip(0.0, 1.0), k) - u)
    return int((grid[1:] > grid[:-1]).sum()) < k


def forced_fallback(pol_factory, gs, k, draws):
    """Uniforms under which some round of the one-step-per-round run falls
    back, and that round's index."""
    for seed in range(20):
        values = np.random.default_rng(seed).random(draws * len(gs))
        ps = play(pol_factory(ScriptedGenerator(values)), gs)[0].p
        for t, p in enumerate(ps):
            # a round's proposal does not depend on its own Madow uniform:
            # try the few doubles around each boundary's fractional part
            for a in _prefix_sums(p, k)[1:-1]:
                frac = a - math.floor(a)
                for u in frac + np.arange(-4, 5) * np.spacing(frac):
                    if 0.0 <= u < 1.0 and madow_falls_back(p, k, u):
                        values[draws * t] = u
                        return values, t
    raise AssertionError("no round can be forced to fall back")


@pytest.mark.parametrize("adversary", ADVERSARY_KINDS)
@pytest.mark.parametrize("kind", ["score", "priced", "semibandit"])
@pytest.mark.parametrize("case", ["blocks", "full-selection", "underflow", "ulp-fallback"])
def test_planned_rounds_equal_unplanned_steps(kind, adversary, case):
    # a block played by one step equals its rounds played one step each
    n, T = 12, 11
    k = n if case == "full-selection" else 6
    adv = adversary_from_config({"kind": adversary}, n)
    strategy = adv.core_strategy(np.random.default_rng(2))
    gs = np.concatenate([strategy(f, b) for f, b in adv.rounds(T, np.random.default_rng(1))])
    # eta 3 caps several coordinates; 1e4 spreads the scores past exp underflow
    cfg = ScoreConfig(n=n, k=k, T=T, M=adv.M, G=adv.G,
                      eta=1e4 if case == "underflow" else 3.0)
    draws = 2 if kind == "priced" else 1

    def factory(rng):
        return make_planner(kind, cfg, rng)

    if case == "ulp-fallback":
        values, t = forced_fallback(factory, gs, k, draws)
        runs = [play(factory(ScriptedGenerator(values)), gs, blocks)
                for blocks in ((), ((0, 4), (4, 8), (8, T)), ((0, T),))]
        assert madow_falls_back(runs[0][0].p[t], k, values[draws * t])
    else:
        runs = [play(factory(np.random.default_rng(3)), gs, blocks)
                for blocks in ((), ((0, 4), (4, 8), (8, T)), ((0, T),))]
    if case == "underflow":
        # some round's scores spread past exp underflow, so its row goes
        # through the log-space branch
        spread = [cfg.eta * (theta.max() - theta.min()) for theta in runs[0][1].values()]
        assert max(spread) > 690.0
    # the first round's scores are all tied (theta = 0)
    assert_same_rounds(runs[1], runs[0])  # T = 11 is not a multiple of 4
    assert_same_rounds(runs[2], runs[0])


@pytest.mark.parametrize("kind", ["score", "priced"])
def test_single_rounds_and_blocks_play_one_stream(kind):
    adv = make_modular_drift_adversary(8, G=1.0)
    strategy = adv.core_strategy(np.random.default_rng(5))
    gs = np.concatenate([strategy(f, b) for f, b in adv.rounds(9, np.random.default_rng(4))])
    cfg = ScoreConfig(n=8, k=3, T=9, M=adv.M, G=adv.G)
    want = play(make_planner(kind, cfg, np.random.default_rng(6)), gs)
    # rounds 1-2 one at a time, 3-6 as a block, 7 alone, 8-9 as a block
    got = play(make_planner(kind, cfg, np.random.default_rng(6)), gs, ((2, 6), (7, 9)))
    assert_same_rounds(got, want)


@pytest.mark.parametrize("kind", ["score", "priced", "semibandit", "oftrl"])
def test_step_rejects_what_is_not_a_block(kind):
    n, k = 6, 2
    adv = adversary_from_config({"kind": "modular-random"}, n)
    (f, b), = adv.rounds(3, np.random.default_rng(0))  # one run of 3 rounds
    G = core_vectors(f, b, np.random.default_rng(2))
    cfg = ScoreConfig(n=n, k=k, T=3, M=adv.M, G=adv.G)
    pol = (OftrlPolicy(cfg, np.random.default_rng(1)) if kind == "oftrl"
           else make_planner(kind, cfg, np.random.default_rng(1)))
    with pytest.raises(ValueError, match=r"proxy vectors must be \(B, 6\) rows"):
        # one round's vector, which would play as n rounds
        pol.step(G[0], G[0])
    with pytest.raises(ValueError, match=r"proxy vectors must be \(B, 6\) rows"):
        pol.step(G[:, :5], G[:, :5])
    with pytest.raises(ValueError, match=r"hints must be of shape \(3, 6\)"):
        pol.step(G, G[:2])
    assert pol.t == 0 and not pol.theta.any()
    record = pol.step(G, G)
    assert record.t == range(1, 4) and record.selected.shape == (3, k)


@pytest.mark.parametrize("kind", ["score", "priced", "semibandit", "oftrl"])
def test_step_rejects_a_block_of_no_rounds(kind):
    # every policy names the empty block before it plays or draws anything
    n, k = 5, 2
    cfg = ScoreConfig(n=n, k=k, T=1)
    pol = (OftrlPolicy(cfg, np.random.default_rng(0)) if kind == "oftrl"
           else make_planner(kind, cfg, np.random.default_rng(0)))
    with pytest.raises(ValueError, match=r"a block needs at least one round, got shape \(0, 5\)"):
        pol.step(np.zeros((0, n)), np.zeros((0, n)))
    assert pol.t == 0 and not pol.theta.any()
    assert pol.rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


def test_block_rounds_hold_at_most_plan_cells():
    assert block_rounds(1000) == PLAN_CELLS // 1000 == 16
    assert block_rounds(2000) == PLAN_CELLS // 2000 == 8
    assert block_rounds(20000) == 1
    # and at most 204 rounds, which n = 80 reaches
    assert block_rounds(80) == PLAN_CELLS // 80 == 204
    assert block_rounds(81) == PLAN_CELLS // 81 == 202
    assert block_rounds(20) == block_rounds(1) == 204
    assert all(1 <= block_rounds(n) and block_rounds(n) * n <= max(n, PLAN_CELLS)
               for n in range(1, 40000, 7))


# ---------------------------------------------------------------------------
# Optimistic policy.

def make_oftrl_inputs(n, T, spec, seed, adversary=None):
    """The adversary, each round's reward, proxy vector and hint."""
    adv = adversary if adversary is not None else make_coverage_drift_adversary(n)
    runs = list(adv.rounds(T, np.random.default_rng(seed)))
    strategy = adv.core_strategy(np.random.default_rng(seed + 1))
    fvecs = np.concatenate([strategy(f, b) for f, b in runs])
    hints = generate_hints(fvecs, spec, np.random.default_rng(seed + 2))
    return adv, one_per_round(runs), fvecs, hints


def run_oftrl(n, k, T, spec, seed, mode="exact", **kwargs):
    adv, fs, fvecs, hints = make_oftrl_inputs(n, T, spec, seed)
    cfg = ScoreConfig(n=n, k=k, T=T, M=adv.M, G=adv.G)
    pol = OftrlPolicy(cfg, np.random.default_rng(seed + 3), mode=mode, **kwargs)
    recs = []
    refs = []  # the exact minimizer of each round's objective, if not linear
    for f, h, fv in zip(fs, hints, fvecs):
        obj = pol._quadratic(pol.theta + h)
        refs.append(None if obj is None else obj.exact_minimizer())
        recs.append(pol.step(fv[None], h[None]))
    rec = joined(recs)
    reward, full = valued([(f, 1) for f in fs], rec)
    return pol, (rec, reward, full), (fs, hints, refs)


def test_oftrl_step_without_hint_is_an_error():
    adv, fs, fvecs, _ = make_oftrl_inputs(6, 1, HintSpec("perfect"), 0)
    pol = OftrlPolicy(ScoreConfig(n=6, k=2, T=1, M=adv.M, G=adv.G),
                      np.random.default_rng(3))
    with pytest.raises(ValueError, match="needs a hint every round"):
        pol.step(fvecs[:1])


def test_oftrl_step_without_hint_at_full_selection_fails_before_the_round():
    # k == n plays the full set without a proposal; the hint is still required
    adv, fs, fvecs, _ = make_oftrl_inputs(4, 1, HintSpec("perfect"), 0)
    pol = OftrlPolicy(ScoreConfig(n=4, k=4, T=1, M=adv.M, G=adv.G),
                      np.random.default_rng(3))
    with pytest.raises(ValueError, match="needs a hint every round"):
        pol.step(fvecs[:1])
    assert pol.t == 0
    np.testing.assert_array_equal(pol.theta, np.zeros(4))


def test_an_exact_proposal_projects_the_summed_vector_over_the_summed_weight(monkeypatch):
    # the oftrl-exact-adversarial-flip golden config, replica 0: each round
    # with a positive regularizer weight proposes the projection of
    # (theta + hint + weighted_center) / sigma_sum, bit for bit.  Round 7 is
    # the first whose bits a divide of weighted_center by the weight and a
    # multiply back would move
    from coreselect.bench import ExperimentConfig, run_replica
    from coreselect.hypersimplex import euclidean_project
    from test_golden import CONFIGS

    wants, proposals = [], []
    real_quadratic, real_draw = OftrlPolicy._quadratic, policy_module.draw

    def quadratic(self, linear):
        s = self.sigma_sum
        wants.append(None if s <= 0.0 else
                     euclidean_project((linear + self.weighted_center) / s, self.config.k))
        return real_quadratic(self, linear)

    def draw(p, k, rng):
        proposals.extend(p.copy())
        return real_draw(p, k, rng)

    monkeypatch.setattr(OftrlPolicy, "_quadratic", quadratic)
    monkeypatch.setattr(policy_module, "draw", draw)
    run_replica(ExperimentConfig.from_dict(CONFIGS["oftrl-exact-adversarial-flip"]), 0)
    assert len(wants) == len(proposals) == 20 and wants[0] is None
    assert proposals[6].tobytes() == wants[6].tobytes()  # round 7
    for want, p in zip(wants[1:], proposals[1:]):
        assert p.tobytes() == want.tobytes()


def test_perfect_hints_route_through_vertices_with_no_regret():
    pol, played, _ = run_oftrl(8, 3, 400, HintSpec("perfect"), 0)
    rec = played[0]
    assert pol.sigma_sum == 0.0  # no hint error ever observed
    assert np.all((rec.p < 1e-12) | (rec.p > 1 - 1e-12))  # vertex proposals
    assert folded(8, 3, played).static_regret() <= 1e-6 * 400


def test_sigma_schedule_telescopes():
    adv, fs, fvecs, hints = make_oftrl_inputs(8, 300, HintSpec("additive-noise", 0.3), 1)
    pol = OftrlPolicy(ScoreConfig(n=8, k=3, T=300, M=adv.M, G=adv.G),
                      np.random.default_rng(4))
    sigma_sums = [pol.sigma_sum]
    for h, fv in zip(hints, fvecs):
        pol.step(fv[None], h[None])
        sigma_sums.append(pol.sigma_sum)
    assert pol.sigma_sum == pytest.approx((1 / 3) * math.sqrt(pol.delta_sum), abs=1e-9)
    assert len(sigma_sums) == 301 and sigma_sums == sorted(sigma_sums)  # sigma_t >= 0


def test_adversarial_flip_delta_is_four_norms():
    spec = HintSpec("adversarial-flip")
    rng = np.random.default_rng(2)
    fvecs = [rng.random(5) for _ in range(10)]
    hints = generate_hints(fvecs, spec, rng)
    for fv, h in zip(fvecs, hints):
        delta = float(np.sum((fv - h) ** 2))
        assert delta == pytest.approx(4 * float(fv @ fv))


def test_exact_and_afw_modes_agree_per_round():
    spec = HintSpec("additive-noise", 0.4)
    pol, (rec, _, _), (_, hints, refs) = run_oftrl(8, 3, 150, spec, 4, mode="afw")
    # the first positive squared hint error sets the tolerance
    deltas = ((rec.gvec - hints) ** 2).sum(axis=1)
    sigma_root = pol.sigma_scale * math.sqrt(deltas[deltas > 0.0][0])
    assert pol.eps == sigma_root / (200.0 * pol.config.G**2 * 150**2)
    bound = math.sqrt(2 * pol.eps / sigma_root)
    checked = 0
    for p, ref in zip(rec.p, refs):
        if ref is not None:
            assert np.linalg.norm(p - ref) <= bound
            checked += 1
    assert checked > 100


@pytest.mark.parametrize("mode", ["exact", "afw"])
@pytest.mark.parametrize("adversary", ["modular-random", "coverage-drift"])
def test_optimistic_block_equals_its_rounds_one_step_each(mode, adversary):
    n, k, T = 8, 3, 30
    adv = adversary_from_config({"kind": adversary}, n)
    strategy = adv.core_strategy(np.random.default_rng(2))
    G = np.concatenate([strategy(f, b) for f, b in adv.rounds(T, np.random.default_rng(1))])
    H = generate_hints(G, HintSpec("additive-noise", 0.3), np.random.default_rng(3))
    cfg = ScoreConfig(n=n, k=k, T=T, M=adv.M, G=adv.G)
    one = OftrlPolicy(cfg, np.random.default_rng(4), mode=mode)
    want = joined([one.step(g[None], h[None]) for g, h in zip(G, H)])
    pol = OftrlPolicy(cfg, np.random.default_rng(4), mode=mode)
    got = joined([pol.step(G[start:stop], H[start:stop])
                  for start, stop in ((0, 12), (12, 13), (13, T))])
    assert got.t == want.t == range(1, T + 1) and one.sigma_sum > 0.0
    assert np.array_equal(got.selected, want.selected)
    assert got.p.tobytes() == want.p.tobytes()
    assert pol.theta.tobytes() == one.theta.tobytes()
    assert pol.weighted_center.tobytes() == one.weighted_center.tobytes()
    assert (pol.sigma_sum, pol.delta_sum, pol.eps) == (one.sigma_sum, one.delta_sum, one.eps)
    assert pol.rng.bit_generator.state == one.rng.bit_generator.state


@pytest.mark.parametrize("R", [2, 3])
@pytest.mark.parametrize("k", [3, 8])
@pytest.mark.parametrize("mode", ["exact", "afw"])
def test_optimistic_lanes_equal_each_lane_alone(mode, k, R):
    # a group plays each lane through the row loop (k < n), or feeds it and
    # plays the full set (k == n): each lane's record and state are what
    # its own step gives
    n, B = 8, 12
    rng = np.random.default_rng([R, k])
    G = rng.normal(size=(R, B, n))
    H = G + 0.3 * rng.normal(size=(R, B, n))
    cfg = ScoreConfig(n=n, k=k, T=B)

    def lanes():
        return [OftrlPolicy(cfg, np.random.default_rng(r), mode=mode) for r in range(R)]

    alone, group = lanes(), lanes()
    want = [pol.step(g, h) for pol, g, h in zip(alone, G, H)]
    got = OftrlPolicy.play_lanes(group, list(G), list(H))
    for a, b, pa, pb in zip(want, got, alone, group):
        assert a.t == b.t == range(1, B + 1) and a.observed == b.observed
        for name in ("p", "selected", "gvec", "cost"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
        assert pa.theta.tobytes() == pb.theta.tobytes()
        assert pa.weighted_center.tobytes() == pb.weighted_center.tobytes()
        assert (pa.sigma_sum, pa.delta_sum, pa.eps) == (pb.sigma_sum, pb.delta_sum, pb.eps)
        assert pa.rng.bit_generator.state == pb.rng.bit_generator.state
        if k < n:
            assert pb.sigma_sum > 0.0 and pb.eps is not None
        else:  # the full set, and theta fed every round
            assert (b.p == 1.0).all() and (b.selected == np.arange(n)).all()
            fed = running_sums(np.vstack([np.zeros(n), b.gvec]))
            assert pb.theta.tobytes() == fed[-1].tobytes()


def test_oftrl_augmented_regret_within_hint_bound():
    from coreselect.setfn import distance_sup

    n, k, T = 8, 3, 400
    _, played, (fs, hints, _) = run_oftrl(n, k, T, HintSpec("additive-noise", 0.3), 8)
    sq = [distance_sup(f, h) ** 2 for f, h in zip(fs, hints)]
    # against E[f(S) | p], summed in round order as the ledger sums rewards
    expected = 0.0
    for p, f in zip(played[0].p, fs):
        expected += expected_set_value(p, k, f.value)
    aug = folded(n, k, played).benchmark() - expected
    assert aug <= 12 * k * math.sqrt(sum(sq)) + 1e-9


# ---------------------------------------------------------------------------
# Regret accounting.

def test_static_regret_single_round_formula():
    adv = make_modular_drift_adversary(6, G=1.0)
    played = run_score(6, 2, 1, 13, adv)
    g = played[0].gvec[0]
    top2 = float(np.sort(g)[-2:].sum())
    want = top2 - (2 / 6) * float(g.sum())
    assert folded(6, 2, played).static_regret() == pytest.approx(want, abs=1e-12)


def test_static_regret_matches_replay():
    adv = make_modular_drift_adversary(7, G=1.0)
    played = run_score(7, 3, 120, 17, adv)
    rec = played[0]
    total = np.sum(rec.gvec, axis=0)
    bench = float(np.sort(total)[-3:].sum())
    replay = bench - sum(float(g @ p) for g, p in zip(rec.gvec, rec.p))
    assert folded(7, 3, played).static_regret() == pytest.approx(replay, abs=1e-9)


def ledger_rows_reference(played, n, k, alpha):
    """Each round's CSV columns from the sums folded in one round at a time:
    cum_reward, benchmark, aug_regret, static_regret and cum_cost, with the
    top-k from one stable sort.  A non-finite total ends the list with the
    error the linear oracle raises."""
    record, rewards, fulls = played
    scale = k / (n * alpha)
    cum_reward = cum_full = cum_cost = cum_dot = 0.0
    total = np.zeros(n)
    rows = []
    for reward, full, cost, g, p in zip(rewards.tolist(), fulls.tolist(),
                                        record.cost.tolist(), record.gvec, record.p):
        cum_reward += reward
        cum_full += full
        cum_cost += cost
        total += g
        cum_dot += float(g @ p)
        if not np.isfinite(total).all():
            return rows, ValueError("cost contains non-finite entries")
        best = np.zeros(n)
        best[np.argsort(-total, kind="stable")[:k]] = 1.0
        rows.append((cum_reward, scale * cum_full, scale * cum_full - cum_reward,
                     float(total @ best) - cum_dot, cum_cost))
    return rows, None


def ledger_records(n, k, T, rng, tie=False):
    """(record, reward, full-set reward) of a block of T rounds with random
    proposals; with ``tie``, integer vectors with signed zeros, so totals
    tie at the top-k boundary, and a zero total."""
    G, P = np.empty((T, n)), np.empty((T, n))
    reward, full, observed = np.empty(T), np.empty(T), []
    for i in range(T):
        if tie:
            G[i] = rng.choice([0.0, -0.0, 1.0, -1.0], n)
            if i < 2:
                G[i] = [0.0, -0.0][i]
        else:
            G[i] = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
        p = rng.random(n)
        P[i] = p * (k / p.sum())
        observed.append(bool(rng.random() < 0.5))
        reward[i] = rng.random()
        full[i] = rng.random() * 3
    return (RoundRecord(range(1, T + 1), P, np.tile(np.arange(k), (T, 1)), G, observed,
                        np.where(observed, 0.4, 0.0)), reward, full)


def block_of(played, start, stop):
    """Rounds start..stop-1 of a played block as a block of their own."""
    record, reward, full = played
    return (RoundRecord(*(getattr(record, f.name)[start:stop] for f in fields(RoundRecord))),
            reward[start:stop], full[start:stop])


@pytest.mark.parametrize("n, k, sizes, tie", [
    (20, 5, [204, 204, 42], False),  # blocks
    (20, 5, [1, 3, 204, 7], True),  # short blocks, then a full one
    (20, 10, [50, 50], True),
    (1000, 50, [4, 4, 3], False),  # a few long rows, summed by row adds
    (1000, 50, [40], False),
    (1, 1, [5, 30], True),
])
def test_ledger_fold_matches_rounds_added_one_at_a_time(n, k, sizes, tie):
    rng = np.random.default_rng(n + sum(sizes))
    played = ledger_records(n, k, sum(sizes), rng, tie)
    record = played[0]
    want, error = ledger_rows_reference(played, n, k, 1.5)
    assert error is None
    ledger = RegretLedger(n, k, 1.5)
    got = []
    start = 0
    for size in sizes:
        rows = ledger.fold(*block_of(played, start, start + size))
        start += size
        got += zip(rows.cum_reward.tolist(), rows.benchmark().tolist(),
                   rows.aug_regret().tolist(), rows.static_regret().tolist(),
                   rows.cum_cost.tolist())
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert len(got) == len(record.t)
    assert (ledger.cum_reward, ledger.aug_regret(), float(ledger.static_regret()),
            ledger.cum_cost) == (want[-1][0], want[-1][2], want[-1][3], want[-1][4])
    total = np.zeros(n)
    for g in record.gvec:
        total += g
    assert ledger.total_g.tobytes() == total.tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_ledger_fold_with_a_non_finite_total_raises_as_each_round_did():
    rng = np.random.default_rng(3)
    played = ledger_records(20, 5, 30, rng)
    played[0].gvec[17:19, 3] = 1e308
    want, error = ledger_rows_reference(played, 20, 5, 1.0)
    assert len(want) == 18 and str(error) == "cost contains non-finite entries"
    ledger = RegretLedger(20, 5)
    rows = ledger.fold(*block_of(played, 0, 10))
    rows.static_regret()
    rows = ledger.fold(*block_of(played, 10, 30))
    with pytest.raises(ValueError, match="cost contains non-finite entries"):
        rows.static_regret()
    with pytest.raises(ValueError, match="cost contains non-finite entries"):
        ledger.static_regret()


@pytest.mark.parametrize("shape", [(2, 20), (13, 20), (205, 20), (5, 1000), (21, 200)])
def test_running_sums_add_the_rows_in_order(shape):
    a = np.random.default_rng(shape[0]).standard_normal(shape)
    want = a.copy()
    for i in range(1, len(want)):
        want[i] = want[i - 1] + want[i]
    assert running_sums(a).tobytes() == want.tobytes()


def test_augmented_regret_three_round_hand_trace():
    record = RoundRecord(range(1, 4), np.full((3, 4), 0.5), np.tile([0, 1], (3, 1)),
                         np.zeros((3, 4)), [True] * 3, np.zeros(3))
    played = (record, np.array([1.0, 0.5, 2.0]), np.array([2.0, 3.0, 2.0]))
    # (k / (n alpha)) * (2 + 3 + 2) - (1 + 0.5 + 2) with k=2, n=4, alpha=1
    assert folded(4, 2, played).aug_regret() == pytest.approx(0.5 * 7 - 3.5)


def test_bound_helpers():
    assert static_regret_bound(20, 5, 10000, 1.0) == pytest.approx(
        2 * math.sqrt(2 * 5 * 10000 * math.log(4.0))
    )
    assert augmented_regret_bound(20, 5, 10000, 1.0) == pytest.approx(
        4 * math.sqrt(5 * 10000 * math.log(4.0))
    )
    # at k == n, log(n/k) is 0.0, so each closed form gives +0.0 by itself
    for value in (static_regret_bound(5, 5, 100, 1.5),
                  augmented_regret_bound(5, 5, 100, 1.5),
                  priced_regret_bound(5, 5, 100, 1.5),
                  PricedPolicy.tuned_config(5, 5, 100, 1.5, 0.5).eta,
                  PricedPolicy.tuned_config(5, 5, 100, 1.5, 0.5, epsilon=0.3).eta,
                  ScoreConfig(n=5, k=5, T=100).eta):
        assert value == 0.0 and math.copysign(1.0, value) == 1.0
    assert norm_bound(2.0, 3.0) == pytest.approx(6.0 * math.sqrt(2))
