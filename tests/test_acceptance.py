"""Acceptance suite: one test per published guarantee, at full scale.

Each test prints a single PASS/FAIL line with the measured quantity and its
bound.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import numpy as np

from coreselect.adversary import (
    HintSpec,
    generate_hints,
    make_coverage_drift_adversary,
    make_modular_random_adversary,
)
from coreselect.bench import (
    ExperimentConfig,
    PolicyBlock,
    lower_bound_experiment,
    run_replicas,
)
from coreselect.hypersimplex import entropic_ftrl_argmax, euclidean_project
from coreselect.oracles import expected_set_value, madow_marginal_measure
from coreselect.policy import (
    OftrlPolicy,
    RegretLedger,
    ScoreConfig,
    augmented_regret_bound,
    static_regret_bound,
)
from coreselect.setfn import distance_sup
from coreselect.verify import verify_all

WORKERS = 2


def report(criterion, passed, detail):
    line = f"{'PASS' if passed else 'FAIL'} criterion {criterion}: {detail}"
    print(line, flush=True)
    assert passed, line


def static_regret(n, k, records):
    """The static regret of the rounds of the records, folded in order; it
    reads no rewards, so they are folded in as zeros."""
    ledger = RegretLedger(n, k)
    for r in records:
        ledger.fold(r, np.zeros(len(r.t)), np.zeros(len(r.t)))
    return float(ledger.static_regret())


# ---------------------------------------------------------------------------

def test_criterion_1_linear_static_regret():
    """Static regret of the entropic learner stays under 2G sqrt(2kT ln(n/k))
    on every adversarial modular-drift seed."""
    n, k, T, G, seeds = 20, 5, 10_000, 1.0, 20
    start = time.perf_counter()
    cfg = ExperimentConfig(
        n=n, k=k, T=T, seed=101, replicas=seeds, G=G,
        policy=PolicyBlock("score"),
        adversary={"kind": "modular-drift", "G": G},
    )
    finals = run_replicas(cfg, workers=WORKERS)
    regrets = np.array([f["static_regret"] for f in finals])
    bound = static_regret_bound(n, k, T, G)
    elapsed = time.perf_counter() - start
    ok = bool(np.all(regrets <= bound)) and elapsed < 30.0
    report(1, ok,
           f"max static regret {regrets.max():.1f} <= bound {bound:.1f} "
           f"on {seeds} seeds in {elapsed:.1f}s (< 30s)")


def test_criterion_2_augmented_regret():
    """Augmented regret against coverage-drift rewards stays under
    4M sqrt(kT ln(n/k)) on every seed."""
    n, k, T, M, seeds = 20, 5, 10_000, 1.0, 20
    cfg = ExperimentConfig(
        n=n, k=k, T=T, seed=202, replicas=seeds, alpha=1.0, M=M,
        policy=PolicyBlock("score"),
        adversary={"kind": "coverage-drift"},
    )
    finals = run_replicas(cfg, workers=WORKERS)
    regrets = np.array([f["aug_regret"] for f in finals])
    bound = augmented_regret_bound(n, k, T, M)
    ok = bool(np.all(regrets <= bound))
    report(2, ok,
           f"max augmented regret {regrets.max():.1f} <= bound {bound:.1f} "
           f"on {seeds} seeds")


def test_criterion_3_lower_bound_ensemble():
    """Against the one-element ensemble the mean augmented regret is pinned
    at zero; the sample mean over 200 replicas must sit within 4 SE."""
    res = lower_bound_experiment(n=10, k=3, T=10_000, replicas=200, seed=303,
                                 workers=WORKERS)
    ok = res["within_4se"]
    report(3, ok,
           f"mean augmented regret {res['mean_aug_regret']:.2f} within "
           f"4 x SE ({4 * res['stderr']:.2f}) over 200 replicas")


def test_criterion_4_optimistic_hint_bound():
    """Optimistic learner: augmented regret <= 12 k sqrt(sum Distance^2) for
    every hint-noise level, with exactly-zero right side at zero noise."""
    n, k, T = 12, 4, 5_000
    adv = make_coverage_drift_adversary(n)
    results = []
    for noise in (0.0, 0.1, 0.5, 1.0):
        runs = list(adv.rounds(T, np.random.default_rng(404)))
        strategy = adv.core_strategy(np.random.default_rng(405))
        fvecs = np.concatenate([strategy(f, b) for f, b in runs])
        hints = generate_hints(fvecs, HintSpec("additive-noise", noise),
                               np.random.default_rng(406))
        cfg = ScoreConfig(n=n, k=k, T=T, alpha=1.0, M=adv.M)
        pol = OftrlPolicy(cfg, np.random.default_rng(407))
        # one step per run of rounds that share a reward
        ledger = RegretLedger(n, k)
        expected = 0.0
        sq = []
        start = 0
        for f, b in runs:
            rows = slice(start, start + b)
            start += b
            r = pol.step(fvecs[rows], hints[rows])
            ledger.fold(r, f.value(r.selected), np.full(b, f.full_value()))
            sq += [distance_sup(f, h) ** 2 for h in hints[rows]]
            # against E[f(S) | p], summed in round order as the ledger sums
            # rewards
            for p in r.p:
                expected += expected_set_value(p, k, f.value)
        aug = ledger.benchmark() - expected
        rhs = 12.0 * k * math.sqrt(sum(sq))
        ok = aug <= rhs + 1e-9
        if noise == 0.0:
            # perfect hints zero out the hint-error form of the bound; the
            # measured regret must then sit at (numerical) zero or below
            ok = ok and pol.delta_sum == 0.0 and aug <= 1e-6 * T
        results.append((noise, aug, rhs, ok))
    ok = all(r[3] for r in results)
    detail = "; ".join(f"noise {r[0]:g}: regret {r[1]:.2f} <= {r[2]:.1f}"
                       for r in results)
    report(4, ok, detail + "; at noise 0 the hint-error bound is 0 "
                           "and regret <= 1e-6 T")


def test_criterion_5_afw_matches_exact():
    """Frank-Wolfe proposals track the exact projections within the tuned
    tolerance every round, and end-to-end regret matches across modes."""
    n, k, T, G, noise = 12, 4, 10_000, 1.0, 0.5
    adv = make_modular_random_adversary(n, G=G)
    strategy = adv.core_strategy(np.random.default_rng(506))
    fvecs = np.concatenate([strategy(f, b)
                            for f, b in adv.rounds(T, np.random.default_rng(505))])
    hints = generate_hints(fvecs, HintSpec("additive-noise", noise),
                           np.random.default_rng(507))
    runs = {}
    for mode in ("afw", "exact"):
        cfg = ScoreConfig(n=n, k=k, T=T, M=adv.M, G=G)
        pol = OftrlPolicy(cfg, np.random.default_rng(508), mode=mode)
        recs, refs = [], []
        for h, fv in zip(hints, fvecs):
            # the exact minimizer of the objective the proposal solves
            obj = pol._quadratic(pol.theta + h) if mode == "afw" else None
            refs.append(None if obj is None else obj.exact_minimizer())
            recs.append(pol.step(fv[None], h[None]))
        runs[mode] = (pol, recs, refs)

    pol_afw, recs_afw, refs_afw = runs["afw"]
    eps = pol_afw.eps
    # the first positive squared hint error sets the tolerance
    deltas = ((fvecs - hints) ** 2).sum(axis=1)
    sigma_root = pol_afw.sigma_scale * math.sqrt(deltas[deltas > 0.0][0])
    assert eps == sigma_root / (200.0 * G**2 * T**2)
    per_round_bound = math.sqrt(2.0 * eps / sigma_root)
    diffs = [float(np.linalg.norm(r.p[0] - ref))
             for r, ref in zip(recs_afw, refs_afw) if ref is not None]
    reg_afw, reg_exact = (static_regret(n, k, recs) for recs in (recs_afw, runs["exact"][1]))
    regret_gap_bound = G * T * per_round_bound
    ok = (len(diffs) >= T - 2
          and max(diffs) <= per_round_bound
          and abs(reg_afw - reg_exact) <= regret_gap_bound)
    report(5, ok,
           f"max per-round gap {max(diffs):.2e} <= {per_round_bound:.2e}; "
           f"|regret diff| {abs(reg_afw - reg_exact):.2e} <= {regret_gap_bound:.2e}")


def test_criterion_6_semibandit():
    """Semi-bandit static regret stays under the full-information bound in
    the mean, and the inverse-propensity estimate is unbiased."""
    n, k, T, G, seeds = 20, 5, 20_000, 1.0, 50
    cfg = ExperimentConfig(
        n=n, k=k, T=T, seed=606, replicas=seeds, G=G,
        policy=PolicyBlock("semibandit"),
        adversary={"kind": "modular-random", "G": G},
    )
    finals = run_replicas(cfg, workers=WORKERS)
    mean_regret = float(np.mean([f["static_regret"] for f in finals]))
    bound = static_regret_bound(n, k, T, G)

    # unbiasedness of the masked 1/p estimate, on a fixed strictly interior
    # probability vector (entropic proposals never hit zero)
    rng = np.random.default_rng(607)
    g = rng.random(n)
    p = entropic_ftrl_argmax(rng.standard_normal(n), 1.0, k)
    m = 100_000
    prefix = np.concatenate([[0.0], np.cumsum(p)])
    prefix[-1] = k
    hits = np.searchsorted(prefix, rng.random(m)[:, None] + np.arange(k)[None, :],
                           side="right") - 1
    counts = np.bincount(hits.ravel(), minlength=n)
    est = g * (counts / m) / p
    sd = np.abs(g) * np.sqrt((1.0 - p) / (p * m))
    ips_ok = bool(np.all(np.abs(est - g) <= 4.0 * sd))

    ok = mean_regret <= bound and ips_ok
    report(6, ok,
           f"mean static regret {mean_regret:.1f} <= bound {bound:.1f} over "
           f"{seeds} seeds; IPS estimate within 4 sigma componentwise")


def test_criterion_7_priced_feedback_scaling():
    """Regret plus observation spend grows like T^(2/3) under priced
    feedback with the tuned observation rate."""
    n, k, G, C, seeds = 20, 5, 1.0, 1.0, 50
    horizons = [1_000, 8_000, 64_000]
    means = []
    for i, T in enumerate(horizons):
        cfg = ExperimentConfig(
            n=n, k=k, T=T, seed=707 + i, replicas=seeds, G=G,
            policy=PolicyBlock("priced", cost=C),
            adversary={"kind": "modular-random", "G": G},
        )
        finals = run_replicas(cfg, workers=WORKERS)
        totals = [f["static_regret"] + f["cost"] for f in finals]
        means.append(float(np.mean(totals)))
    slope = float(np.polyfit(np.log(horizons), np.log(means), 1)[0])
    ok = 0.55 <= slope <= 0.80
    report(7, ok,
           f"log-log slope of mean(regret + cost) = {slope:.3f} in [0.55, 0.80] "
           f"(means {', '.join(f'{m:.0f}' for m in means)})")


def test_criterion_8_core_construction_suite():
    """The brute-force oracle suite over all constructions passes for n <= 12
    within its time budget."""
    start = time.perf_counter()
    results = verify_all(max_n=12)
    elapsed = time.perf_counter() - start
    failed = [r.name for r in results if not r.passed]
    ok = not failed and elapsed < 60.0
    report(8, ok,
           f"{len(results)} oracle checks passed in {elapsed:.1f}s (< 60s)"
           + (f"; failed: {failed}" if failed else ""))


def test_criterion_9_madow_exact_marginal_law():
    """Breakpoint enumeration of the sampler recovers every inclusion
    probability exactly, across a thousand random feasible vectors."""
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(1_000):
        n = int(rng.integers(2, 51))
        k = int(rng.integers(1, n + 1))
        p = euclidean_project(rng.random(n) * 1.4 - 0.2, k)
        measure = madow_marginal_measure(p, k)
        worst = max(worst, float(np.abs(measure - p).max()))
    ok = worst <= 1e-12
    report(9, ok, f"max |measure - p| = {worst:.2e} <= 1e-12 over 1000 vectors")
