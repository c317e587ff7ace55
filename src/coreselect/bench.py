"""Experiment harness: config parsing, replicated runs, CSV output, sweeps,
and the verification suite behind the ``verify`` subcommand, which checks the
library against the brute-force oracles of ``coreselect.oracles``.

Every policy kind runs through one replica loop: rounds stream through a
``RegretLedger`` and, when an output directory is set, into the replica's CSV
as they end, so no per-round record is kept.  The CSV layout per replica is
one row per round::

    round,reward,full_reward,cum_reward,cum_benchmark,aug_regret,static_regret,observed,cum_cost

Floats are written with shortest round-trip repr, so reruns with an identical
config produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .adversary import (
    Adversary,
    HintSpec,
    adversary_from_config,
    generate_hints,
    random_coverage,
)
from .corevec import (
    avg_submodular_shapley_check,
    core_membership,
    dictator_vector,
    find_dictator,
    hungarian_duals,
    marginal_vector,
    matching_core_vector,
    shapley_exact,
    tightest_alpha,
)
from .hypersimplex import (
    HypersimplexPoint,
    QuadraticObjective,
    afw_minimize,
    entropic_ftrl_argmax,
    euclidean_project,
    lmo,
)
from .oracles import (
    enumerate_lmo_value,
    enumerate_matching_value,
    enumerate_projection,
    indicator_game,
    random_monotone_function,
    second_game,
)
from .policy import (
    OftrlPolicy,
    PricedPolicy,
    RegretLedger,
    RoundRecord,
    ScoreConfig,
    ScorePolicy,
    SemiBanditPolicy,
    _as_vector,
    augmented_regret_bound,
    norm_bound,
    optimistic_regret_bound,
    priced_regret_bound,
    static_regret_bound,
)
from .sampling import madow_marginal_measure, madow_sample
from .setfn import (
    CoverageFunction,
    MatchingRewardFunction,
    ModularFunction,
    SetFunction,
    check_monotone,
    check_submodular,
    distance_sup,
    estimate_rho,
)

SCHEMA_VERSION = 1
CSV_HEADER = "round,reward,full_reward,cum_reward,cum_benchmark,aug_regret,static_regret,observed,cum_cost"

POLICY_KINDS = ("score", "oftrl", "semibandit", "priced")
SWEEP_AXES = ("T", "k", "noise_l2", "epsilon", "C")


@dataclass
class PolicyBlock:
    kind: str
    mode: str = "exact"          # oftrl only: exact | afw
    eta: float | None = None
    sigma: float | None = None   # oftrl regularizer scale (default 1/k)
    epsilon: float | None = None  # priced observation rate override
    cost: float = 1.0            # priced per-observation price

    def __post_init__(self) -> None:
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind: {self.kind!r}")
        if self.mode not in ("exact", "afw"):
            raise ValueError(f"unknown oftrl mode: {self.mode!r}")


@dataclass
class ExperimentConfig:
    n: int
    k: int
    T: int
    seed: int
    policy: PolicyBlock
    adversary: dict
    hints: HintSpec | None = None
    alpha: float | None = None
    M: float | None = None
    G: float | None = None
    replicas: int = 1
    out: str | None = None

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        """Strict parse: unknown keys anywhere are an error."""
        raw = dict(raw)
        schema = raw.pop("schema", None)
        if schema != SCHEMA_VERSION:
            raise ValueError(f"config schema must be {SCHEMA_VERSION}, got {schema!r}")
        known = {"n", "k", "T", "seed", "policy", "adversary", "hints",
                 "alpha", "M", "G", "replicas", "out"}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        pol_raw = dict(raw.pop("policy"))
        pol_known = {"kind", "mode", "eta", "sigma", "epsilon", "cost"}
        pol_unknown = set(pol_raw) - pol_known
        if pol_unknown:
            raise ValueError(f"unknown policy keys: {sorted(pol_unknown)}")
        policy = PolicyBlock(**pol_raw)
        hints = None
        if "hints" in raw and raw["hints"] is not None:
            hints_raw = dict(raw.pop("hints"))
            hints_unknown = set(hints_raw) - {"mode", "noise_l2"}
            if hints_unknown:
                raise ValueError(f"unknown hint keys: {sorted(hints_unknown)}")
            hints = HintSpec(**hints_raw)
        else:
            raw.pop("hints", None)
        cfg = ExperimentConfig(policy=policy, hints=hints, **raw)
        if cfg.replicas < 1:
            raise ValueError("replicas must be positive")
        if not (1 <= cfg.k <= cfg.n):
            raise ValueError(f"need 1 <= k <= n, got k={cfg.k}, n={cfg.n}")
        return cfg

    @staticmethod
    def from_json(path: str | Path) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            return ExperimentConfig.from_dict(json.load(fh))


@dataclass
class ReplicaResult:
    """One replica's accounting, plus the squared sup-distance of every hint
    when the optimistic policy's rewards are small enough to enumerate."""

    ledger: RegretLedger
    sq_distances: list[float] | None = None

    def final_summary(self) -> dict:
        ledger = self.ledger
        return {
            "aug_regret": float(ledger.aug_regret()),
            "static_regret": ledger.static_regret(),
            "cost": float(ledger.cum_cost),
            "cum_reward": float(ledger.cum_reward),
        }


def _replica_rngs(seed: int, replica: int) -> dict:
    ss = np.random.SeedSequence([int(seed), int(replica)])
    adv, pol, strat, hint = ss.spawn(4)
    return {
        "adversary": np.random.default_rng(adv),
        "policy": np.random.default_rng(pol),
        "strategy": np.random.default_rng(strat),
        "hints": np.random.default_rng(hint),
    }


def _resolve_bounds(cfg: ExperimentConfig, adv: Adversary) -> tuple[float, float, float]:
    """(alpha, M, G): explicit config values win over what the adversary reports."""
    alpha = cfg.alpha if cfg.alpha is not None else adv.alpha
    M = cfg.M if cfg.M is not None else adv.M
    if cfg.G is not None:
        G = cfg.G
    elif cfg.alpha is None and cfg.M is None:
        G = adv.G
    else:
        G = norm_bound(alpha, M)
    return float(alpha), float(M), float(G)


def _policy_round(cfg: ExperimentConfig, score_cfg: ScoreConfig, rngs: dict,
                  strategy, result: ReplicaResult):
    """The configured policy's round, as a function of the revealed reward.

    The optimistic policy's hint is made from this round's proxy vector
    before it proposes; rewards on at most 16 elements also log the hint's
    squared sup-distance for the optimistic bound.
    """
    pol = cfg.policy
    if pol.kind == "oftrl":
        policy = OftrlPolicy(score_cfg, rngs["policy"], mode=pol.mode,
                             sigma_scale=pol.sigma, track_expected=False)
        spec = cfg.hints if cfg.hints is not None else HintSpec("perfect")
        result.sq_distances = [] if cfg.n <= 16 else None

        def play(f: SetFunction) -> RoundRecord:
            fv = _as_vector(strategy(f))
            h = generate_hints([fv], spec, rngs["hints"])[0]
            record = policy.step(f, h.w, lambda _f: fv)
            if result.sq_distances is not None:
                if isinstance(f, (ModularFunction, CoverageFunction)):
                    result.sq_distances.append(distance_sup(f, h) ** 2)
                else:
                    result.sq_distances = None
            return record

        return play
    if pol.kind == "score":
        policy = ScorePolicy(score_cfg, rngs["policy"], track_expected=False)
    elif pol.kind == "semibandit":
        policy = SemiBanditPolicy(score_cfg, rngs["policy"], track_expected=False)
    else:
        if pol.eta is None:
            score_cfg = PricedPolicy.tuned_config(
                cfg.n, cfg.k, cfg.T, score_cfg.G, pol.cost, alpha=score_cfg.alpha,
                M=score_cfg.M, epsilon=pol.epsilon)
        policy = PricedPolicy(score_cfg, rngs["policy"], cost=pol.cost,
                              epsilon=pol.epsilon, track_expected=False)
    return lambda f: policy.step(f, strategy)


def run_replica(cfg: ExperimentConfig, replica: int,
                out_dir: str | Path | None = None) -> ReplicaResult:
    """One independent seeded run; deterministic in (config, replica index).

    With ``out_dir`` set, each round's row of ``replica_<i>.csv`` is written
    as the round ends.
    """
    adv = adversary_from_config(cfg.adversary, cfg.n)
    alpha, M, G = _resolve_bounds(cfg, adv)
    rngs = _replica_rngs(cfg.seed, replica)
    score_cfg = ScoreConfig(n=cfg.n, k=cfg.k, T=cfg.T, alpha=alpha, M=M, G=G,
                            eta=cfg.policy.eta)
    result = ReplicaResult(RegretLedger(cfg.n, cfg.k, alpha))
    play = _policy_round(cfg, score_cfg, rngs, adv.core_strategy(rngs["strategy"]),
                         result)
    records = map(play, adv.rounds(cfg.T, rngs["adversary"]))
    if out_dir is None:
        for r in records:
            result.ledger.add(r)
    else:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_replica_csv(out / f"replica_{replica}.csv", records, result.ledger)
    return result


def replica_summary(cfg: ExperimentConfig, replica: int,
                    out_dir: str | None = None) -> dict:
    """Run one replica, optionally write its CSV, return only the final
    numbers (cheap to ship across process boundaries)."""
    result = run_replica(cfg, replica, out_dir)
    finals = result.final_summary()
    if result.sq_distances is not None:
        finals["optimistic_bound"] = optimistic_regret_bound(cfg.k, result.sq_distances)
    return finals


def run_replicas(cfg: ExperimentConfig, workers: int = 1,
                 out_dir: str | None = None) -> list[dict]:
    """All replica summaries, merged by replica index.

    Replicas are independent (their streams derive from (seed, index)), so
    they may run in parallel; the merge order keeps output deterministic.
    """
    if workers <= 1 or cfg.replicas == 1:
        return [replica_summary(cfg, r, out_dir) for r in range(cfg.replicas)]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(replica_summary, cfg, r, out_dir)
                   for r in range(cfg.replicas)]
        return [f.result() for f in futures]


def _fmt(x: float) -> str:
    return repr(float(x))


def write_replica_csv(path: Path, records: Iterable[RoundRecord],
                      ledger: RegretLedger) -> None:
    """Fold each round into the ledger and write its row as the round ends.
    If a round raises, the partial file is removed."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(CSV_HEADER + "\n")
            for r in records:
                ledger.add(r)
                fh.write(",".join([
                    str(r.t), _fmt(r.reward), _fmt(r.full_reward), _fmt(ledger.cum_reward),
                    _fmt(ledger.benchmark()), _fmt(ledger.aug_regret()),
                    _fmt(ledger.static_regret()), str(int(r.observed)),
                    _fmt(ledger.cum_cost),
                ]) + "\n")
    except BaseException:
        path.unlink(missing_ok=True)
        raise


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None,
                   workers: int = 1) -> dict:
    """Run all replicas, write per-replica CSVs (if an output dir is set), and
    return the summary dict that also lands in summary.json."""
    adv = adversary_from_config(cfg.adversary, cfg.n)
    alpha, M, G = _resolve_bounds(cfg, adv)
    out = Path(out_dir) if out_dir is not None else (Path(cfg.out) if cfg.out else None)
    finals = run_replicas(cfg, workers=workers,
                          out_dir=str(out) if out is not None else None)
    opt_bounds = [f.pop("optimistic_bound") for f in finals if "optimistic_bound" in f]

    aug = np.array([f["aug_regret"] for f in finals])
    static = np.array([f["static_regret"] for f in finals])
    cost = np.array([f["cost"] for f in finals])
    s_bound = static_regret_bound(cfg.n, cfg.k, cfg.T, G)
    a_bound = augmented_regret_bound(cfg.n, cfg.k, cfg.T, M)
    p_bound = priced_regret_bound(cfg.n, cfg.k, cfg.T, G)
    summary = {
        "config": {"n": cfg.n, "k": cfg.k, "T": cfg.T, "seed": cfg.seed,
                   "replicas": cfg.replicas, "policy": cfg.policy.kind,
                   "adversary": adv.kind, "alpha": alpha, "M": M, "G": G},
        "replicas": finals,
        "aug_regret": {"mean": float(aug.mean()), "std": float(aug.std(ddof=1)) if len(aug) > 1 else 0.0},
        "static_regret": {"mean": float(static.mean()), "std": float(static.std(ddof=1)) if len(static) > 1 else 0.0},
        "cost": {"mean": float(cost.mean())},
        "bounds": {
            "static": s_bound,
            "augmented": a_bound,
            "static_ratio": float(static.mean() / s_bound) if s_bound > 0 else None,
            "augmented_ratio": float(aug.mean() / a_bound) if a_bound > 0 else None,
        },
    }
    if cfg.policy.kind == "priced":
        total = float((static + cost).mean())
        summary["bounds"]["priced"] = p_bound
        summary["bounds"]["priced_ratio"] = total / p_bound if p_bound > 0 else None
    if opt_bounds:
        summary["bounds"]["optimistic"] = float(np.mean(opt_bounds))
        summary["bounds"]["optimistic_ratio"] = (
            float(aug.mean() / np.mean(opt_bounds)) if np.mean(opt_bounds) > 0 else None
        )
    if out is not None:
        (out / "summary.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return summary


def sweep(cfg: ExperimentConfig, axis: str, values: list[float],
          out_path: str | Path | None = None) -> list[dict]:
    """Re-run the experiment varying one scalar; returns one summary row per
    axis value and optionally writes the aggregated CSV."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}")
    rows = []
    for v in values:
        patched = ExperimentConfig(
            n=cfg.n, k=cfg.k, T=cfg.T, seed=cfg.seed, policy=PolicyBlock(**vars(cfg.policy)),
            adversary=dict(cfg.adversary), hints=cfg.hints, alpha=cfg.alpha,
            M=cfg.M, G=cfg.G, replicas=cfg.replicas, out=None,
        )
        if axis == "T":
            patched.T = int(v)
        elif axis == "k":
            patched.k = int(v)
        elif axis == "noise_l2":
            patched.hints = HintSpec("additive-noise", noise_l2=float(v))
        elif axis == "epsilon":
            patched.policy.epsilon = float(v)
        else:
            patched.policy.cost = float(v)
        s = run_experiment(patched, out_dir=None)
        rows.append({
            "axis": axis, "value": v,
            "aug_regret_mean": s["aug_regret"]["mean"],
            "static_regret_mean": s["static_regret"]["mean"],
            "cost_mean": s["cost"]["mean"],
            "total_mean": s["static_regret"]["mean"] + s["cost"]["mean"],
        })
    if out_path is not None:
        header = "axis,value,aug_regret_mean,static_regret_mean,cost_mean,total_mean"
        lines = [header] + [
            ",".join([r["axis"], _fmt(r["value"]), _fmt(r["aug_regret_mean"]),
                      _fmt(r["static_regret_mean"]), _fmt(r["cost_mean"]),
                      _fmt(r["total_mean"])]) for r in rows
        ]
        Path(out_path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return rows


def lower_bound_experiment(n: int, k: int, T: int, replicas: int,
                           seed: int = 0, workers: int = 1) -> dict:
    """Mean augmented regret against the one-element ensemble.

    The ensemble pins the expectation at exactly zero, so the sample mean
    should land within a few standard errors of zero for any sound policy.
    That needs a standard error, so at least two replicas.
    """
    if replicas < 2:
        raise ValueError(f"lower-bound needs at least 2 replicas, got {replicas}")
    cfg = ExperimentConfig(
        n=n, k=k, T=T, seed=seed, policy=PolicyBlock("score"),
        adversary={"kind": "onehot-ensemble"}, replicas=replicas,
    )
    finals = np.array([
        f["aug_regret"] for f in run_replicas(cfg, workers=workers)
    ])
    mean = float(finals.mean())
    se = float(finals.std(ddof=1) / math.sqrt(replicas))
    return {
        "n": n, "k": k, "T": T, "replicas": replicas, "seed": seed,
        "mean_aug_regret": mean, "stderr": se,
        "within_4se": bool(abs(mean) <= 4.0 * se),
    }


# ---------------------------------------------------------------------------
# Verification suite: brute-force oracles against the library implementations.

@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def random_feasible_point(n: int, k: int, rng: np.random.Generator) -> HypersimplexPoint:
    return euclidean_project(rng.random(n) * 2.0 - 0.5, k)


def _check_projection(rng, max_n, projection_fn) -> CheckResult:
    for _ in range(60):
        n = int(rng.integers(2, min(7, max_n) + 1))
        k = int(rng.integers(1, n + 1))
        y = rng.standard_normal(n) * 2.0
        got = projection_fn(y, k).p
        want = enumerate_projection(y, k)
        if float(np.linalg.norm(got - want)) > 1e-7:
            return CheckResult("projection-vs-active-set-enumeration", False,
                               f"mismatch at n={n}, k={k}: {got} vs {want}")
    return CheckResult("projection-vs-active-set-enumeration", True, "60 random instances")


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
        point = random_feasible_point(n, k, rng)
        measure = madow_marginal_measure(point)
        if float(np.abs(measure - point.p).max()) > 1e-10:
            return CheckResult("madow-exact-marginal-law", False,
                               f"measure mismatch at n={n}, k={k}")
        sel = madow_sample(point, float(rng.random()))
        if len(sel) != k:
            return CheckResult("madow-exact-marginal-law", False, "cardinality violated")
    return CheckResult("madow-exact-marginal-law", True, "50 random instances")


def _check_entropic_kkt(rng, max_n) -> CheckResult:
    for _ in range(40):
        n = int(rng.integers(2, min(20, max_n) + 1))
        k = int(rng.integers(1, n))
        eta = float(rng.uniform(0.1, 3.0))
        theta = rng.standard_normal(n) * 2.0
        pt = entropic_ftrl_argmax(theta, eta, k)
        pt.validate()
        free = pt.p < 1.0 - 1e-9
        if free.sum() >= 2:
            c = np.log(pt.p[free]) - eta * theta[free]
            if float(c.max() - c.min()) > 1e-7:
                return CheckResult("entropic-argmax-kkt", False,
                                   f"complementarity spread {c.max() - c.min():.2e}")
    return CheckResult("entropic-argmax-kkt", True, "40 random instances")


def _check_afw(rng, max_n) -> CheckResult:
    for _ in range(25):
        n = int(rng.integers(3, min(10, max_n) + 1))
        k = int(rng.integers(1, n))
        centers = [(float(rng.uniform(0.2, 2.0)), random_feasible_point(n, k, rng).p)
                   for _ in range(int(rng.integers(1, 4)))]
        obj = QuadraticObjective(n, k, centers, rng.standard_normal(n))
        eps = 1e-8
        res = afw_minimize(obj, eps=eps, max_iters=4000)
        exact = obj.exact_minimizer()
        fgap = obj.value(res.point.p) - obj.value(exact.p)
        if res.converged and res.gap > eps * (1 + 1e-9):
            return CheckResult("afw-gap-certificate", False, "certified gap above eps")
        if fgap > eps + 1e-10:
            return CheckResult("afw-gap-certificate", False,
                               f"objective gap {fgap:.2e} above eps")
    return CheckResult("afw-gap-certificate", True, "25 random objectives vs exact route")


def _random_submodular_instances(rng, max_n):
    out = []
    for n in (4, 6, min(10, max_n), min(12, max_n)):
        if n < 2:
            continue
        f = random_coverage(n, 2 * n, rng, density=0.4)
        out.append(f)
    return out


def _check_marginal_membership(rng, max_n) -> CheckResult:
    count = 0
    for f in _random_submodular_instances(rng, max_n):
        if not check_submodular(f) or not check_monotone(f):
            return CheckResult("submodular-marginal-membership", False,
                               "coverage instance failed structural check")
        for _ in range(100):
            av = marginal_vector(f, rng.permutation(f.n), submodular=True)
            if not core_membership(av.g, f, 1.0):
                return CheckResult("submodular-marginal-membership", False,
                                   f"marginal vector outside 1-core at n={f.n}")
            count += 1
    return CheckResult("submodular-marginal-membership", True,
                       f"{count} random permutations across coverage instances")


def _check_rho(rng, max_n) -> CheckResult:
    for trial in range(6):
        n = int(rng.integers(4, min(8, max_n) + 1))
        f = random_monotone_function(n, rng)
        rho = estimate_rho(f)
        if not (0.0 < rho <= 1.0):
            return CheckResult("rho-marginal-tightest-alpha", False,
                               f"rho estimate {rho} out of range for strictly monotone f")
        av = marginal_vector(f, rng.permutation(n))
        ta = tightest_alpha(av.g, f)
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
        av = dictator_vector(f, i_star, m)
        if not core_membership(av.g, f, av.alpha, tol=1e-7):
            return CheckResult("dictator-membership", False,
                               f"dictator vector outside M/m core at n={n}")
    return CheckResult("dictator-membership", True, "10 random monotone instances")


def _check_three_player_games(rng=None, max_n=None) -> CheckResult:
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
    dv = dictator_vector(second, 0, 1.0)
    if dv.alpha != 2.0 or not core_membership(dv.g, second, 2.0):
        return CheckResult("three-player-games", False, "dictator vector of the second game fails")
    if not check_monotone(second):
        return CheckResult("three-player-games", False, "second game should be monotone")
    return CheckResult("three-player-games", True, "boundary family and 2-core point reproduced")


def _check_matching_duals(rng, max_n) -> CheckResult:
    for trial in range(8):
        m = int(rng.integers(1, 5))
        if trial % 2:
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
        if m <= 4:
            if abs(value - enumerate_matching_value(w)) > 1e-9:
                return CheckResult("matching-dual-membership", False,
                                   "matching value differs from enumeration")
        f = MatchingRewardFunction(w)
        av = matching_core_vector(w)
        if not core_membership(av.g, f, 1.0, masks=np.array(f.balanced_masks())):
            return CheckResult("matching-dual-membership", False,
                               "dual vector violates a balanced-subset constraint")
    return CheckResult("matching-dual-membership", True, "8 random bipartite instances")


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
    for f in _random_submodular_instances(rng, min(max_n, 8))[:2]:
        if f.n <= 8 and not core_membership(shapley_exact(f), f, 1.0, tol=1e-6):
            return CheckResult("shapley-core-membership", False,
                               "submodular Shapley outside the core")
    return CheckResult("shapley-core-membership", True, "exact values and membership agree")


def _check_norm_bounds(rng, max_n) -> CheckResult:
    for trial in range(10):
        n = int(rng.integers(3, min(10, max_n) + 1))
        f = random_coverage(n, 2 * n, rng, density=0.4)
        M = f.full_value()
        av = marginal_vector(f, rng.permutation(n), submodular=True)
        if np.any(av.g < -1e-12):
            return CheckResult("admissible-norm-bounds", False, "negative marginal gain")
        l2, l1 = float(np.linalg.norm(av.g)), float(np.abs(av.g).sum())
        if l2 > l1 + 1e-9 or l1 > M + 1e-7:
            return CheckResult("admissible-norm-bounds", False, "monotone norm chain violated")
        if l2 > norm_bound(1.0, M) + 1e-7:
            return CheckResult("admissible-norm-bounds", False, "core ball radius violated")
        g = random_monotone_function(min(n, 6), rng)
        dv = dictator_vector(g, int(np.argmax([g.value([i]) for i in range(g.n)])))
        if float(np.linalg.norm(dv.g)) > norm_bound(dv.alpha, g.value_bound) + 1e-7:
            return CheckResult("admissible-norm-bounds", False, "dictator vector outside ball")
        m = int(rng.integers(1, 4))
        w = rng.random(m)[:, None] + rng.random(m)[None, :]  # nonnegative prices exist
        av2 = matching_core_vector(w)
        if float(np.linalg.norm(av2.g)) > 2 * m * float(w.max()) / math.sqrt(2.0) + 1e-7:
            return CheckResult("admissible-norm-bounds", False, "matching vector outside ball")
    return CheckResult("admissible-norm-bounds", True, "10 rounds of constructions")


def _check_hint_inequality(rng, max_n) -> CheckResult:
    for trial in range(1000):
        n = int(rng.integers(2, min(8, max_n) + 1))
        f = random_coverage(n, 2 * n, rng, density=0.5)
        fvec = marginal_vector(f, rng.permutation(n), submodular=True).g
        h = ModularFunction(fvec + rng.standard_normal(n) * rng.uniform(0, 1.5))
        lhs = float(np.abs(fvec - h.w).sum())
        rhs = 3.0 * distance_sup(f, h)
        if lhs > rhs + 1e-9:
            return CheckResult("hint-distance-inequality", False,
                               f"l1 gap {lhs:.6g} exceeds 3x sup distance {rhs:.6g}")
    return CheckResult("hint-distance-inequality", True, "1000 random pairs")


def verify_all(max_n: int = 12, seed: int = 2024,
               projection_fn=None) -> list[CheckResult]:
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
        ("games", _check_three_player_games, False),
        ("matching", _check_matching_duals, False),
        ("shapley", _check_shapley, False),
        ("norms", _check_norm_bounds, False),
        ("hints", _check_hint_inequality, False),
    ]
    results = []
    for name, fn, wants_projection in checks:
        rng = np.random.default_rng(
            np.random.SeedSequence([seed, zlib.crc32(name.encode())])
        )
        if wants_projection:
            results.append(fn(rng, max_n, projection_fn))
        else:
            results.append(fn(rng, max_n))
    return results
