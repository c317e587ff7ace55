"""Experiment harness: config parsing, replicated runs, CSV output and sweeps.

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
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Iterable

import numpy as np
# numpy loads numpy.random on first use; every replica draws from it, so load
# it with the harness instead of inside the first replica's run
import numpy.random  # noqa: F401

from .adversary import (
    Adversary,
    HintSpec,
    _check_int,
    _check_real,
    adversary_from_config,
    generate_hints,
)
from .hypersimplex import lmo  # noqa: F401  unused here, but perfbench/spans.py wraps bench.lmo
from .policy import (
    OftrlPolicy,
    PricedPolicy,
    RegretLedger,
    RoundRecord,
    ScoreConfig,
    ScorePolicy,
    SemiBanditPolicy,
    _core_vector,
    augmented_regret_bound,
    norm_bound,
    optimistic_regret_bound,
    priced_epsilon,
    priced_regret_bound,
    static_regret_bound,
)
from .setfn import CoverageFunction, ModularFunction, SetFunction, distance_sup

SCHEMA_VERSION = 1
CSV_HEADER = "round,reward,full_reward,cum_reward,cum_benchmark,aug_regret,static_regret,observed,cum_cost"

POLICY_KINDS = ("score", "oftrl", "semibandit", "priced")
SWEEP_AXES = ("T", "k", "noise_l2", "epsilon", "C")


def _known_keys(cls, raw: dict, what: str) -> dict:
    """A copy of ``raw``, after rejecting every key that is not a field of ``cls``."""
    unknown = set(raw) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    return dict(raw)


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
        _check_real("cost", self.cost, "positive", lambda x: x > 0.0)
        if self.sigma is not None:
            _check_real("sigma", self.sigma, "positive", lambda x: x > 0.0)
        if self.epsilon is not None:
            _check_real("epsilon", self.epsilon, "in (0, 1]", lambda x: 0.0 < x <= 1.0)
        if self.eta is not None:
            _check_real("eta", self.eta)


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

    def __post_init__(self) -> None:
        for name in ("n", "k", "T", "replicas"):
            _check_int(name, getattr(self, name))
        _check_int("seed", self.seed, least=0)
        if self.alpha is not None:
            _check_real("alpha", self.alpha, ">= 1", lambda x: x >= 1.0)
        if self.M is not None:
            _check_real("M", self.M, ">= 0", lambda x: x >= 0.0)
        if self.G is not None:
            _check_real("G", self.G, "positive", lambda x: x > 0.0)
        if self.replicas < 1:
            raise ValueError("replicas must be positive")
        if not (1 <= self.k <= self.n):
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        """Strict parse: unknown keys anywhere are an error."""
        raw = dict(raw)
        schema = raw.pop("schema", None)
        if schema != SCHEMA_VERSION:
            raise ValueError(f"config schema must be {SCHEMA_VERSION}, got {schema!r}")
        raw = _known_keys(ExperimentConfig, raw, "config")
        raw["policy"] = PolicyBlock(**_known_keys(PolicyBlock, raw["policy"], "policy"))
        if raw.get("hints") is not None:
            raw["hints"] = HintSpec(**_known_keys(HintSpec, raw["hints"], "hint"))
        return ExperimentConfig(**raw)

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
            fv = _core_vector(strategy, f, policy.t + 1)  # step has not counted it yet
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
        eps = pol.epsilon
        if eps is None:  # once: a clamped rate warns each time it is computed
            eps = priced_epsilon(cfg.n, cfg.k, cfg.T, score_cfg.G, pol.cost)
        if pol.eta is None:
            score_cfg = PricedPolicy.tuned_config(
                cfg.n, cfg.k, cfg.T, score_cfg.G, pol.cost, alpha=score_cfg.alpha,
                M=score_cfg.M, epsilon=eps)
        policy = PricedPolicy(score_cfg, rngs["policy"], cost=pol.cost,
                              epsilon=eps, track_expected=False)
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
        if axis in ("T", "k"):
            patched = replace(cfg, **{axis: int(v)}, out=None)
        elif axis == "noise_l2":
            patched = replace(cfg, hints=HintSpec("additive-noise", noise_l2=float(v)), out=None)
        else:
            key = "epsilon" if axis == "epsilon" else "cost"
            patched = replace(cfg, policy=replace(cfg.policy, **{key: float(v)}), out=None)
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
