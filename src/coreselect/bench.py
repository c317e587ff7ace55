"""Experiment harness: config parsing, replicated runs, CSV output and sweeps.

Every policy kind runs through one replica loop, which advances a group of
replicas, its lanes, together, a block at a time.  A block is one
``(reward, rounds)`` run of each lane's adversary, of at most
``block_rounds(n)`` rounds.  The loop plays block b of every lane with one
``play_lanes``, which sees only the block's proxy vectors (and hints), and
folds each lane's block into its ``RegretLedger`` and, when an output
directory is set, into its CSV, so no block outlives its rows.  A group's
block is revealed and valued as one reward where it can be: the lanes'
modular or matching rewards are joined, so one core-strategy call gives
every lane's proxy vectors and one ``value`` and one ``full_value`` call
value every lane's drawn sets; other rewards take one call per lane.  Every
policy plays in lane groups at every k (:func:`_group_size`): the
semi-bandit plays its lanes in lockstep, round by round; the score and
priced policies play their lanes' blocks as one stacked block; the
optimistic policy plays its lanes' blocks one after another.  The CSV
layout per replica is one row per round::

    round,reward,full_reward,cum_reward,cum_benchmark,aug_regret,static_regret,observed,cum_cost

Floats are written with shortest round-trip repr, so reruns with an identical
config produce byte-identical files.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np
# numpy loads numpy.random on first use; every replica draws from it, so load
# it with the harness instead of inside the first replica's run
import numpy.random  # noqa: F401

from .adversary import (
    ARRAY_MAX,
    Adversary,
    HintSpec,
    _check_int,
    _check_real,
    adversary_from_config,
    generate_hints,
)
from .blocks import PLAN_CELLS, block_rounds
from .hypersimplex import lmo  # noqa: F401  unused here, but perfbench/spans.py wraps bench.lmo
from .policy import (
    OftrlPolicy,
    PricedPolicy,
    RegretLedger,
    RoundRecord,
    ScoreConfig,
    ScorePolicy,
    SemiBanditPolicy,
    augmented_regret_bound,
    norm_bound,
    optimistic_regret_bound,
    priced_epsilon,
    priced_regret_bound,
    static_regret_bound,
)
from .setfn import (
    CoverageFunction,
    MatchingRewardFunction,
    ModularFunction,
    SetFunction,
    distance_sup,
)

SCHEMA_VERSION = 1
CSV_HEADER = "round,reward,full_reward,cum_reward,cum_benchmark,aug_regret,static_regret,observed,cum_cost"

POLICY_KINDS = ("score", "oftrl", "semibandit", "priced")
SWEEP_AXES = ("T", "k", "noise_l2", "epsilon", "C")


def _object(raw, name: str) -> dict:
    """``raw`` itself, after checking that the JSON value ``name`` is an object."""
    if not isinstance(raw, dict):
        raise ValueError(f"{name} must be a JSON object, got {raw!r}")
    return raw


def _known_keys(cls, raw, name: str) -> dict:
    """A copy of the JSON object ``name``, after rejecting every key that is
    not a field of ``cls`` and every field without a default that it lacks."""
    _object(raw, name)
    unknown = set(raw) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {name} keys: {sorted(unknown)}")
    missing = [f.name for f in fields(cls) if f.name not in raw
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"{name} is missing required keys: {missing}")
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
        # the tuned observation rate divides by cost**2
        _check_real("cost", self.cost, "positive with a positive square",
                    lambda x: x > 0.0 and x * x > 0.0)
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
        # each is the length of arrays or lists a run holds; a run has a round
        for name in ("n", "k", "T", "replicas"):
            _check_int(name, getattr(self, name), least={"T": 1}.get(name), most=ARRAY_MAX)
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
        """Strict parse: unknown or missing keys anywhere, and blocks that are
        not JSON objects, are an error naming the block."""
        raw = dict(_object(raw, "config"))
        schema = raw.pop("schema", None)
        if schema != SCHEMA_VERSION:
            raise ValueError(f"config schema must be {SCHEMA_VERSION}, got {schema!r}")
        raw = _known_keys(ExperimentConfig, raw, "config")
        raw["policy"] = PolicyBlock(**_known_keys(PolicyBlock, raw["policy"], "policy"))
        _object(raw["adversary"], "adversary")
        if raw.get("hints") is not None:
            raw["hints"] = HintSpec(**_known_keys(HintSpec, raw["hints"], "hints"))
        return ExperimentConfig(**raw)

    @staticmethod
    def from_json(path: str | Path) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            return ExperimentConfig.from_dict(json.load(fh))


@dataclass
class ReplicaResult:
    """One replica's accounting, plus the running sum of its hints' squared
    sup-distances, while its rewards have one (:func:`_log_sq_distances`)."""

    ledger: RegretLedger
    sq_sum: float | None = None

    def final_summary(self) -> dict:
        ledger = self.ledger
        return {
            "aug_regret": float(ledger.aug_regret()),
            "static_regret": float(ledger.static_regret()),
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
    """(alpha, M, G): explicit config values win over what the adversary
    reports.  The tuned learning rate divides by 2 G^2 T, so that and its
    reciprocal must be positive and finite; an error names the fields G was
    made from."""
    alpha = cfg.alpha if cfg.alpha is not None else adv.alpha
    M = cfg.M if cfg.M is not None else adv.M
    if cfg.G is not None:
        G, source = cfg.G, "G"
    elif cfg.alpha is None and cfg.M is None:
        G, source = adv.G, f"the adversary block {cfg.adversary}"
    else:
        G, source = norm_bound(alpha, M), "alpha * M * sqrt(2)"
    denominator = 2.0 * G * G * cfg.T
    if not (0.0 < denominator < math.inf and 1.0 / denominator < math.inf):
        raise ValueError(f"G = {G!r}, from {source}, and T = {cfg.T} must make "
                         f"2 * G**2 * T and its reciprocal positive and finite")
    return float(alpha), float(M), float(G)


def _make_policy(cfg: ExperimentConfig, score_cfg: ScoreConfig,
                 rng: np.random.Generator) -> ScorePolicy | OftrlPolicy:
    """The policy of the configured kind."""
    pol = cfg.policy
    if pol.kind == "oftrl":
        return OftrlPolicy(score_cfg, rng, mode=pol.mode, sigma_scale=pol.sigma)
    if pol.kind == "score":
        return ScorePolicy(score_cfg, rng)
    if pol.kind == "semibandit":
        return SemiBanditPolicy(score_cfg, rng)
    eps = pol.epsilon
    if eps is None:  # once: a clamped rate warns each time it is computed
        eps = priced_epsilon(cfg.n, cfg.k, cfg.T, score_cfg.G, pol.cost)
    if pol.eta is None:
        score_cfg = PricedPolicy.tuned_config(
            cfg.n, cfg.k, cfg.T, score_cfg.G, pol.cost, alpha=score_cfg.alpha,
            M=score_cfg.M, epsilon=eps)
    return PricedPolicy(score_cfg, rng, cost=pol.cost, epsilon=eps)


def _group_blocks(cfg: ExperimentConfig, adv: Adversary, replicas: range, policies: list,
                  rngs: list[dict], results: list[ReplicaResult]
                  ) -> Iterator[list[tuple[RoundRecord, np.ndarray, np.ndarray]]]:
    """Each block of the rounds of the lane group ``replicas``, one
    ``(f, b)`` run of each lane's adversary, revealed, played and valued as
    one reward where the lanes' rewards join (:func:`_joins`): one
    core-strategy call gives the proxy vectors of every lane (a call that
    raises is redone lane by lane, so an error names the first lane that
    fails alone, with its rounds); the group plays the block with one
    ``play_lanes`` (a lone replica with its ``step``), which sees only the
    lanes' proxy vectors (and their hints, when the policy class
    ``needs_hint``); then one ``value`` and one ``full_value`` call value
    every lane's drawn sets.  Rewards that do not join are revealed and
    valued lane by lane.  Yields each lane's record and its rounds' rewards
    and full-set rewards.

    The replicas of a config share the block layout, since the adversaries'
    runs are cut by (T, n, phases) only, so every lane's block b has the
    same rounds.  A hinted lane adds its hints' squared sup-distances to its
    ``sq_sum`` for the optimistic bound (:func:`_log_sq_distances`).
    """
    strategies = [adv.core_strategy(rng["strategy"]) for rng in rngs]
    spec = None
    if type(policies[0]).needs_hint:
        spec = cfg.hints if cfg.hints is not None else HintSpec("perfect")
        for result in results:
            result.sq_sum = 0.0
    t = 0  # the rounds revealed so far
    for runs in zip(*[adv.rounds(cfg.T, rng["adversary"]) for rng in rngs]):
        rewards, b = [f for f, _ in runs], runs[0][1]
        G, chunks = _reveal_block(rewards, b, strategies, cfg.k, t, replicas)
        hints = None
        if spec is not None:
            hints = [generate_hints(g, spec, rng["hints"]) for g, rng in zip(G, rngs)]
            for result, f, h in zip(results, rewards, hints):
                if result.sq_sum is not None:
                    _log_sq_distances(result, f, h, t)
        if len(policies) > 1:
            records = type(policies[0]).play_lanes(policies, list(G), hints)
        else:  # kept only for perfbench's spans, which time step (ROADMAP item 13)
            records = [policies[0].step(G[0], None if hints is None else hints[0])]
        yield _value_block(records, chunks)
        t += b


def _reveal_block(rewards: list[SetFunction], b: int, strategies: list, k: int, t: int,
                  replicas: range) -> tuple[np.ndarray, list[tuple[range, SetFunction]]]:
    """The proxy vectors of the lanes' block of b rounds, which starts after
    round t, as (R, b, n) rows, from the lanes' rewards, one per lane, and
    the rewards that value the block, each with the range of lanes it
    reveals and values.  Where the lanes' rewards join, one strategy call
    on each joined reward gives its lanes' rows; a joined call that raises,
    and every other reward, takes one call per lane, the lanes in order, so
    that an error names the first lane that fails alone."""
    G = np.empty((len(rewards), b, rewards[0].n))
    chunks = []
    for chunk, f in _joins(rewards, b, k):
        try:
            vectors = strategies[chunk.start](f, len(chunk) * b)
            G[chunk.start:chunk.stop] = vectors.reshape(len(chunk), b, -1)
        except Exception:  # redone lane by lane below
            continue
        chunks.append((chunk, f))
    done = {r for chunk, _ in chunks for r in chunk}
    for r, f in enumerate(rewards):
        if r not in done:
            _lane_vectors(strategies[r], f, G[r], t, replicas[r])
            chunks.append((range(r, r + 1), f))
    return G, chunks


def _value_block(records: list[RoundRecord], chunks: list[tuple[range, SetFunction]]
                 ) -> list[tuple[RoundRecord, np.ndarray, np.ndarray]]:
    """Each lane's record with its rounds' rewards and full-set rewards: one
    ``value`` and one ``full_value`` call per reward, on the stacked sets of
    the lanes it values."""
    reward, full = np.empty((2, len(records), len(records[0].t)))
    for chunk, f in chunks:
        sets = np.concatenate([records[r].selected for r in chunk])
        reward[chunk.start:chunk.stop] = f.value(sets).reshape(len(chunk), -1)
        full[chunk.start:chunk.stop] = np.reshape(f.full_value(), (len(chunk), -1))
    return list(zip(records, reward, full))


def _lane_vectors(strategy, f: SetFunction, G: np.ndarray, t: int, replica: int) -> None:
    """One lane's proxy vectors of its reward f, written into its block G of
    b rows, which starts after round t, from one call of its core strategy.
    A failing call names the replica and the block's rounds, or the part of
    them that its error's ``rows`` gives."""
    try:
        G[:] = strategy(f, len(G))
    except Exception as exc:
        part = getattr(exc, "rows", range(len(G)))
        first, last = t + part[0] + 1, t + part[-1] + 1
        where = f"round {first}" if first == last else f"rounds {first}-{last}"
        raise RuntimeError(
            f"replica {replica}: core strategy failed on {where}: {exc}") from exc


def _joins(rewards: list[SetFunction], b: int, k: int) -> list[tuple[range, SetFunction]]:
    """The lanes' rewards of one block of b rounds, joined into one reward per
    chunk of consecutive lanes: modular rewards of b rows by their rows,
    matching rewards of b rounds by their stacks of phase matrices, each
    lane's phase indices offset by the matrices of the lanes before it.  A
    chunk holds as many lanes as keep what the joined reward makes (a
    modular reward's rows; the dual solve's (P, m, m) arrays and the
    valuation's (b, h, h) gather of a matching reward, h = k / 2) within
    max(PLAN_CELLS, one lane's own) cells.  A chunk of one lane is not
    joined, nor are other rewards, such as coverage rewards: ``core_vectors``
    draws only for their marginal vectors, each lane from its own
    generator."""
    if all(isinstance(f, ModularFunction) and f.rounds == b for f in rewards):
        cells = rewards[0].w.size

        def join(fs):
            return ModularFunction(np.concatenate([f.w for f in fs]))
    elif all(isinstance(f, MatchingRewardFunction) and f.rounds == b for f in rewards):
        cells = max(max(f.w.size for f in rewards), b * (k // 2) ** 2)

        def join(fs):
            offsets = np.cumsum([0] + [len(f.w) for f in fs[:-1]]).tolist()
            return MatchingRewardFunction(np.concatenate([f.w for f in fs]), np.concatenate(
                [f.phase + offset for f, offset in zip(fs, offsets)]))
    else:
        return []
    size, R = PLAN_CELLS // cells, len(rewards)
    if size < 2:
        return []
    # a chunk that starts at the last lane would hold it alone
    return [(range(first, min(first + size, R)), join(rewards[first:first + size]))
            for first in range(0, R - 1, size)]


def _log_sq_distances(result: ReplicaResult, f: SetFunction, hints: np.ndarray,
                      t: int) -> None:
    """Add the squared sup-distance of each round of a lane's block, which
    starts after round t, from its reward f to its hint, a row of ``hints``,
    to ``result.sq_sum`` one at a time, in round order.  Only modular
    rewards (any n, by the O(n) closed form) and coverage rewards (n <= 16,
    by 2^n tables) have the distance; any other reward stops the sum
    (None), so the replica reports no optimistic bound.  A square, or the
    sum, past the float range is an error naming its round.

    The gaps come from one :func:`distance_sup` call on the block's hint
    rows, which it checks, each gap with the bits of its row alone; a square
    is Python's ``gap ** 2``, whose last bit ``x * x`` does not always give."""
    if not (isinstance(f, ModularFunction) or isinstance(f, CoverageFunction) and f.n <= 16):
        result.sq_sum = None
        return
    total = result.sq_sum
    for t, gap in enumerate(distance_sup(f, hints).tolist(), t + 1):
        try:
            total += gap ** 2
        except OverflowError:
            total = math.inf
        if total == math.inf:
            raise ValueError(f"round {t}: the squared sup-distance of the hint from the "
                             "reward, or the sum of such squares, overflows the float "
                             "range (hints noise_l2 too large)")
    result.sq_sum = total


# The most replicas that play as lanes of one group.  A semi-bandit replica
# at n = 20, k = 5 costs about 16 µs per round alone, 5.6 at 8 lanes, 2.1 at
# 32, 1.5 at 64 and 1.3 at 96 (2-core VM); past 64 the gain flattens out,
# while the group holds a block of every lane and, writing CSVs, one open
# file per lane.  The other policies' lanes each hold a block of (B, n)
# rows, so they take fewer: as many as fit one PLAN_CELLS block.
LANES = 64


def _group_size(cfg: ExperimentConfig) -> int:
    """How many replicas of ``cfg`` play as the lanes of one group, at any k.

    Every lane group shares each block's reveal and valuation
    (:func:`_joins`).  Up to ``LANES`` for the semi-bandit, whose lanes also
    share each round's kernel calls; for every other policy, as many as keep
    one ``PLAN_CELLS`` block of their (B, n) rows, and at least one.
    Uncapped, 64 score lanes at n = 20, T = 2000 peaked at twice the memory
    of lone replicas, and at n = 200 ran slower."""
    if cfg.policy.kind == "semibandit":
        return min(LANES, cfg.replicas)
    rows = min(cfg.T, block_rounds(cfg.n)) * cfg.n
    return min(LANES, cfg.replicas, max(1, PLAN_CELLS // rows))


def _groups(cfg: ExperimentConfig, workers: int) -> list[range]:
    """The lane groups of ``cfg``'s replicas, in replica order: the replicas
    are cut into one contiguous share per worker, and each share into
    groups of at most ``_group_size(cfg)``."""
    size, R = _group_size(cfg), cfg.replicas
    shares = min(workers, R)
    cuts = [R * i // shares for i in range(shares + 1)]
    return [range(first, min(first + size, stop))
            for start, stop in zip(cuts, cuts[1:]) for first in range(start, stop, size)]


def _run_group(cfg: ExperimentConfig, replicas: range,
               out_dir: str | Path | None = None) -> list[ReplicaResult]:
    """The replicas ``replicas`` of ``cfg``, run as the lanes of one group;
    each is deterministic in (config, replica index), whatever group it
    plays in.

    With ``out_dir`` set, the rows of each ``replica_<i>.csv`` are written a
    block of rounds at a time, as each block ends.  An error in any lane
    ends the group and removes all of its files.
    """
    adv = adversary_from_config(cfg.adversary, cfg.n)
    alpha, M, G = _resolve_bounds(cfg, adv)
    score_cfg = ScoreConfig(n=cfg.n, k=cfg.k, T=cfg.T, alpha=alpha, M=M, G=G,
                            eta=cfg.policy.eta)
    rngs = [_replica_rngs(cfg.seed, r) for r in replicas]
    results = [ReplicaResult(RegretLedger(cfg.n, cfg.k, alpha)) for _ in replicas]
    policies = [_make_policy(cfg, score_cfg, r["policy"]) for r in rngs]
    blocks = _group_blocks(cfg, adv, replicas, policies, rngs, results)
    ledgers = [result.ledger for result in results]
    if out_dir is None:
        for played in blocks:
            for ledger, block in zip(ledgers, played):
                ledger.fold(*block)
        return results
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / f"replica_{r}.csv" for r in replicas]
    if len(paths) == 1:  # a lone replica's file, as perfbench's spans time it
        write_replica_csv(paths[0], (played[0] for played in blocks), ledgers[0])
    else:
        _write_csvs(paths, blocks, ledgers)
    return results


def run_replica(cfg: ExperimentConfig, replica: int,
                out_dir: str | Path | None = None) -> ReplicaResult:
    """One independent seeded run, a lane group of one; deterministic in
    (config, replica index).

    With ``out_dir`` set, the rows of ``replica_<i>.csv`` are written a
    block of rounds at a time, as each block ends.
    """
    return _run_group(cfg, range(replica, replica + 1), out_dir)[0]


def _group_summaries(cfg: ExperimentConfig, replicas: range,
                     out_dir: str | None = None) -> list[dict]:
    """Run a lane group, optionally write its CSVs, return only each
    replica's final numbers (cheap to ship across process boundaries)."""
    finals = []
    for result in _run_group(cfg, replicas, out_dir):
        finals.append(result.final_summary())
        if result.sq_sum is not None:
            finals[-1]["optimistic_bound"] = optimistic_regret_bound(cfg.k, result.sq_sum)
    return finals


def replica_summary(cfg: ExperimentConfig, replica: int,
                    out_dir: str | None = None) -> dict:
    """Run one replica, optionally write its CSV, return only the final
    numbers."""
    return _group_summaries(cfg, range(replica, replica + 1), out_dir)[0]


def run_replicas(cfg: ExperimentConfig, workers: int = 1,
                 out_dir: str | None = None) -> list[dict]:
    """All replica summaries, merged by replica index.

    Replicas are independent (their streams derive from (seed, index)), so
    they may run in lane groups (:func:`_groups`) and in parallel, one
    contiguous share of them per worker; the merge order keeps output
    deterministic.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    groups = _groups(cfg, workers)
    if workers == 1 or len(groups) == 1:
        return [f for group in groups for f in _group_summaries(cfg, group, out_dir)]
    from concurrent.futures import ProcessPoolExecutor

    # a forking pool starts all of its workers on its first submit
    with ProcessPoolExecutor(max_workers=min(workers, len(groups))) as pool:
        futures = [pool.submit(_group_summaries, cfg, group, out_dir) for group in groups]
        return [f for future in futures for f in future.result()]


def _fmt(x: float) -> str:
    return repr(float(x))


# one CSV row: %r of a float is its shortest round-trip repr, %d of a bool 0 or 1
_CSV_ROW = "%d,%r,%r,%r,%r,%r,%r,%d,%r\n"


def write_replica_csv(path: Path, blocks: Iterable[tuple[RoundRecord, np.ndarray, np.ndarray]],
                      ledger: RegretLedger) -> None:
    """Fold each block of rounds, its record with its rounds' rewards and
    full-set rewards, into the ledger and write its rows, with one
    ``write``, as the block ends.  If a round raises, the partial file is
    removed."""
    _write_csvs([path], ([block] for block in blocks), [ledger])


def _write_csvs(paths: list[Path],
                blocks: Iterable[list[tuple[RoundRecord, np.ndarray, np.ndarray]]],
                ledgers: list[RegretLedger]) -> None:
    """:func:`write_replica_csv` of each lane of a group, a block of all
    lanes at a time: lane r's block folds into ``ledgers[r]`` and its rows
    go to ``paths[r]``, read off the block's columns as they are.  Every
    float is the ``repr`` of a Python float from ``tolist``, which is what
    ``_fmt`` writes.  If a round of any lane raises, every file of the
    group is removed."""
    try:
        with contextlib.ExitStack() as stack:
            files = [stack.enter_context(open(path, "w", encoding="utf-8", newline="\n"))
                     for path in paths]
            for fh in files:
                fh.write(CSV_HEADER + "\n")
            for played in blocks:
                for fh, ledger, (block, reward, full) in zip(files, ledgers, played):
                    rows = ledger.fold(block, reward, full)
                    fh.write("".join([_CSV_ROW % row for row in zip(
                        block.t, reward.tolist(), full.tolist(),
                        rows.cum_reward.tolist(), rows.benchmark().tolist(),
                        rows.aug_regret().tolist(), rows.static_regret().tolist(),
                        block.observed, rows.cum_cost.tolist())]))
    except BaseException:
        for path in paths:
            path.unlink(missing_ok=True)
        raise


@contextlib.contextmanager
def _made_folders(folder: Path | None) -> Iterator[None]:
    """Make ``folder`` (if not None) and its missing parents for the body; if
    it raises, remove the ones made, deepest first, that are still empty."""
    made = [] if folder is None else [d for d in (folder, *folder.parents) if not d.exists()]
    try:
        if folder is not None:
            folder.mkdir(parents=True, exist_ok=True)
        yield
    except BaseException:
        for d in made:
            with contextlib.suppress(OSError):  # one not empty stays
                d.rmdir()
        raise


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None,
                   workers: int = 1) -> dict:
    """Run all replicas, write per-replica CSVs (if an output dir is set), and
    return the summary dict that also lands in summary.json.  A run that
    fails removes its files and the output directories it made."""
    adv = adversary_from_config(cfg.adversary, cfg.n)
    alpha, M, G = _resolve_bounds(cfg, adv)
    out = Path(out_dir) if out_dir is not None else (Path(cfg.out) if cfg.out else None)
    with _made_folders(out):
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
    axis value and optionally writes the aggregated CSV, whose path is
    checked, and whose missing folders are made, before the first run."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}")
    out = None if out_path is None else Path(out_path)
    if out is not None and (out.is_dir() or any(d.is_file() for d in out.parents)):
        raise ValueError(f"cannot write the sweep to {out}: it is a directory or lies under a file")
    rows = []
    with _made_folders(None if out is None else out.parent):
        for v in values:
            if axis in ("T", "k"):
                # an integral float is its int; the config's check names any other value
                count = int(v) if isinstance(v, float) and v.is_integer() else v
                patched = replace(cfg, **{axis: count}, out=None)
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
        if out is not None:
            header = "axis,value,aug_regret_mean,static_regret_mean,cost_mean,total_mean"
            lines = [header] + [
                ",".join([r["axis"], _fmt(r["value"]), _fmt(r["aug_regret_mean"]),
                          _fmt(r["static_regret_mean"]), _fmt(r["cost_mean"]),
                          _fmt(r["total_mean"])]) for r in rows
            ]
            out.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
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
