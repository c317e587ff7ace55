"""Harness tests: config parsing, CSV stability, verify suite, CLI."""

import itertools
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import coreselect
import coreselect.bench as bench_module
from coreselect import corevec
from coreselect.adversary import Adversary
from coreselect.bench import (
    ExperimentConfig,
    PolicyBlock,
    lower_bound_experiment,
    run_experiment,
    run_replica,
    run_replicas,
    sweep,
)
from coreselect.cli import main
from coreselect.hypersimplex import InfeasiblePointError, euclidean_project
from coreselect.blocks import block_rounds
from coreselect.policy import ScorePolicy
from coreselect.verify import CheckResult, verify_all

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def base_config(**overrides):
    raw = {
        "schema": 1,
        "n": 6,
        "k": 2,
        "T": 40,
        "seed": 3,
        "replicas": 2,
        "policy": {"kind": "score"},
        "adversary": {"kind": "modular-random", "G": 1.0},
    }
    raw.update(overrides)
    return raw


def test_config_parses_and_rejects_unknown_keys():
    cfg = ExperimentConfig.from_dict(base_config())
    assert cfg.policy.kind == "score"
    with pytest.raises(ValueError, match="schema"):
        ExperimentConfig.from_dict({**base_config(), "schema": 99})
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict(base_config(bogus=1))
    with pytest.raises(ValueError, match="unknown policy keys"):
        ExperimentConfig.from_dict(base_config(policy={"kind": "score", "x": 1}))
    with pytest.raises(ValueError, match="unknown hints keys"):
        ExperimentConfig.from_dict(base_config(hints={"mode": "perfect", "y": 2}))
    with pytest.raises(ValueError, match="policy kind"):
        ExperimentConfig.from_dict(base_config(policy={"kind": "hedge"}))


def test_distinct_replicas_differ():
    cfg = ExperimentConfig.from_dict(base_config())
    r0 = run_replica(cfg, 0)
    r1 = run_replica(cfg, 1)
    assert not np.array_equal(r0.ledger.total_g, r1.ledger.total_g)
    assert r0.final_summary() != r1.final_summary()


def test_full_selection_config_has_zero_aug_regret_column(tmp_path):
    cfg = ExperimentConfig.from_dict(base_config(k=6, replicas=1))
    run_experiment(cfg, out_dir=tmp_path)
    rows = (tmp_path / "replica_0.csv").read_text().strip().split("\n")[1:]
    aug = [float(row.split(",")[5]) for row in rows]
    assert all(abs(a) < 1e-9 for a in aug)


def test_csv_columns_are_consistent(tmp_path):
    cfg = ExperimentConfig.from_dict(base_config(replicas=1))
    run_experiment(cfg, out_dir=tmp_path)
    rows = (tmp_path / "replica_0.csv").read_text().strip().split("\n")[1:]
    cum_reward = 0.0
    cum_cost = 0.0
    for t, row in enumerate(rows, start=1):
        f = row.split(",")
        assert int(f[0]) == t
        cum_reward += float(f[1])
        assert float(f[3]) == pytest.approx(cum_reward, rel=1e-12)
        assert float(f[5]) == pytest.approx(float(f[4]) - float(f[3]), abs=1e-9)
        assert int(f[7]) in (0, 1)
        cum_cost = float(f[8])
    assert cum_cost == 0.0


def test_semibandit_config_runs(tmp_path):
    cfg = ExperimentConfig.from_dict(base_config(policy={"kind": "semibandit"}))
    run_replica(cfg, 0, tmp_path)
    rows = (tmp_path / "replica_0.csv").read_text().splitlines()[1:]
    assert [int(row.split(",")[0]) for row in rows] == list(range(1, cfg.T + 1))


def outputs(out_dir):
    """Every file a run wrote, by name."""
    return {path.name: path.read_bytes() for path in sorted(Path(out_dir).iterdir())}


def lane_config(policy, R, adversary="coverage-drift", T=450, k=5):
    # n = 20 and T = 450 cross blocks of 204 rounds and drift phases of 45,
    # and leave an uneven last block of 42 rounds.  ``policy`` is a kind, or
    # "oftrl-exact" or "oftrl-afw"; the optimistic policy gets noisy hints,
    # so that its regularizers, AFW and the hint stream all do work (noise
    # 0.1 keeps the AFW cases to about a third of their time at 0.5)
    kind, _, mode = policy.partition("-")
    policy, hints = {"kind": kind}, None
    if kind == "oftrl":
        policy["mode"], hints = mode, {"mode": "additive-noise", "noise_l2": 0.1}
    if kind == "priced" and adversary == "matching-random":
        policy["epsilon"] = 0.5  # the tuned rate is past 1 on these rewards
    return ExperimentConfig.from_dict(base_config(
        n=20, k=k, T=T, replicas=R, policy=policy, adversary={"kind": adversary},
        hints=hints))


def assert_group_equals_each_replica_alone(cfg, tmp_path):
    R = cfg.replicas
    group = bench_module._group_summaries(cfg, range(R), tmp_path / "group")
    alone = [bench_module.replica_summary(cfg, r, tmp_path / "alone") for r in range(R)]
    assert group == alone
    assert outputs(tmp_path / "group") == outputs(tmp_path / "alone")
    assert len(outputs(tmp_path / "group")) == R
    return group


ADVERSARIES = ["coverage-drift", "matching-random", "modular-random", "modular-drift",
               "onehot-ensemble"]
LANE_POLICIES = ["score", "priced", "semibandit", "oftrl-exact", "oftrl-afw"]


def lane_cases():
    """(adversary, policy, k, R) of every lane-equality case at n = 20.  At
    k < n, coverage rewards run at k = 5 and T = 450, and the others, which
    join across the lanes, at k = 6 (the matching rewards' balanced sets of
    3 + 3 have a value to solve for) and T = 250, which crosses a block of
    204 rounds and phases of 25; the score, priced and semi-bandit groups
    also play 25 lanes, past the score and priced lanes' cap of 4.  At
    k = n = 20, T = 250 too, with 2 and 3 lanes."""
    for adversary, policy in itertools.product(ADVERSARIES, LANE_POLICIES):
        k = 5 if adversary == "coverage-drift" else 6
        for R in (2, 3) if policy.startswith("oftrl") else (2, 3, 25):
            yield adversary, policy, k, R
        for R in (2, 3):
            yield adversary, policy, 20, R


@pytest.mark.parametrize("adversary, policy, k, R", list(lane_cases()))
def test_lane_groups_equal_each_replica_alone(adversary, policy, k, R, tmp_path):
    # every policy at every k groups its replicas; the group's CSVs and
    # summaries are each replica's alone, byte for byte
    cfg = lane_config(policy, R, adversary, T=450 if k == 5 else 250, k=k)
    assert len(bench_module._groups(cfg, 1)[0]) > 1
    assert_group_equals_each_replica_alone(cfg, tmp_path)


def test_lane_groups_fit_one_plan_block_but_the_semibandits():
    def groups(n, T, replicas, policy, k=5, adversary="modular-random"):
        return bench_module._groups(ExperimentConfig.from_dict(base_config(
            n=n, k=k, T=T, replicas=replicas, policy=policy,
            adversary={"kind": adversary})), 1)

    # perfbench's score-matching config: 6 lanes of 100 rounds at n = 20
    assert groups(20, 100, 6, {"kind": "score"}, 10, "matching-random") == [range(6)]
    # blocks of 204 rounds at n = 20: 4 lanes; blocks of 81 at n = 200: 1,
    # whatever the policy but the semi-bandit, and at k = n too
    for policy in ({"kind": "score"}, {"kind": "priced"}, {"kind": "oftrl", "mode": "exact"},
                   {"kind": "oftrl", "mode": "afw"}):
        for k in (5, 20):
            assert groups(20, 2000, 64, policy, k) == [range(r, r + 4) for r in range(0, 64, 4)]
        for k in (5, 200):
            assert groups(200, 2000, 3, policy, k) == [range(r, r + 1) for r in range(3)]
        assert groups(20, 100, 3, policy) == [range(3)]
    # the semi-bandit shares rounds, not blocks: up to LANES at any k
    for k in (5, 200):
        assert groups(200, 2000, 3, {"kind": "semibandit"}, k) == [range(3)]
    assert groups(20, 2000, 100, {"kind": "semibandit"}, 20) == [range(64), range(64, 100)]


def test_k_equals_n_plays_lane_groups(tmp_path):
    # n = 6 logs the optimistic hints' sup-distances too
    for policy in LANE_POLICIES:
        kind, _, mode = policy.partition("-")
        cfg = ExperimentConfig.from_dict(base_config(
            k=6, replicas=3, policy={"kind": kind, **({"mode": mode} if mode else {})}))
        assert bench_module._groups(cfg, 1) == [range(3)]
        group = assert_group_equals_each_replica_alone(cfg, tmp_path / policy)
        assert all(f["aug_regret"] == 0.0 for f in group)


def test_lane_groups_split_among_workers_keep_replica_order(tmp_path):
    for policy in ("semibandit", "score"):
        cfg = ExperimentConfig.from_dict(base_config(
            n=20, k=5, T=60, replicas=25, policy={"kind": policy}))
        # one contiguous share of the replicas per worker, each one group
        # (13 score lanes of 60 rounds fit one PLAN_CELLS block)
        assert bench_module._groups(cfg, 2) == [range(0, 12), range(12, 25)]
        assert bench_module._groups(cfg, 100) == [range(r, r + 1) for r in range(25)]
        out = tmp_path / policy
        one = run_experiment(cfg, out_dir=out / "one", workers=1)
        two = run_experiment(cfg, out_dir=out / "two", workers=2)
        assert one == two
        assert outputs(out / "one") == outputs(out / "two")


def test_run_replicas_asks_the_pool_for_at_most_one_worker_per_group(monkeypatch):
    # a forking pool starts all of its workers on its first submit: the fake
    # records the size asked for and runs each group inline, starting none
    import concurrent.futures

    sizes = []

    class Inline:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    cfg = ExperimentConfig.from_dict(base_config(T=10, replicas=2))
    alone = run_replicas(cfg, workers=1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Inline)
    assert run_replicas(cfg, workers=5000) == alone
    assert sizes == [2]


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_cli_run_names_a_worker_count_below_one(workers, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(T=10, replicas=2)))
    assert main(["run", "--config", str(cfg_path), "--workers", workers]) == 2
    assert f"workers must be at least 1, got {workers}" in capsys.readouterr().err
    with pytest.raises(ValueError, match="workers must be at least 1"):
        run_replicas(ExperimentConfig.from_dict(base_config(T=10)), workers=int(workers))


def test_a_failing_lane_names_its_round_and_ends_its_group(monkeypatch, tmp_path):
    # lane 1 of 3, replica 1, fails on its third run, rounds 9-12 (coverage
    # phases of 4 rounds), after lane 0 revealed its block; the error names
    # the replica and ends the group, which leaves none of its files
    real = Adversary.core_strategy
    for policy in ("semibandit", "score", "priced"):
        built = itertools.count()

        def core_strategy(self, rng):
            strategy, lane, calls = real(self, rng), next(built), itertools.count(1)

            def flaky(f, b):
                if lane == 1 and next(calls) == 3:
                    raise KeyError("boom")
                return strategy(f, b)

            return flaky

        monkeypatch.setattr(Adversary, "core_strategy", core_strategy)
        cfg = ExperimentConfig.from_dict(base_config(
            replicas=3, policy={"kind": policy, "epsilon": 0.5} if policy == "priced"
            else {"kind": policy}, adversary={"kind": "coverage-drift"}))
        assert bench_module._groups(cfg, 1) == [range(3)]
        with pytest.raises(RuntimeError, match="^replica 1: core strategy failed on "
                                               "rounds 9-12: 'boom'$"):
            run_experiment(cfg, out_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("policy", [
    {"kind": "score"}, {"kind": "oftrl", "mode": "exact"}, {"kind": "semibandit"},
    {"kind": "priced"}, {"kind": "oftrl", "mode": "afw"},
])
def test_failing_core_strategy_names_the_round(policy, monkeypatch):
    real = Adversary.core_strategy

    def failing_on_call(fail_at):
        def core_strategy(self, rng):
            strategy, calls = real(self, rng), itertools.count(1)

            def flaky(f, b):
                if next(calls) == fail_at:
                    raise KeyError("boom")
                return strategy(f, b)

            return flaky

        return core_strategy

    # one call per run: coverage phases of 4 rounds (T = 40), and modular
    # runs of B rounds (n = 2000), one round of a one-round run
    B = block_rounds(2000)
    cases = [("coverage-drift", 6, fail_at, f"rounds {4 * fail_at - 3}-{4 * fail_at}")
             for fail_at in (1, 3)]
    cases += [("coverage-drift", 6, 2, "round 2")]
    cases += [("modular-random", 2000, fail_at,
               f"rounds {(fail_at - 1) * B + 1}-{fail_at * B}") for fail_at in (1, 3)]
    for adversary, n, fail_at, where in cases:
        adversary = {"kind": adversary}
        if where == "round 2":
            adversary["phases"] = 40
        cfg = ExperimentConfig.from_dict(base_config(policy=policy, n=n,
                                                     adversary=adversary))
        monkeypatch.setattr(Adversary, "core_strategy", failing_on_call(fail_at))
        with pytest.raises(RuntimeError, match=f"core strategy failed on {where}: 'boom'"):
            run_replica(cfg, 0)


@pytest.mark.parametrize("phase, where, matrix", [
    (3, "rounds 196-204", 3),  # rounds 196-260: the first block's last phase
    (4, "rounds 261-325", 1),  # the second block's second phase
    (6, "rounds 391-408", 3),  # rounds 391-450: fails in the block it starts in
])
def test_failing_matching_duals_name_their_phase_rounds(phase, where, matrix, monkeypatch):
    # n = 20: blocks of 204 rounds span the phases of 65 rounds
    cfg = ExperimentConfig.from_dict(base_config(
        n=20, k=10, T=450, replicas=1,
        adversary={"kind": "matching-random", "phases": 7}))
    # each phase's matrix, from the stream the replica draws
    adv = bench_module.adversary_from_config(cfg.adversary, cfg.n)
    mats, start = {}, 0
    for f, b in adv.rounds(cfg.T, bench_module._replica_rngs(cfg.seed, 0)["adversary"]):
        for t, p in enumerate(f.phase.tolist(), start):
            mats[t // 65] = f.w[p]
        start += b
    bad = mats[phase].tobytes()
    solve = corevec.linear_sum_assignment

    def solver(w):  # a non-optimal assignment for that phase's matrix only
        rows, cols = solve(w)
        return (rows, cols[::-1]) if w.tobytes() == bad else (rows, cols)

    monkeypatch.setattr(corevec, "linear_sum_assignment", solver)
    with pytest.raises(RuntimeError, match=f"core strategy failed on {where}: matrix "
                                           f"{matrix} of the stack: shortest-path potentials"):
        run_replica(cfg, 0)


def test_a_dual_solve_failing_in_one_lane_raises_what_its_replica_raises_alone(
        monkeypatch, tmp_path):
    # lane 1 of 3 gets a non-optimal assignment of its fourth phase matrix
    # (rounds 76-100): the joined call that holds it fails, and the lanes
    # redone one by one name replica 1 as run_replica does
    cfg = lane_config("score", 3, "matching-random", T=250, k=6)
    assert bench_module._groups(cfg, 1) == [range(3)]
    adv = bench_module.adversary_from_config(cfg.adversary, cfg.n)
    f, _ = next(adv.rounds(cfg.T, bench_module._replica_rngs(cfg.seed, 1)["adversary"]))
    bad = f.w[3].tobytes()
    solve = corevec.linear_sum_assignment

    def solver(w):
        rows, cols = solve(w)
        return (rows, cols[::-1]) if w.tobytes() == bad else (rows, cols)

    monkeypatch.setattr(corevec, "linear_sum_assignment", solver)
    with pytest.raises(RuntimeError) as alone:
        run_replica(cfg, 1)
    assert str(alone.value).startswith("replica 1: core strategy failed on rounds 76-100: "
                                       "matrix 3 of the stack: shortest-path potentials")
    with pytest.raises(RuntimeError) as group:
        run_experiment(cfg, out_dir=tmp_path)
    assert str(group.value) == str(alone.value)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("R, T, blocks, solves", [
    (6, 100, 1, 6 * 10),  # perfbench's score-matching: one block of 10 phases
    (3, 250, 2, 3 * (9 + 2)),  # phase 9 of 10 runs on into the second block
])
def test_a_lane_group_solves_each_phase_matrix_once_per_block(R, T, blocks, solves,
                                                             monkeypatch):
    # one strategy, duals, value and full_value call per block for the whole
    # group, and one full-matrix assignment per phase matrix per block: the
    # full-set values come from the duals' solves
    from coreselect import setfn

    cfg = ExperimentConfig.from_dict(base_config(
        n=20, k=10, T=T, replicas=R, adversary={"kind": "matching-random"}))
    assert bench_module._groups(cfg, 1) == [range(R)]
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    def solver(cost, solve=setfn.assignment_solver()):
        if cost.shape == (10, 10):  # a whole phase matrix, not a set's submatrix
            calls.append("full")
        return solve(cost)

    real_strategy = Adversary.core_strategy
    monkeypatch.setattr(setfn, "_solver", solver)
    monkeypatch.setattr(corevec, "hungarian_duals", counted("duals", corevec.hungarian_duals))
    monkeypatch.setattr(Adversary, "core_strategy",
                        lambda self, rng: counted("strategy", real_strategy(self, rng)))
    for name in ("value", "full_value"):
        monkeypatch.setattr(setfn.MatchingRewardFunction, name,
                            counted(name, getattr(setfn.MatchingRewardFunction, name)))
    run_replicas(cfg)
    for name in ("strategy", "duals", "value", "full_value"):
        assert calls.count(name) == blocks
    assert calls.count("full") == solves


@pytest.mark.parametrize("policy", [{"kind": "score"}, {"kind": "priced"}])
def test_a_failing_core_strategy_plays_none_of_its_block(
        policy, monkeypatch, tmp_path):
    real_core_strategy, real_step = Adversary.core_strategy, ScorePolicy.step
    played = []

    def core_strategy(self, rng):
        strategy, calls = real_core_strategy(self, rng), itertools.count(1)

        def flaky(f, b):
            if next(calls) == 7:
                raise KeyError("boom")
            return strategy(f, b)

        return flaky

    def step(self, gvec, hint=None):
        record = real_step(self, gvec, hint)
        played.append(list(record.t))
        return record

    monkeypatch.setattr(Adversary, "core_strategy", core_strategy)
    monkeypatch.setattr(ScorePolicy, "step", step)
    # coverage phases of 4 rounds, shorter than a block, are blocks of their
    # own, so the seventh strategy call reveals rounds 25-28
    cfg = ExperimentConfig.from_dict(base_config(
        policy=policy, replicas=1, adversary={"kind": "coverage-drift"}))
    assert cfg.T <= block_rounds(cfg.n)
    with pytest.raises(RuntimeError, match="core strategy failed on rounds 25-28: 'boom'"):
        run_experiment(cfg, out_dir=tmp_path)
    # the six blocks before it are played, and the failing block is not
    assert played == [list(range(first, first + 4)) for first in range(1, 25, 4)]
    assert not (tmp_path / "replica_0.csv").exists()


def test_a_lane_group_joins_no_more_than_one_plan_block_of_large_matching_rewards(
        monkeypatch):
    # 4 semi-bandit lanes at m = 100: each lane's block of 81 rounds is a
    # stack of 9 phase matrices, 90000 cells, past PLAN_CELLS, so no lanes
    # join.  The group's tracemalloc peak stays within 1 MiB (8 arrays of
    # PLAN_CELLS floats) of the same group revealed lane by lane; joined
    # whole, the dual solve's (36, 100, 100) arrays alone would take
    # 2.9 MB each
    import tracemalloc

    cfg = ExperimentConfig.from_dict(base_config(
        n=200, k=10, T=81, replicas=4, policy={"kind": "semibandit"},
        adversary={"kind": "matching-random", "phases": 9}))
    assert bench_module._groups(cfg, 1) == [range(4)]
    run_replicas(cfg)  # loads what the run needs before it is measured
    real, peaks = bench_module._joins, []
    tracemalloc.start()
    try:
        for joins in (lambda rewards, b, k: [], real):
            monkeypatch.setattr(bench_module, "_joins", joins)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run_replicas(cfg)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 8 * 8 * bench_module.PLAN_CELLS


def test_an_exact_optimistic_replica_retains_at_most_1_byte_per_round():
    # the slope of tracemalloc's peak between two horizons, both past one
    # block of 204 rounds at n = 12: the hints' squared sup-distances fold
    # into one running sum, so nothing is kept per round
    import tracemalloc

    horizons, peaks = (2000, 6000), []
    tracemalloc.start()
    try:
        for T in horizons:
            cfg = ExperimentConfig.from_dict(base_config(
                n=12, k=4, T=T, replicas=1, policy={"kind": "oftrl", "mode": "exact"},
                hints={"mode": "additive-noise", "noise_l2": 0.5}))
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run_replica(cfg, 0)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / (horizons[1] - horizons[0]) <= 1.0


def test_coverage_hint_distances_come_from_tables_within_a_block(monkeypatch):
    # a coverage run tabulates its hints over all 2^n subsets, at most
    # PLAN_CELLS entries at a time (one hint's table where that is larger),
    # with the bits of distance_sup one hint at a time
    from coreselect import setfn
    from coreselect.adversary import random_coverage
    from coreselect.blocks import PLAN_CELLS
    from coreselect.setfn import distance_sup

    real, tables = setfn.subset_table, []

    def subset_table(rows, op):
        tables.append(rows.shape)
        return real(rows, op)

    monkeypatch.setattr(setfn, "subset_table", subset_table)
    rng = np.random.default_rng(11)
    for n, b in ((3, 30), (12, 10), (15, 3)):
        f = random_coverage(n, 3 * n, rng)
        hints = rng.normal(size=(b, n)) * 2.0
        hints[0] = f.values_all()[1 << np.arange(n)]  # f on each singleton
        want = 1.5  # a prior total, then each square added in round order
        for h in hints:
            want += distance_sup(f, h) ** 2
        result, tables = bench_module.ReplicaResult(None, 1.5), []
        bench_module._log_sq_distances(result, f, hints, 7)
        assert result.sq_sum == want
        assert sum(rows for rows, _ in tables) == b
        assert all(rows * 2 ** n <= max(PLAN_CELLS, 2 ** n) for rows, _ in tables)
    # past 16 elements a coverage run has no tables: the sum stops
    result, tables = bench_module.ReplicaResult(None, 1.5), []
    bench_module._log_sq_distances(result, random_coverage(17, 34, rng), np.zeros((2, 17)), 0)
    assert result.sq_sum is None and tables == []
    # a non-finite hint is refused, and a square past the float range names its round
    f = random_coverage(4, 8, rng)
    for bad, error in ((np.nan, "the hints contain non-finite entries"),
                       (1e200, "^round 9: the squared sup-distance of the hint")):
        hints = np.zeros((3, 4))
        hints[1, 2] = bad
        with pytest.raises(ValueError, match=error):
            bench_module._log_sq_distances(bench_module.ReplicaResult(None, 1.5), f, hints, 7)


def test_modular_hint_distances_come_a_run_at_a_time():
    # a modular run's gaps come from distance_sup on its (b, n) rows at once,
    # each with the bits of its row alone, and their squares, Python's
    # gap ** 2, add to the running sum in round order, with ties of the
    # positive and negative sums, all-zero rows and scales from 1e-300 to 1e150
    from coreselect.setfn import MatchingRewardFunction, ModularFunction, distance_sup

    rng = np.random.default_rng(12)
    for n, b in ((1, 5), (6, 40), (16, 204)):
        for scale in (1e-300, 1e-150, 1.0, 1e150):
            w = rng.random((b, n)) * scale
            hints = w + rng.normal(size=(b, n)) * scale
            hints[0] = w[0]  # a perfect hint: an all-zero gap row
            hints[1] = 0.0
            w[1] = 0.0       # an all-zero reward and hint
            if n > 1:        # gaps of +1 and -1 scale: tied sums
                hints[2] = w[2]
                hints[2, 0] += scale
                hints[2, 1] -= scale
            f = ModularFunction(w)
            gaps = distance_sup(f, hints)
            want = [distance_sup(ModularFunction(wi), h)
                    for wi, h in zip(w, hints)]
            assert gaps.tolist() == want
            result = bench_module.ReplicaResult(None, 1.5)
            bench_module._log_sq_distances(result, f, hints, 3)
            total = 1.5  # a prior total, then each square added in round order
            for gap in want:
                total += gap ** 2
            assert result.sq_sum == total
    # a square, or a sum of squares, past the float range names its round,
    # with no numpy warning
    hints = np.zeros((3, 4))
    hints[1, 2] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^round 9: the squared sup-distance of the hint"):
            bench_module._log_sq_distances(bench_module.ReplicaResult(None, 1.5),
                                           ModularFunction(np.zeros((3, 4))), hints, 7)
        hints[1, 2] = 1e154  # its square is finite, the prior total plus it is not
        with pytest.raises(ValueError, match="^round 9: .* or the sum of such squares, "
                                             "overflows"):
            bench_module._log_sq_distances(bench_module.ReplicaResult(None, 1.7e308),
                                           ModularFunction(np.zeros((3, 4))), hints, 7)
    # any other reward stops the sum
    result = bench_module.ReplicaResult(None, 1.5)
    bench_module._log_sq_distances(result, MatchingRewardFunction(np.ones((2, 2))),
                                   np.zeros((3, 4)), 0)
    assert result.sq_sum is None


def test_a_modular_optimistic_run_at_n1000_reports_its_bound():
    # the n1000-T40 golden config: blocks of 16, 16 and 8 rounds at n = 1000,
    # each gap squared and added in round order, from the replica's own
    # reward and hint streams
    from coreselect.adversary import adversary_from_config, generate_hints
    from coreselect.setfn import ModularFunction, distance_sup

    raw = {"schema": 1, "n": 1000, "k": 50, "T": 40, "seed": 7, "replicas": 1,
           "policy": {"kind": "oftrl", "mode": "exact"},
           "adversary": {"kind": "modular-random"},
           "hints": {"mode": "additive-noise", "noise_l2": 0.5}}
    cfg = ExperimentConfig.from_dict(raw)
    summary = run_experiment(cfg)
    rngs = bench_module._replica_rngs(cfg.seed, 0)
    adv = adversary_from_config(cfg.adversary, cfg.n)
    strategy = adv.core_strategy(rngs["strategy"])
    total, rounds = 0.0, 0
    for f, b in adv.rounds(cfg.T, rngs["adversary"]):
        hints = generate_hints(strategy(f, b), cfg.hints, rngs["hints"])
        for w, h in zip(f.w, hints):
            total += distance_sup(ModularFunction(w), h) ** 2
            rounds += 1
    assert rounds == cfg.T and total > 0.0
    assert summary["bounds"]["optimistic"] == 12.0 * cfg.k * math.sqrt(total)
    assert summary["bounds"]["optimistic_ratio"] == (
        summary["aug_regret"]["mean"] / summary["bounds"]["optimistic"])


def test_an_overflowing_sum_of_squared_distances_names_its_round(tmp_path, capsys):
    # each square is finite, and their sum passes the float range at round
    # 14: a ValueError naming it, not an infinite bound, and no CSV left
    raw = {"schema": 1, "n": 12, "k": 4, "T": 40, "seed": 7, "replicas": 1,
           "policy": {"kind": "oftrl", "mode": "exact"},
           "adversary": {"kind": "modular-random"},
           "hints": {"mode": "additive-noise", "noise_l2": 2e153}}
    message = "round 14: the squared sup-distance of the hint from the reward, or the sum"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^" + message):
            run_experiment(ExperimentConfig.from_dict(raw))
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg_path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not list(out.glob("*.csv")) and not (out / "summary.json").exists()


def test_a_failed_run_leaves_no_directory_it_made(tmp_path, monkeypatch, capsys):
    # the overflowing config above fails at round 14: the output directories
    # the run made go with its files; one that was there before stays, with
    # what it holds
    raw = {"schema": 1, "n": 12, "k": 4, "T": 40, "seed": 7, "replicas": 1,
           "policy": {"kind": "oftrl", "mode": "exact"},
           "adversary": {"kind": "modular-random"},
           "hints": {"mode": "additive-noise", "noise_l2": 2e153}}
    (tmp_path / "cfg.json").write_text(json.dumps(raw))
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", "cfg.json", "--out", "tmp/a/b"]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]
    kept = tmp_path / "tmp"
    kept.mkdir()
    (kept / "notes.txt").write_text("kept\n")
    for out in ("tmp/a/b", "tmp"):
        assert main(["run", "--config", "cfg.json", "--out", out]) == 2
        assert sorted(p.name for p in kept.iterdir()) == ["notes.txt"]
    assert (kept / "notes.txt").read_text() == "kept\n"
    assert "round 14" in capsys.readouterr().err


@pytest.mark.parametrize("args, path", [
    (["--config", "made"], "made"),
    (["--config", "cfg.json", "--out", "cfg.json"], "cfg.json"),
    (["--config", "cfg.json", "--out", "cfg.json/sub"], "cfg.json/sub"),
], ids=["config-is-a-directory", "out-is-a-file", "out-under-a-file"])
def test_cli_run_names_a_path_it_cannot_use(args, path, tmp_path, monkeypatch, capsys):
    # a config path that is a directory, or an output path that is or runs
    # through a file, ends in an error line naming it, not a traceback
    raw = json.dumps(base_config(replicas=1, T=10))
    (tmp_path / "cfg.json").write_text(raw)
    (tmp_path / "made").mkdir()
    monkeypatch.chdir(tmp_path)
    assert main(["run", *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(path) in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "made"]
    assert (tmp_path / "cfg.json").read_text() == raw


def test_cli_sweep_names_a_value_that_is_no_number(tmp_path, capsys):
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "sweep.csv"
    cfg_path.write_text(json.dumps(base_config(replicas=1, T=20)))
    assert main(["sweep", "--config", str(cfg_path), "--axis", "T", "--values", "10,x",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --values: 'x' is not a number\n"
    assert not out.exists()


def test_cli_sweep_makes_the_folders_of_its_out_path(tmp_path):
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "made" / "deeper" / "sweep.csv"
    cfg_path.write_text(json.dumps(base_config(replicas=1, T=20)))
    assert main(["sweep", "--config", str(cfg_path), "--axis", "T", "--values", "10,20",
                 "--out", str(out)]) == 0
    assert out.read_text().startswith("axis,value,")


@pytest.mark.parametrize("where", ["a directory", "under a file"])
def test_cli_sweep_names_an_out_path_it_cannot_write_before_it_runs(where, tmp_path, capsys,
                                                                    monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(replicas=1, T=20)))
    if where == "a directory":
        out = tmp_path / "sweep.csv"
        out.mkdir()
    else:
        out = tmp_path / "file" / "sweep.csv"
        out.parent.write_text("")
    runs = []
    monkeypatch.setattr(bench_module, "run_experiment", lambda *args, **kw: runs.append(args))
    assert main(["sweep", "--config", str(cfg_path), "--axis", "T", "--values", "10,20",
                 "--out", str(out)]) == 2
    assert runs == [] and str(out) in capsys.readouterr().err
    top = out.relative_to(tmp_path).parts[0]  # sweep.csv, or the file above it
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", top]


def test_sweep_rows_and_file(tmp_path):
    cfg = ExperimentConfig.from_dict(base_config(replicas=1, T=20))
    rows = sweep(cfg, "T", [10, 20, 20.0], out_path=tmp_path / "sweep.csv")
    assert [r["value"] for r in rows] == [10, 20, 20.0]
    assert rows[2] == rows[1]  # an integral float runs as its int
    text = (tmp_path / "sweep.csv").read_text()
    assert text.startswith("axis,value,")
    assert len(text.strip().split("\n")) == 4
    with pytest.raises(ValueError):
        sweep(cfg, "bogus", [1])
    # axis values pass the same validation as the config file
    with pytest.raises(ValueError, match="cost must be finite and positive"):
        sweep(cfg, "C", [0.0])


@pytest.mark.parametrize("axis, text, message", [
    ("T", "20.7", "T must be an integer, got 20.7"),
    ("k", "2.5", "k must be an integer, got 2.5"),
    ("T", "1e400", "T must be an integer, got inf"),
    ("T", "nan", "T must be an integer, got nan"),
    ("T", "0", "T must be >= 1, got 0"),
])
def test_sweep_names_a_count_axis_value_that_is_no_count(axis, text, message, tmp_path,
                                                         capsys):
    # a count axis takes an integral float as its int, and runs nothing else
    cfg = ExperimentConfig.from_dict(base_config(replicas=1, T=20))
    with pytest.raises(ValueError, match=re.escape(message)):
        sweep(cfg, axis, [float(text)])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(replicas=1, T=20)))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg_path), "--axis", axis, "--values", text,
                 "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_sweep_noise_axis_uses_hints():
    cfg = ExperimentConfig.from_dict(base_config(
        policy={"kind": "oftrl"}, adversary={"kind": "coverage-drift"},
        replicas=1, T=30))
    rows = sweep(cfg, "noise_l2", [0.0, 0.5])
    # noiseless hints make the optimistic learner strictly better (or equal)
    assert rows[0]["aug_regret_mean"] <= rows[1]["aug_regret_mean"] + 1e-6


def test_lower_bound_experiment_small():
    res = lower_bound_experiment(n=6, k=2, T=300, replicas=12, seed=1)
    assert res["within_4se"]


def test_lower_bound_needs_two_replicas():
    # one replica has no standard error, so the 4-SE check would pass vacuously
    with pytest.raises(ValueError, match="at least 2 replicas"):
        lower_bound_experiment(n=6, k=2, T=50, replicas=1)
    assert main(["lower-bound", "--n", "5", "--k", "2", "--T", "50", "--replicas", "1"]) == 2


def test_sweep_horizon_scaling_is_square_root():
    cfg = ExperimentConfig.from_dict(base_config(
        n=10, k=3, T=1000, replicas=8,
        adversary={"kind": "modular-random", "G": 1.0}))
    rows = sweep(cfg, "T", [1000, 4000, 16000])
    means = [r["static_regret_mean"] for r in rows]
    slope = float(np.polyfit(np.log([1000, 4000, 16000]), np.log(means), 1)[0])
    assert 0.4 <= slope <= 0.6


def test_sweep_observation_rate_tradeoff():
    # regret falls and spend rises with the observation rate; the tuned rate
    # sits in the valley of their sum
    cfg = ExperimentConfig.from_dict(base_config(
        T=2000, replicas=6, policy={"kind": "priced", "cost": 1.0},
        adversary={"kind": "modular-drift", "G": 1.0, "phases": 1, "jitter": 0.15}))
    from coreselect.policy import priced_epsilon

    tuned = priced_epsilon(6, 2, 2000, 1.0, 1.0)
    rows = sweep(cfg, "epsilon", [tuned / 64, tuned / 8, tuned, min(1.0, 8 * tuned)])
    totals = [r["total_mean"] for r in rows]
    regrets = [r["static_regret_mean"] for r in rows]
    assert totals[0] > totals[2] and totals[-1] > totals[2]
    assert totals[2] <= 1.25 * min(totals)
    assert regrets[0] > regrets[2] > regrets[-1]  # observing more learns more


def test_verify_all_passes_and_detects_injected_fault():
    results = verify_all(max_n=6)
    assert all(r.passed for r in results)

    def broken_projection(y, k):
        p = euclidean_project(y, k)
        if p.size >= 2:
            p[0], p[1] = p[1], p[0]  # wrong but still feasible
        return p

    def raising_projection(y, k):
        raise InfeasiblePointError("NaN or coordinate outside [0, 1]")

    for fault, detail in ((broken_projection, "mismatch"), (raising_projection, "raised")):
        results = verify_all(max_n=6, projection_fn=fault)
        by_name = {r.name: r for r in results}
        assert not by_name["projection-vs-active-set-enumeration"].passed
        assert detail in by_name["projection-vs-active-set-enumeration"].detail


@pytest.mark.parametrize("max_n", [3, 4, 6])
def test_verify_builds_no_reward_past_max_n(max_n, monkeypatch, capsys):
    from coreselect.setfn import SetFunction

    sizes, init = [], SetFunction.__init__

    def counted(self, n, *args, **kwargs):
        sizes.append(n)
        init(self, n, *args, **kwargs)

    monkeypatch.setattr(SetFunction, "__init__", counted)
    results = verify_all(max_n=max_n)
    assert all(r.passed for r in results), [r for r in results if not r.passed]
    assert sizes and max(sizes) <= max_n
    assert main(["verify", "--max-n", str(max_n)]) == 0
    assert "13/13 checks passed" in capsys.readouterr().out


def test_verify_shapley_builds_only_the_instances_it_checks(monkeypatch):
    # the Shapley check draws the first two of the four coverage instances of
    # the marginal check, bit for bit, and builds no more
    from coreselect import verify

    rng = np.random.default_rng(5)
    want = [f.values_all() for f in verify._random_submodular_instances(rng, 12)[:2]]
    built, real = [], verify.random_coverage

    def counted(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(verify, "random_coverage", counted)
    assert verify._check_shapley(np.random.default_rng(5), 12).passed
    assert [f.values_all().tobytes() for f in built] == [v.tobytes() for v in want]


def test_cli_verify_and_lower_bound(capsys):
    assert main(["verify", "--max-n", "4"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert main(["lower-bound", "--n", "5", "--k", "2", "--T", "200",
                 "--replicas", "8"]) == 0


def test_cli_run_and_sweep(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(T=15, replicas=1)))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "replica_0.csv").exists()
    assert main(["sweep", "--config", str(cfg_path), "--axis", "T",
                 "--values", "10,20", "--out", str(tmp_path / "sweep.csv")]) == 0
    assert (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("policy, n, T, phases", [
    ("score", 32, 40, None), ("semibandit", 64, 40, None),
    ("score", 2000, 20, 1), ("semibandit", 2000, 20, 1),
])
def test_cli_runs_coverage_past_63_items(policy, n, T, phases, tmp_path):
    # coverage-drift's universe is 2n: 64, 128 and 4000 items
    adversary = {"kind": "coverage-drift"}
    if phases is not None:
        adversary["phases"] = phases
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(
        n=n, k=5, T=T, replicas=1, policy={"kind": policy}, adversary=adversary)))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "replica_0.csv").read_text().splitlines()
    assert len(rows) == T + 1


POLICY_FIELD_RULES = {"cost": "finite and positive", "sigma": "finite and positive",
                      "epsilon": "finite and in (0, 1]", "eta": "finite"}


@pytest.mark.parametrize("policy", [
    {"kind": "priced", "cost": 0},
    {"kind": "priced", "cost": -1},
    {"kind": "priced", "cost": float("inf")},
    {"kind": "priced", "cost": 1e-300},  # its square underflows to 0
    {"kind": "oftrl", "sigma": -1},
    {"kind": "oftrl", "sigma": 0},
    {"kind": "oftrl", "sigma": float("nan")},
    {"kind": "priced", "epsilon": -1},
    {"kind": "priced", "epsilon": 0},
    {"kind": "priced", "epsilon": 1.5},
    {"kind": "priced", "epsilon": float("nan")},
    {"kind": "priced", "cost": "x"},
    {"kind": "priced", "cost": True},
    {"kind": "score", "eta": "x"},
    {"kind": "score", "eta": float("nan")},
    {"kind": "score", "eta": float("inf")},
])
def test_config_rejects_nonpositive_cost_and_sigma(policy):
    (field, value), = [(key, v) for key, v in policy.items() if key != "kind"]
    rule = "a number" if isinstance(value, (str, bool)) else POLICY_FIELD_RULES[field]
    with pytest.raises(ValueError, match=re.escape(f"{field} must be {rule}")):
        ExperimentConfig.from_dict(base_config(policy=policy))


@pytest.mark.parametrize("overrides, message", [
    pytest.param({"M": float("nan")}, "M must be finite and >= 0", id="M-nan"),
    pytest.param({"M": -1}, "M must be finite and >= 0", id="M-negative"),
    pytest.param({"M": "1"}, "M must be a number", id="M-string"),
    pytest.param({"G": -1}, "G must be finite and positive", id="G-negative"),
    pytest.param({"G": 0}, "G must be finite and positive", id="G-zero"),
    pytest.param({"G": float("inf")}, "G must be finite and positive", id="G-inf"),
    pytest.param({"G": True}, "G must be a number", id="G-bool"),
    pytest.param({"alpha": 0.5}, "alpha must be finite and >= 1", id="alpha-half"),
    pytest.param({"alpha": float("nan")}, "alpha must be finite and >= 1", id="alpha-nan"),
    pytest.param({"T": 2.5}, "T must be an integer", id="T-float"),
    pytest.param({"T": 0}, "T must be >= 1, got 0", id="T-zero"),
    pytest.param({"replicas": "2"}, "replicas must be an integer", id="replicas-string"),
    pytest.param({"n": True}, "n must be an integer", id="n-bool"),
    pytest.param({"seed": 1.0}, "seed must be an integer", id="seed-float"),
    pytest.param({"seed": -1}, "seed must be >= 0", id="seed-negative"),
    pytest.param({"policy": {"kind": "oftrl"},
                  "hints": {"mode": "additive-noise", "noise_l2": "x"}},
                 "noise_l2 must be a number", id="noise_l2-string"),
    pytest.param({"policy": {"kind": "oftrl"},
                  "hints": {"mode": "additive-noise", "noise_l2": float("nan")}},
                 "noise_l2 must be finite and >= 0", id="noise_l2-nan"),
])
def test_config_rejects_bad_top_level_fields(overrides, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentConfig.from_dict(base_config(**overrides))


def test_cli_rejects_zero_cost(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(T=15, replicas=1, policy={"kind": "priced"})))
    assert main(["sweep", "--config", str(cfg_path), "--axis", "C", "--values", "0"]) == 2
    cfg_path.write_text(json.dumps(base_config(T=15, replicas=1,
                                               policy={"kind": "priced", "cost": 0})))
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert "cost must be finite and positive" in capsys.readouterr().err
    cfg_path.write_text(json.dumps(base_config(T=15, replicas=1,
                                               policy={"kind": "priced", "cost": "x"})))
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert "cost must be a number" in capsys.readouterr().err


def test_cli_run_checks_its_overrides(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(T=15, replicas=1)))
    assert main(["run", "--config", str(cfg_path), "--replicas", "0"]) == 2
    assert "replicas must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("adversary, message", [
    pytest.param({"kind": "modular-random", "G": "x"}, "G must be a number",
                 id="G-string"),
    pytest.param({"kind": "coverage-drift", "universe": "x"},
                 "universe must be an integer", id="universe-string"),
    pytest.param({"kind": "coverage-drift", "phases": "x"},
                 "phases must be an integer", id="phases-string"),
    pytest.param({"kind": "modular-random", "G": 0}, "G must be finite and positive",
                 id="G-zero"),
    pytest.param({"kind": "matching-random", "w_max": 0},
                 "w_max must be finite and positive", id="w_max-zero"),
    pytest.param({"kind": "modular-drift", "phases": 0}, "phases must be >= 1",
                 id="phases-zero"),
    pytest.param({"kind": "modular-random", "G": -1}, "G must be finite and positive",
                 id="G-negative"),
    pytest.param({"kind": "matching-random", "w_max": -1},
                 "w_max must be finite and positive", id="w_max-negative"),
    pytest.param({"kind": "coverage-drift", "density": -1},
                 "density must be finite and in (0, 1]", id="density-negative"),
    pytest.param({"kind": "coverage-drift", "density": 0},
                 "density must be finite and in (0, 1]", id="density-zero"),
    pytest.param({"kind": "modular-drift", "jitter": float("nan")},
                 "jitter must be finite and >= 0", id="jitter-nan"),
])
def test_cli_run_names_bad_adversary_values(adversary, message, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(T=5, replicas=1, adversary=adversary)))
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("config, message", [
    pytest.param(base_config(n=10**22, T=3, replicas=1),
                 "n must be <= 9223372036854775807", id="n-modular-random"),
    pytest.param(base_config(n=10**19, T=3, replicas=1,
                             adversary={"kind": "onehot-ensemble"}),
                 "n must be <= 9223372036854775807", id="n-onehot"),
    pytest.param(base_config(n=2**63, T=3, replicas=1),
                 "n must be <= 9223372036854775807", id="n-past-intp"),
    pytest.param(base_config(T=3, replicas=1,
                             adversary={"kind": "coverage-drift", "universe": 10**22}),
                 "universe must be <= 9223372036854775807", id="universe"),
    pytest.param(base_config(T=10**19, replicas=1, adversary={"kind": "onehot-ensemble"}),
                 "T must be <= 9223372036854775807", id="T-onehot"),
    pytest.param(base_config(T=3, replicas=10**22),
                 "replicas must be <= 9223372036854775807", id="replicas"),
])
def test_cli_run_names_sizes_no_array_can_hold(config, message, tmp_path, capsys):
    # sizes an array can hold but memory cannot (n = 10**11 asks for about
    # 745 GiB) are out of reach of a test
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("adversary, policy, noise_l2, error", [
    pytest.param("modular-random", {"sigma": 1e-160}, 0.5, None, id="sigma-1e-160"),
    pytest.param("modular-random", {"sigma": 1e-300}, 0.5, None, id="sigma-1e-300"),
    pytest.param("onehot-ensemble", {}, 1e-160, None, id="noise_l2-1e-160"),
    # the weight 1e-320 is subnormal, and the scores over it overflow
    pytest.param("modular-random", {"sigma": 1e-310}, 1e-10,
                 "round 2: the exact proposal failed at regularizer weight 1e-320",
                 id="sigma-1e-310"),
])
def test_cli_run_names_a_tiny_regularizer_weight(adversary, policy, noise_l2, error,
                                                 tmp_path, capsys):
    # the exact optimistic proposal projects the scores over the weight,
    # sigma times the hint errors: near 1e-160 that is the top-k vertex,
    # which it finds at any scale, as AFW mode does; only scores past the
    # float range fail, with an error naming the round, sigma and noise_l2
    raw = base_config(T=3, replicas=1, seed=0,
                      policy={"kind": "oftrl", "mode": "exact", **policy},
                      adversary={"kind": adversary},
                      hints={"mode": "additive-noise", "noise_l2": noise_l2})
    cfg_path = tmp_path / "cfg.json"
    for mode in ("exact", "afw"):
        raw["policy"]["mode"] = mode
        cfg_path.write_text(json.dumps(raw))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main(["run", "--config", str(cfg_path)])
        err = capsys.readouterr().err
        if mode == "exact" and error is not None:
            assert code == 2, err
            assert error in err and "y contains non-finite entries" in err, err
            assert "sigma" in err and "noise_l2" in err
        else:
            assert code == 0, err


def test_subnormal_regularizer_weight_fails_without_a_warning():
    # scores over a subnormal weight overflow: the named error, and no
    # numpy warning before it
    cfg = ExperimentConfig.from_dict(base_config(
        n=6, k=2, T=3, replicas=1, seed=0,
        policy={"kind": "oftrl", "mode": "exact", "sigma": 1e-310},
        hints={"mode": "additive-noise", "noise_l2": 1e-10}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="round 2: the exact proposal failed at "
                                             "regularizer weight 1e-320 .* non-finite"):
            run_replica(cfg, 0)


@pytest.mark.parametrize("mode", ["exact", "afw"])
def test_an_overflowing_regularizer_weight_names_its_round(mode):
    # sigma 1e300 times a hint error near 1e10 is past the float range: the
    # schedule names the round whose update overflows, in either mode, and
    # no numpy warning comes before it
    cfg = ExperimentConfig.from_dict(base_config(
        n=6, k=2, T=5, replicas=1, seed=0, adversary={"kind": "modular-random"},
        policy={"kind": "oftrl", "mode": mode, "sigma": 1e300},
        hints={"mode": "additive-noise", "noise_l2": 1e10}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^round 1: the regularizer weight overflows "
                                             "the float range \\(policy sigma 1e\\+300 times "
                                             "the hint errors, which hints noise_l2 sets\\)$"):
            run_replica(cfg, 0)


def test_an_underflowing_afw_tolerance_names_its_round():
    # AFW's tolerance is sigma times round 1's hint error over 200 G**2 T**2:
    # at sigma 1e-310 and T = 5 it is 0 (at T = 3 it is the least subnormal,
    # and the run completes).  The error names the round, sigma, G and T,
    # and the exact mode does not read the tolerance
    raw = base_config(n=6, k=2, T=5, replicas=1, seed=0,
                      policy={"kind": "oftrl", "mode": "afw", "sigma": 1e-310},
                      hints={"mode": "additive-noise", "noise_l2": 1e-10})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^round 1: AFW's tolerance \\(policy sigma 1e-310 "
                                             "times the hint error over 200 \\* G\\*\\*2 \\* "
                                             "T\\*\\*2, G = 1, T = 5\\) leaves the float "
                                             "range: got 0.0$"):
            run_replica(ExperimentConfig.from_dict(raw), 0)
    raw["policy"]["mode"] = "exact"
    with pytest.raises(ValueError, match="^round 2: the exact proposal failed"):
        run_replica(ExperimentConfig.from_dict(raw), 0)


@pytest.mark.parametrize("policy", ["score", "semibandit", "priced"])
def test_an_overflowing_eta_fails_without_a_warning(policy):
    # eta * theta past the float range: the argmax's named error, and no
    # numpy warning before it, from a block and from the semi-bandit's rounds
    # (an explicit epsilon, so that the priced rate is not clamped)
    pol = {"kind": policy, "eta": 1e306, **({"epsilon": 0.5} if policy == "priced" else {})}
    cfg = ExperimentConfig.from_dict(base_config(
        n=6, k=2, T=400, replicas=2, policy=pol,
        adversary={"kind": "modular-random", "G": 100.0}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="eta \\* theta overflows the float range"):
            run_experiment(cfg)


@pytest.mark.parametrize("overrides, error", [
    ({"adversary": {"kind": "modular-drift", "jitter": 1e308}},
     "their squares overflow \\(modular-drift jitter \\* G too large\\)"),
    ({"policy": {"kind": "priced", "cost": 1e308}},
     "^round 2: the summed price paid \\(policy cost too large\\) overflows"),
], ids=["jitter", "cost"])
def test_sums_past_the_float_range_fail_without_a_warning(overrides, error):
    cfg = ExperimentConfig.from_dict(base_config(T=3, replicas=1, **overrides))
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "priced observation rate", UserWarning)
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=error):
            run_experiment(cfg)


def _without(key):
    raw = base_config(T=5, replicas=1)
    del raw[key]
    return raw


@pytest.mark.parametrize("raw, message", [
    pytest.param(base_config(T=5, replicas=1, policy=5), "policy must be a JSON object",
                 id="policy-number"),
    pytest.param(base_config(T=5, replicas=1, adversary=5),
                 "adversary must be a JSON object", id="adversary-number"),
    pytest.param(base_config(T=5, replicas=1, hints=5), "hints must be a JSON object",
                 id="hints-number"),
    pytest.param(_without("policy"), "config is missing required keys: ['policy']",
                 id="policy-missing"),
    pytest.param(_without("adversary"), "config is missing required keys: ['adversary']",
                 id="adversary-missing"),
    pytest.param([1, 2], "config must be a JSON object", id="top-level-list"),
])
def test_cli_run_names_bad_config_blocks(raw, message, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert message in capsys.readouterr().err


BOUNDARY_POLICIES = ({"kind": "score"}, {"kind": "semibandit"}, {"kind": "priced"},
                     {"kind": "oftrl", "mode": "exact"}, {"kind": "oftrl", "mode": "afw"})
BOUNDARY_ADVERSARIES = ("onehot-ensemble", "modular-random", "modular-drift",
                        "coverage-drift", "matching-random")
# every numeric field of a config, by the block that holds it
NUMERIC_FIELDS = {None: ("n", "k", "T", "seed", "replicas", "alpha", "M", "G"),
                  "policy": ("eta", "sigma", "epsilon", "cost"),
                  "hints": ("noise_l2",),
                  "adversary": ("G", "w_max", "jitter", "density", "phases", "universe")}
# 1e154 squares to a finite float; 10**400 is an integer no float holds;
# 1e-160 and 1e-300 as sigma or noise_l2 make the exact proposal project
# scores near 1e160 and past
CORRUPT_VALUES = ("x", True, float("nan"), -1, 0, 1e308, 1e154, 10**400, 1e-160, 1e-300)


def boundary_cases():
    """(config, the fields the case sets) for every policy kind and mode
    crossed with every adversary kind: n in {1, 2, 31, 32, 2000} with k in
    {1, n - 1, n} and T = 1, eta left out or (at n <= 32) 1e-300 or 1e300;
    then, at n = 6, k = 2 and T = 3, each numeric field set to each of
    ``CORRUPT_VALUES``."""
    for policy, kind in itertools.product(BOUNDARY_POLICIES, BOUNDARY_ADVERSARIES):
        for n in (1, 2, 31, 32, 2000):
            for k, eta in itertools.product(sorted({1, n - 1, n} - {0}),
                                            (None, 1e-300, 1e300) if n <= 32 else (None,)):
                pol = policy if eta is None else {**policy, "eta": eta}
                yield base_config(n=n, k=k, T=1, replicas=1, policy=pol,
                                  adversary={"kind": kind}), {"n", "k", "eta"}
        for (block, names), value in itertools.product(NUMERIC_FIELDS.items(), CORRUPT_VALUES):
            for name in names:
                raw = base_config(T=3, replicas=1, policy=dict(policy),
                                  adversary={"kind": kind},
                                  hints={"mode": "additive-noise", "noise_l2": 0.5})
                (raw if block is None else raw[block])[name] = value
                yield raw, {name}


def test_every_reachable_config_runs_or_exits_2_naming_its_field(tmp_path, capsys):
    failures = []
    # each case gets a new file: rewriting one file thousands of times is
    # slow where the file system flushes a file truncated and written again
    for i, (raw, names) in enumerate(boundary_cases()):
        cfg_path = tmp_path / f"cfg-{i}.json"
        cfg_path.write_text(json.dumps(raw))
        try:
            with warnings.catch_warnings():
                # the clamped priced rate only; a numpy warning fails the case
                warnings.filterwarnings("ignore", "priced observation rate", UserWarning)
                code = main(["run", "--config", str(cfg_path)])
        except Exception as exc:  # a traceback, not an exit status
            capsys.readouterr()
            failures.append((raw, f"{type(exc).__name__}: {exc}"))
            continue
        err = capsys.readouterr().err
        named = any(re.search(rf"\b{name}\b", err) for name in names)
        if not (code == 0 or code == 2 and named):
            failures.append((raw, f"exit {code}: {err.strip()}"))
    assert not failures, f"{len(failures)} cases, the first: {failures[:5]}"


def test_priced_rate_clamp_warns_once_per_replica():
    cfg = ExperimentConfig.from_dict(base_config(
        T=10, replicas=2, policy={"kind": "priced", "cost": 0.1}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_experiment(cfg)
    clamps = [w for w in caught if "priced observation rate" in str(w.message)]
    assert len(clamps) == cfg.replicas


def test_check_result_shape():
    r = CheckResult("x", True, "ok")
    assert r.name == "x" and r.passed and r.detail == "ok"


def test_policy_block_validation():
    with pytest.raises(ValueError):
        PolicyBlock("score", mode="bogus")


def _run_fresh(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter on this package."""
    src = str(Path(coreselect.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True).stdout


def test_matching_loads_the_assignment_solver_without_scipy_optimize(tmp_path):
    # fresh interpreters: this one may have loaded scipy.optimize already
    def fresh(*lines):
        return _run_fresh("\n".join(["import sys", *lines])).split()

    # an adversary on matching rewards loads the solver while it is built
    assert fresh(
        "import coreselect, coreselect.cli",
        "from coreselect import setfn",
        "print(setfn._solver is None, 'scipy.optimize._lsap' in sys.modules)",
        "from coreselect.adversary import adversary_from_config",
        "adversary_from_config({'kind': 'matching-random'}, 4)",
        "print(setfn._solver is None, 'scipy.optimize._lsap' in sys.modules)",
        "print('scipy.optimize' in sys.modules)",
    ) == ["True", "False", "False", "True", "False"]
    # neither a run on matching rewards nor the verify suite loads scipy.optimize
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(
        T=5, replicas=1, adversary={"kind": "matching-random"})))
    assert fresh(
        "import contextlib, io",
        "from coreselect.cli import main",
        "with contextlib.redirect_stdout(io.StringIO()):",
        f"    run = main(['run', '--config', {str(cfg_path)!r}, '--out', {str(tmp_path)!r}])",
        "    after_run = 'scipy.optimize' in sys.modules",
        "    verify = main(['verify'])",
        "print(run, after_run, verify, 'scipy.optimize' in sys.modules)",
    ) == ["0", "False", "0", "False"]
    # scipy.optimize, imported later, exports the same function
    assert fresh(
        "from coreselect import setfn",
        "solve = setfn.assignment_solver()",
        "import scipy.optimize",
        "print(scipy.optimize.linear_sum_assignment is solve)",
    ) == ["True"]
    # with no extension file to be found, scipy.optimize supplies the solver
    assert fresh(
        "import importlib.machinery",
        "importlib.machinery.EXTENSION_SUFFIXES = []",
        "import numpy as np",
        "from coreselect import setfn",
        "print('scipy.optimize' in sys.modules)",
        "rows, cols = setfn.linear_sum_assignment(np.array([[4., 1., 3.], [2., 0., 5.], [3., 2., 2.]]))",
        "print(rows.tolist(), cols.tolist(), 'scipy.optimize' in sys.modules)",
        "import scipy.optimize",
        "print(setfn.assignment_solver() is scipy.optimize.linear_sum_assignment)",
    ) == ["False", "[0,", "1,", "2]", "[1,", "0,", "2]", "True", "True"]


def test_runs_import_no_module(tmp_path):
    # the benchmark times a run in a fresh process, so a module that a round
    # imports lazily (numpy.ma, say) is paid inside the timed run
    configs = [base_config(T=30, replicas=1, policy=policy, adversary={"kind": kind},
                           hints={"mode": "additive-noise", "noise_l2": 0.5})
               for policy, kind in itertools.product(BOUNDARY_POLICIES, BOUNDARY_ADVERSARIES)]
    code = "\n".join([
        "import json, sys",
        "from coreselect.adversary import adversary_from_config",
        "from coreselect.bench import ExperimentConfig, run_experiment",
        "gained = []",
        f"for i, raw in enumerate({configs!r}):",
        "    adversary_from_config(raw['adversary'], raw['n'])",
        "    before = set(sys.modules)",
        f"    run_experiment(ExperimentConfig.from_dict(raw), out_dir={str(tmp_path)!r} + f'/{{i}}')",
        "    gained.append(sorted(set(sys.modules) - before))",
        "print(json.dumps(gained))",
    ])
    gained = json.loads(_run_fresh(code))
    assert len(gained) == 25
    assert [(raw["policy"], raw["adversary"]["kind"], names)
            for raw, names in zip(configs, gained) if names] == []


def test_trace_instrumentation_finds_every_attribute_it_wraps():
    # perfbench/spans.py reads each attribute it wraps (bench.run_replica,
    # bench.replica_summary, bench.write_replica_csv, bench.lmo,
    # ScorePolicy.step and the others), so one that is gone fails here
    # rather than in a `--trace 1` run
    src = str(Path(coreselect.__file__).resolve().parents[1])
    code = "\n".join([
        "import sys",
        f"sys.path[:0] = [{str(PERFBENCH)!r}, {src!r}]",
        "import spans",
        "spans.instrument(spans.SpanRecorder())",
        "import coreselect",
        f"assert coreselect.__file__.startswith({src!r}), coreselect.__file__",
        "from coreselect import bench, policy",
        "for fn in (bench.run_replica, bench.replica_summary, bench.write_replica_csv,",
        "           bench.lmo, policy.ScorePolicy.step, policy.OftrlPolicy.step):",
        "    assert hasattr(fn, '__wrapped__'), fn",
        "print('instrumented')",
    ])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["instrumented"]


def test_traced_benchmark_reaches_every_layer(tmp_path):
    # perfbench/spans.py wraps module attributes of the package; a layer
    # that a refactor moves out from under its wrapper reads zero calls
    noisy = {"mode": "additive-noise", "noise_l2": 0.3}
    configs = [
        base_config(T=10, replicas=1, policy={"kind": "score"},
                    adversary={"kind": "matching-random"}),
        base_config(T=10, replicas=1, policy={"kind": "oftrl", "mode": "afw"},
                    adversary={"kind": "coverage-drift"}, hints=noisy),
        base_config(T=10, replicas=1, policy={"kind": "oftrl", "mode": "exact"},
                    adversary={"kind": "modular-drift"}, hints=noisy),
        base_config(T=10, replicas=1, policy={"kind": "priced"}),
    ]
    code = "\n".join([
        "import json, sys",
        f"sys.path.insert(0, {str(PERFBENCH)!r})",
        "import spans",
        "rec = spans.SpanRecorder()",
        "spans.instrument(rec)",
        "from coreselect.bench import ExperimentConfig, run_experiment",
        f"for i, raw in enumerate({configs!r}):",
        f"    run_experiment(ExperimentConfig.from_dict(raw), out_dir={str(tmp_path)!r} + f'/{{i}}')",
        "metrics = rec.layer_metrics()",
        "print(json.dumps({name: metrics[name + '.calls'] for name in spans.LAYERS}))",
    ])
    calls = json.loads(_run_fresh(code))
    assert [name for name, count in calls.items() if count == 0] == []
    # 4 configs of T=10, one replica each, and one step and one
    # core-strategy call per block, one adversary run: matching yields one
    # run, which spans its ten one-round phases; coverage and modular-drift
    # have 10 phases of one round, each a run, and modular-random one run
    assert calls["policy.step"] == 1 + 10 + 10 + 1
    assert calls["corevec.core_vector"] == 1 + 10 + 10 + 1
    assert calls["corevec.hungarian_duals"] == 1


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert math.isfinite(float(capsys.readouterr().out))
