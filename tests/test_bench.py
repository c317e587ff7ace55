"""Harness tests: config parsing, CSV stability, verify suite, CLI."""

import json

import numpy as np
import pytest

from coreselect.bench import (
    CheckResult,
    ExperimentConfig,
    PolicyBlock,
    lower_bound_experiment,
    run_experiment,
    run_replica,
    sweep,
    verify_all,
)
from coreselect.cli import main
from coreselect.hypersimplex import HypersimplexPoint, euclidean_project


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
    with pytest.raises(ValueError, match="unknown hint keys"):
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


def test_semibandit_config_runs():
    cfg = ExperimentConfig.from_dict(base_config(policy={"kind": "semibandit"}))
    res = run_replica(cfg, 0)
    assert res.ledger.rounds == cfg.T


def test_sweep_rows_and_file(tmp_path):
    cfg = ExperimentConfig.from_dict(base_config(replicas=1, T=20))
    rows = sweep(cfg, "T", [10, 20], out_path=tmp_path / "sweep.csv")
    assert [r["value"] for r in rows] == [10, 20]
    text = (tmp_path / "sweep.csv").read_text()
    assert text.startswith("axis,value,")
    assert len(text.strip().split("\n")) == 3
    with pytest.raises(ValueError):
        sweep(cfg, "bogus", [1])


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
        pt = euclidean_project(y, k)
        p = pt.p.copy()
        if p.size >= 2:
            p[0], p[1] = p[1], p[0]  # wrong but still feasible
        return HypersimplexPoint(pt.n, pt.k, p)

    results = verify_all(max_n=6, projection_fn=broken_projection)
    by_name = {r.name: r for r in results}
    assert not by_name["projection-vs-active-set-enumeration"].passed
    assert "mismatch" in by_name["projection-vs-active-set-enumeration"].detail


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


def test_check_result_shape():
    r = CheckResult("x", True, "ok")
    assert r.name == "x" and r.passed and r.detail == "ok"


def test_policy_block_validation():
    with pytest.raises(ValueError):
        PolicyBlock("score", mode="bogus")
