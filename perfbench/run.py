"""Benchmark of coreselect's per-round loop, driven through its public API.

Run from the root of a checkout::

    python3 perfbench/run.py --workload modular-mix --seed 1 --seconds 20 --trace 0

Each workload (see workloads.py) is a fixed list of experiment configs.  One
repetition is a fresh Python process (child.py) that imports coreselect from
``src``, builds the configs and runs ``coreselect.bench.run_experiment`` on
each with ``workers=1``, writing the per-replica CSVs and ``summary.json``
as ``coreselect run --out`` does.  Repetitions run one after another until
``--seconds`` have passed, with BLAS and OpenMP pinned to one thread.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json as medians
over the repetitions.  ``--trace 1`` alternates untraced and traced
repetitions, where spans wrap the package's layers (spans.py), and adds a
tracemalloc pass; it reports the per-layer metrics.

Every repetition's outputs are checked: each replica CSV has the documented
header and exactly T rows numbered 1..T, and ``summary.json`` exists.  The
SHA-256 of all output files must be the same on every repetition of a
(workload, seed), within a run and across runs of the same sources in this
checkout.  A replica that raised or failed a check counts as failed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give each
metric with its unit, the environment and the output digest.  Run records
and spans go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, build

# The per-replica CSV header documented in the repository README.
CSV_HEADER = ("round,reward,full_reward,cum_reward,cum_benchmark,aug_regret,"
              "static_regret,observed,cum_cost")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MIN_REPS = 3          # repetitions per run, whatever --seconds says
CHILD_TIMEOUT_S = 120
RUN_LIMIT_S = 150     # no repetition starts past this point of a run
# On a shared 2-core VM the same code ran up to 2.4x slower for stretches of
# seconds to minutes, so throughput is scaled to a nominal machine speed: a
# probe in the child times a fixed piece of work every 50 ms during each
# config, and rounds_per_s counts the run's time in probe durations times
# PROBE_NOMINAL_S, the probe's usual duration on that VM (Python 3.11,
# numpy 2.4).
PROBE_NOMINAL_S = 0.0008
# Horizons of the tracemalloc pass; retained bytes per round is the slope of
# peak traced memory between them, every config run with one replica.
RETAINED_HORIZONS = (100, 200)


class ChildFailed(RuntimeError):
    pass


class Bench:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.configs = build(workload, seed)
        self.replicas = sum(c["replicas"] for c in self.configs)
        self.work = root / ".bench_out" / workload
        self.out_dirs = [self.work / f"out_{i}" for i in range(len(self.configs))]
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        **{var: "1" for var in THREAD_VARS})
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digest: str | None = None
        self.versions: dict = {}

    def child(self, mode: str, **job) -> dict:
        """One fresh process; returns its report plus ``setup_s``."""
        for d in self.out_dirs:
            shutil.rmtree(d, ignore_errors=True)
        self.work.mkdir(parents=True, exist_ok=True)
        job_path = self.work / "job.json"
        job_path.write_text(json.dumps({
            "root": str(self.root), "mode": mode, "configs": self.configs,
            "out_dirs": [str(d) for d in self.out_dirs],
            "spans_path": str(self.work / "spans.json"), **job}),
            encoding="utf-8")
        started = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        try:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).with_name("child.py")),
                 str(job_path)],
                cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"{mode} process timed out after {exc.timeout} s")
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-5:]
            raise ChildFailed(f"{mode} process exited {proc.returncode}: "
                              + " | ".join(tail))
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        report["setup_s"] = (report["setup_done_ns"] - started) / 1e9
        self.versions = report["versions"]
        return report

    def repetition(self, mode: str) -> dict | None:
        """A checked run of every config; None if it failed."""
        self.attempted += self.replicas
        try:
            report = self.child(mode)
        except ChildFailed as exc:
            self.failed += self.replicas
            self.errors.append(str(exc))
            return None
        failed, digest, ratio = self.check_outputs()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            failed = self.replicas
            self.errors.append(f"{mode} output digest {digest} differs from "
                               f"the first repetition's {self.digest}")
        self.failed += failed
        if failed:
            return None
        report["rounds_per_s"] = report["rounds"] / report["run_s"]
        report["reward_ratio"] = ratio
        return report

    def check_outputs(self) -> tuple[int, str, float]:
        """(replicas failing the output check, SHA-256 of all outputs,
        collected reward over the k/(n alpha) full-set benchmark)."""
        sha = hashlib.sha256()
        failed = 0
        reward = benchmark = 0.0
        for cfg, out in zip(self.configs, self.out_dirs):
            summary = _read_summary(out / "summary.json", cfg["replicas"])
            if summary is None:
                self.errors.append(f"{out.name}/summary.json missing or malformed")
            for r in range(cfg["replicas"]):
                path = out / f"replica_{r}.csv"
                last = _check_csv(path, cfg["T"])
                if last is not None and summary is not None and not math.isclose(
                        float(last[3]), summary["replicas"][r]["cum_reward"],
                        rel_tol=1e-9, abs_tol=1e-12):
                    last = None
                if last is None:
                    self.errors.append(f"{out.name}/{path.name} fails the check")
                if last is None or summary is None:
                    failed += 1
                    continue
                reward += float(last[3])
                benchmark += float(last[4])
            if out.is_dir():
                for f in sorted(out.iterdir()):
                    sha.update(f"{out.name}/{f.name}\0".encode())
                    sha.update(f.read_bytes())
        return failed, sha.hexdigest(), reward / benchmark if benchmark else 0.0

    def source_digest(self) -> str:
        """SHA-256 of the package sources."""
        sha = hashlib.sha256()
        for f in sorted((self.root / "src").rglob("*.py")):
            sha.update(str(f.relative_to(self.root)).encode() + b"\0")
            sha.update(f.read_bytes())
        return sha.hexdigest()

    def check_digest_history(self) -> None:
        """Same sources, configs and seed must give the same outputs as
        earlier runs in this checkout."""
        if self.digest is None:
            return
        path = self.root / ".bench_out" / "digests.json"
        history = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
        configs = hashlib.sha256(json.dumps(self.configs, sort_keys=True).encode())
        key = (f"{self.workload}:{self.seed}:{self.source_digest()[:16]}:"
               f"{configs.hexdigest()[:16]}")
        if history.setdefault(key, self.digest) != self.digest:
            self.errors.append(f"output digest {self.digest} differs from "
                               f"{history[key]} of an earlier run")
            self.failed = max(self.failed, self.replicas)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(history, indent=1, sort_keys=True), encoding="utf-8")
        tmp.replace(path)

    def environment(self) -> dict:
        git = None
        if (self.root / ".git").exists():
            proc = subprocess.run(["git", "-C", str(self.root), "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            git = proc.stdout.strip() or None
        return {"workload": self.workload, "seed": self.seed,
                "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
                **self.versions, "git_revision": git,
                "source_sha256": self.source_digest(),
                "threads": {var: self.env[var] for var in THREAD_VARS}}


def _read_summary(path: Path, replicas: int) -> dict | None:
    """summary.json if it parses and lists every replica, else None."""
    try:
        summary = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if len(summary.get("replicas", [])) != replicas or "bounds" not in summary:
        return None
    return summary


def _check_csv(path: Path, T: int) -> list[str] | None:
    """Last row's fields if the file has the header and rows 1..T of finite
    numbers, else None."""
    if not path.is_file():
        return None
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "" or len(lines) != T + 2:
        return None
    fields = None
    for t, line in enumerate(lines[1:-1], start=1):
        fields = line.split(",")
        if len(fields) != 9 or fields[0] != str(t):
            return None
        try:
            if not all(math.isfinite(float(x)) for x in fields[1:]):
                return None
        except ValueError:
            return None
    return fields


def _median(reps: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reps)


def run_end_to_end(bench: Bench, seconds: float, begin: float) -> dict:
    reps = []
    while len(reps) < MIN_REPS or time.monotonic() - begin < seconds:
        if time.monotonic() - begin > RUN_LIMIT_S:
            break
        rep = bench.repetition("plain")
        if rep is None:
            return {}
        reps.append(rep)
    for rep in reps:
        rep["scaled_rounds_per_s"] = rep["rounds"] / (rep["probe_units"] * PROBE_NOMINAL_S)
    print(f"info: {len(reps)} repetitions; unscaled rounds_per_s "
          f"{_median(reps, 'rounds_per_s'):.6g}; static_regret/bound per config "
          f"{[round(x, 6) for x in reps[0]['static_ratios']]}")
    return {
        "rounds_per_s": _median(reps, "scaled_rounds_per_s"),
        "setup_s": _median(reps, "setup_s"),
        "peak_rss_mb": _median(reps, "maxrss_kb") / 1024.0,
        "reward_ratio": reps[0]["reward_ratio"],
    }


def run_traced(bench: Bench, seconds: float, begin: float) -> dict:
    plain, traced = [], []
    while len(traced) < 2 or time.monotonic() - begin < seconds:
        if time.monotonic() - begin > RUN_LIMIT_S:
            break
        for mode, reps in (("plain", plain), ("trace", traced)):
            rep = bench.repetition(mode)
            if rep is None:
                return {}
            reps.append(rep)
    try:
        retained = bench.child("tracemalloc", horizons=RETAINED_HORIZONS)
    except ChildFailed as exc:
        bench.errors.append(str(exc))
        bench.failed = max(bench.failed, bench.replicas)
        return {}
    print(f"info: {len(plain)} untraced and {len(traced)} traced repetitions; "
          f"tracemalloc horizons {RETAINED_HORIZONS}")
    # median_low keeps counts whole: it picks one repetition's value
    metrics = {key: statistics.median_low(r["layers"][key] for r in traced)
               for key in traced[0]["layers"]}
    metrics["bench.retained_bytes_per_round"] = retained["retained_bytes_per_round"]
    metrics["trace.overhead_ratio"] = (_median(traced, "rounds_per_s")
                                       / _median(plain, "rounds_per_s"))
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    begin = time.monotonic()
    root = Path(__file__).resolve().parent.parent
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "coreselect" / "__init__.py").is_file():
        print(f"no coreselect sources under {root / 'src'}", file=sys.stderr)
        return 2
    if not spec_path.is_file():
        print(f"{spec_path} is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    bench = Bench(root, args.workload, args.seed)
    info = WORKLOADS[args.workload]
    for key in ("why", "exercises", "bypasses"):
        print(f"{key}: {info[key]}")
    try:
        bench.child("warmup")  # fills the bytecode and file caches, untimed
    except ChildFailed as exc:
        bench.attempted += bench.replicas
        bench.failed += bench.replicas
        bench.errors.append(str(exc))
        measured = {}
    else:
        run = run_traced if args.trace else run_end_to_end
        measured = run(bench, args.seconds, begin)
        bench.check_digest_history()

    metrics = {}
    for m in wanted:
        if m["name"] in measured:
            metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}
        else:
            bench.errors.append(f"metric {m['name']} was not measured")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    error_rate = bench.failed / bench.attempted if bench.attempted else 1.0
    print(f"metric error_rate = {error_rate:.6g} ({bench.failed} of "
          f"{bench.attempted} replicas)")
    env = bench.environment()
    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"outputs sha256: {bench.digest}")
    for err in bench.errors:
        print(f"error: {err}")

    correct = not bench.errors and bench.failed == 0
    record = {"env": env, "digest": bench.digest, "errors": bench.errors,
              "trace": args.trace, "seconds": args.seconds, "metrics": metrics}
    (bench.work / f"result_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": max(bench.attempted, 1),
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
