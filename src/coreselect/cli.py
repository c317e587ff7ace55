"""Command-line entry points for the benchmark harness.

Subcommands::

    coreselect run --config experiment.json [--seed N] [--replicas N] [--out DIR]
    coreselect verify [--max-n N]
    coreselect sweep --config experiment.json --axis T --values 1000,4000,16000
    coreselect lower-bound --n 10 --k 3 --T 10000 --replicas 200

Exit status is 0 on success and nonzero when any check or run fails.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import replace

from .bench import (
    SWEEP_AXES,
    ExperimentConfig,
    lower_bound_experiment,
    run_experiment,
    sweep,
)
from .verify import verify_all


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    # replace() runs the config's checks on the overrides too
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.replicas is not None:
        cfg = replace(cfg, replicas=args.replicas)
    summary = run_experiment(cfg, out_dir=args.out, workers=args.workers)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    results = verify_all(max_n=args.max_n)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: {r.detail}")
        failed += 0 if r.passed else 1
    elapsed = time.perf_counter() - start
    print(f"{len(results) - failed}/{len(results)} checks passed in {elapsed:.1f}s")
    return 1 if failed else 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    values = []
    for item in filter(str.strip, args.values.split(",")):
        try:
            values.append(float(item))
        except ValueError:
            raise ValueError(f"--values: {item.strip()!r} is not a number") from None
    rows = sweep(cfg, args.axis, values, out_path=args.out)
    for row in rows:
        print(f"{args.axis}={row['value']:g} aug={row['aug_regret_mean']:.4g} "
              f"static={row['static_regret_mean']:.4g} cost={row['cost_mean']:.4g}")
    return 0


def _cmd_lower_bound(args: argparse.Namespace) -> int:
    res = lower_bound_experiment(args.n, args.k, args.T, args.replicas, seed=args.seed)
    print(json.dumps(res, indent=2, sort_keys=True))
    return 0 if res["within_4se"] else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once and shared by every ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="coreselect",
        description="Online k-of-N subset selection benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--replicas", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--workers", type=int, default=1)
    p_run.set_defaults(fn=_cmd_run)

    p_verify = sub.add_parser("verify", help="run the brute-force oracle suite")
    p_verify.add_argument("--max-n", type=int, default=12)
    p_verify.set_defaults(fn=_cmd_verify)

    p_sweep = sub.add_parser("sweep", help="re-run an experiment along one axis")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated list, e.g. 1000,4000,16000")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_lb = sub.add_parser("lower-bound",
                          help="one-element ensemble: mean regret should sit at zero")
    p_lb.add_argument("--n", type=int, required=True)
    p_lb.add_argument("--k", type=int, required=True)
    p_lb.add_argument("--T", type=int, required=True)
    p_lb.add_argument("--replicas", type=int, required=True)
    p_lb.add_argument("--seed", type=int, default=0)
    p_lb.set_defaults(fn=_cmd_lower_bound)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
