"""One measured process of the benchmark: ``python3 perfbench/child.py JOB``.

JOB is a JSON file written by run.py with the mode, the experiment configs
and their output directories.  The process imports coreselect from the
checkout's ``src``, parses the configs and builds their adversaries (the end
of set-up), then runs ``run_experiment`` once per config with ``workers=1``
and prints one JSON line with what it measured.

Modes: ``plain`` is the run the end-to-end metrics come from, with a speed
probe sampling the machine during each config; ``trace`` adds spans around
the package's layers and no probe; ``tracemalloc`` runs each config at two
horizons under tracemalloc and reports the slope of peak traced memory over
T; ``warmup`` only sets up.
"""

from __future__ import annotations

import contextlib
import json
import resource
import signal
import sys
import time
from pathlib import Path

PROBE_INTERVAL_S = 0.05


def _now_ns() -> int:
    # CLOCK_MONOTONIC is system-wide, so run.py can subtract its own reading
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    root = Path(job["root"])

    import numpy
    import scipy

    import coreselect
    from coreselect.adversary import adversary_from_config
    from coreselect.bench import ExperimentConfig, run_experiment

    if root / "src" not in Path(coreselect.__file__).resolve().parents:
        print(f"coreselect imported from {coreselect.__file__}, not from "
              f"{root / 'src'}", file=sys.stderr)
        return 3
    cfgs = [ExperimentConfig.from_dict(raw) for raw in job["configs"]]
    for cfg in cfgs:
        adversary_from_config(cfg.adversary, cfg.n)
    setup_done_ns = _now_ns()

    out = {"setup_done_ns": setup_done_ns,
           "versions": {"python": sys.version.split()[0],
                        "numpy": numpy.__version__, "scipy": scipy.__version__}}
    mode = job["mode"]
    if mode == "tracemalloc":
        out["retained_bytes_per_round"] = _retained_slope(
            run_experiment, cfgs, job["out_dirs"], job["horizons"])
    elif mode in ("plain", "trace"):
        rec = None
        if mode == "trace":
            from spans import SpanRecorder, instrument
            rec = SpanRecorder()
            instrument(rec)
            run_experiment = rec.wrap("bench.run_experiment", run_experiment)
        run_s = 0.0
        probe_units = 0.0
        rounds = 0
        static_ratios = []
        for cfg, out_dir in zip(cfgs, job["out_dirs"]):
            probe = SpeedProbe() if rec is None else None
            start = time.perf_counter()
            with probe or contextlib.nullcontext():
                summary = run_experiment(cfg, out_dir=out_dir, workers=1)
            elapsed = time.perf_counter() - start
            if probe is not None:
                elapsed -= sum(probe.durations)
                probe_units += elapsed / probe.mean_s()
            run_s += elapsed
            rounds += cfg.T * cfg.replicas
            static_ratios.append(summary["bounds"]["static_ratio"])
        out.update(run_s=run_s, probe_units=probe_units, rounds=rounds,
                   static_ratios=static_ratios,
                   maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        if rec is not None:
            out["layers"] = rec.layer_metrics()
            rec.write(Path(job["spans_path"]))
    print(json.dumps(out))
    return 0


class SpeedProbe:
    """Times a fixed piece of work every PROBE_INTERVAL_S while a config runs.

    The probe runs from a SIGALRM handler, between bytecodes of the measured
    program, so the durations sample the machine's speed during the run
    itself; their sum is taken out of the run's time.  The work is the kind
    the round loop does: small-array numpy calls, float formatting, lists.
    """

    def __init__(self) -> None:
        self.durations: list[float] = []

    def _probe(self, signum, frame) -> None:
        start = time.perf_counter()
        _probe_work()
        self.durations.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mean_s(self) -> float:
        if not self.durations:
            self._probe(None, None)
        return sum(self.durations) / len(self.durations)


def _probe_work() -> None:
    import numpy as np

    theta = np.linspace(0.0, 1.0, 20)
    rows = []
    for _ in range(40):
        order = np.argsort(-theta, kind="stable")
        e = np.exp(theta[order] - theta[order[0]])
        p = np.empty(20)
        p[order] = e * (5.0 / e.sum())
        prefix = np.cumsum(np.minimum(p, 1.0))
        theta += 1e-3 * p
        rows.append(",".join(repr(float(x)) for x in (prefix[-1], p @ theta)))


def _retained_slope(run_experiment, cfgs, out_dirs: list[str],
                    horizons: list[int]) -> float:
    """Bytes of peak traced memory added per round, between two horizons."""
    import tracemalloc

    peaks = []
    tracemalloc.start()
    try:
        for T in horizons:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            for cfg, out_dir in zip(cfgs, out_dirs):
                cfg.T, cfg.replicas = T, 1
                run_experiment(cfg, out_dir=out_dir, workers=1)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return (peaks[1] - peaks[0]) / (horizons[1] - horizons[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
