"""Span recording for the traced benchmark run.

The recorder wraps public coreselect functions at the module attributes
their callers look up at call time (for example ``coreselect.policy.draw``),
so the package itself is never edited.  Each call becomes a span with a
name, start, end and parent; spans stay in memory and are written out when
the traced process ends.  A span's self time is its duration minus the time
its child spans cover.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from pathlib import Path

LAYERS = (
    "hypersimplex.entropic_ftrl_argmax",
    "sampling.draw",
    "hypersimplex.euclidean_project",
    "hypersimplex.afw_minimize",
    "hypersimplex.lmo",
    "corevec.core_vector",
    "corevec.hungarian_duals",
    "setfn.value",
    "setfn.distance_sup",
    "adversary.rounds",
    "adversary.generate_hints",
    "policy.step",
    "bench.write_replica_csv",
    "bench.final_summary",
)


class SpanRecorder:
    """In-memory span store plus the counters read from return values."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, int] | None] = []
        self._child_ns: list[int] = []
        self._stack: list[int] = []
        self.afw_iterations = 0
        self.afw_nonconverged = 0
        self.afw_gap_max = 0.0
        self.observed = 0
        self.csv_bytes = 0
        self._rewards: dict[int, object] = {}  # strong refs keep ids unique

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self) -> tuple[int, int]:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._child_ns.append(0)
        self._stack.append(idx)
        return idx, parent

    def _close(self, nid: int, idx: int, parent: int, start: int) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans[idx] = (nid, start, end, parent)
        if parent >= 0:
            self._child_ns[parent] += end - start

    def wrap(self, name: str, fn, on_call=None):
        """``fn`` timed as a span; ``on_call(result, args)`` reads counters."""
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx, parent = self._open()
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(nid, idx, parent, start)
            if on_call is not None:
                on_call(result, args)
            return result

        return traced

    def wrap_iter(self, name: str, it):
        """Each ``next`` on the iterator timed as a span."""
        nid = self._name_id(name)
        while True:
            idx, parent = self._open()
            start = time.perf_counter_ns()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._close(nid, idx, parent, start)
            yield item

    def layer_metrics(self) -> dict:
        """Per-layer counts, self seconds and median microseconds per call."""
        calls: dict[int, int] = {}
        self_ns: dict[int, int] = {}
        durations: dict[int, list[int]] = {}
        for idx, span in enumerate(self.spans):
            nid, start, end, _ = span
            calls[nid] = calls.get(nid, 0) + 1
            self_ns[nid] = self_ns.get(nid, 0) + (end - start) - self._child_ns[idx]
            durations.setdefault(nid, []).append(end - start)
        out = {}
        for name in LAYERS:
            nid = self._name_ids.get(name)
            n_calls = calls.get(nid, 0)
            out[f"{name}.calls"] = n_calls
            out[f"{name}.self_s"] = self_ns.get(nid, 0) / 1e9
            out[f"{name}.us_p50"] = (
                statistics.median(durations[nid]) / 1e3 if n_calls else 0.0)
        afw_calls = out["hypersimplex.afw_minimize.calls"]
        out["hypersimplex.afw_minimize.iters_mean"] = (
            self.afw_iterations / afw_calls if afw_calls else 0.0)
        out["hypersimplex.afw_minimize.nonconverged"] = self.afw_nonconverged
        out["hypersimplex.afw_minimize.gap_max"] = self.afw_gap_max
        core_calls = out["corevec.core_vector.calls"]
        out["corevec.core_vector.distinct_ratio"] = (
            len(self._rewards) / core_calls if core_calls else 0.0)
        steps = out["policy.step.calls"]
        out["policy.observed_ratio"] = self.observed / steps if steps else 0.0
        out["bench.write_replica_csv.bytes"] = self.csv_bytes
        return out

    def write(self, path: Path) -> None:
        """All spans as JSON: a name table and [name, start_ns, end_ns, parent]."""
        path.write_text(json.dumps({"names": self.names, "spans": self.spans}),
                        encoding="utf-8")

    # -- counters read from return values and arguments ---------------------

    def _on_afw(self, result, args) -> None:
        self.afw_iterations += result.iterations
        self.afw_nonconverged += 0 if result.converged else 1
        self.afw_gap_max = max(self.afw_gap_max, float(result.gap))

    def _on_step(self, record, args) -> None:
        self.observed += 1 if record.observed else 0

    def _on_core_vector(self, result, args) -> None:
        f = args[0]
        self._rewards[id(f)] = f

    def _on_csv(self, result, args) -> None:
        self.csv_bytes += Path(args[0]).stat().st_size


def instrument(rec: SpanRecorder) -> None:
    """Patch the coreselect call sites the round loop goes through."""
    from coreselect import adversary, bench, corevec, hypersimplex, policy, setfn

    policy.entropic_ftrl_argmax = rec.wrap(
        "hypersimplex.entropic_ftrl_argmax", policy.entropic_ftrl_argmax)
    policy.draw = rec.wrap("sampling.draw", policy.draw)
    hypersimplex.euclidean_project = rec.wrap(
        "hypersimplex.euclidean_project", hypersimplex.euclidean_project)
    policy.afw_minimize = rec.wrap(
        "hypersimplex.afw_minimize", policy.afw_minimize, rec._on_afw)
    # lmo is looked up from three modules: inside AFW, in the oftrl proposal
    # before any hint error, and in the regret and CSV accounting
    for module in (hypersimplex, policy, bench):
        module.lmo = rec.wrap("hypersimplex.lmo", module.lmo)
    corevec.hungarian_duals = rec.wrap(
        "corevec.hungarian_duals", corevec.hungarian_duals)
    for cls in (setfn.SetFunction, setfn.ModularFunction,
                setfn.MatchingRewardFunction):
        cls.value = rec.wrap("setfn.value", cls.value)
    bench.distance_sup = rec.wrap("setfn.distance_sup", bench.distance_sup)
    bench.generate_hints = rec.wrap(
        "adversary.generate_hints", bench.generate_hints)

    rounds = adversary.Adversary.rounds
    core_strategy = adversary.Adversary.core_strategy

    def traced_rounds(self, T, rng):
        return rec.wrap_iter("adversary.rounds", rounds(self, T, rng))

    def traced_core_strategy(self, rng):
        return rec.wrap("corevec.core_vector", core_strategy(self, rng),
                        rec._on_core_vector)

    adversary.Adversary.rounds = traced_rounds
    adversary.Adversary.core_strategy = traced_core_strategy

    for cls in (policy.ScorePolicy, policy.OftrlPolicy):
        cls.step = rec.wrap("policy.step", cls.step, rec._on_step)
    bench.write_replica_csv = rec.wrap(
        "bench.write_replica_csv", bench.write_replica_csv, rec._on_csv)
    bench.ReplicaResult.final_summary = rec.wrap(
        "bench.final_summary", bench.ReplicaResult.final_summary)
    bench.replica_summary = rec.wrap("bench.replica_summary",
                                     bench.replica_summary)
    bench.run_replica = rec.wrap("bench.run_replica", bench.run_replica)
