"""Byte-level contract: fixed configs reproduce the committed output files.

Every replica CSV and ``summary.json`` under ``tests/golden/<name>/`` was
written by this module's ``__main__`` block.  A change that alters these
bytes on purpose (a numerics fix, say) names the reason and rewrites the
configs it moves with ``PYTHONPATH=src python tests/test_golden.py NAME...``
(every config when no name is given).
"""

import contextlib
import csv
import io
import itertools
import json
from pathlib import Path

import pytest

from coreselect.bench import ExperimentConfig, run_experiment

GOLDEN = Path(__file__).parent / "golden"
BASE = {"schema": 1, "n": 6, "k": 2, "T": 20, "seed": 7, "replicas": 2}
NOISY = {"mode": "additive-noise", "noise_l2": 0.5}
CONFIGS = {
    **{f"{kind}-{adv}": {**BASE, "policy": {"kind": kind}, "adversary": {"kind": adv}}
       for kind in ("score", "semibandit", "priced")
       for adv in ("onehot-ensemble", "modular-random", "modular-drift",
                   "coverage-drift", "matching-random")},
    **{f"oftrl-exact-{hints['mode']}": {
        **BASE, "policy": {"kind": "oftrl", "mode": "exact"},
        "adversary": {"kind": "coverage-drift"}, "hints": hints}
       for hints in ({"mode": "perfect"}, NOISY, {"mode": "adversarial-flip"})},
    "oftrl-afw-coverage-drift": {
        **BASE, "policy": {"kind": "oftrl", "mode": "afw"},
        "adversary": {"kind": "coverage-drift"}, "hints": NOISY},
    # n=20 and T=450 cross blocks of 204 rounds, and drift phases of 45
    # rounds that fall inside blocks
    **{f"{kind}-{adv}-n20": {**BASE, "n": 20, "k": 5, "T": 450, "replicas": 1,
                             "policy": {"kind": kind}, "adversary": {"kind": adv}}
       for kind, adv in (("score", "modular-drift"), ("priced", "modular-random"),
                         ("semibandit", "modular-random"))},
    # one block of 9 rounds at n=1000
    "oftrl-exact-modular-random-n1000": {
        **BASE, "n": 1000, "k": 50, "T": 9, "replicas": 1,
        "policy": {"kind": "oftrl", "mode": "exact"},
        "adversary": {"kind": "modular-random"}, "hints": NOISY},
    # blocks of 16, 16 and 8 rounds at n=1000 (ten of 4 when blocks held
    # at most 4096 cells)
    "oftrl-exact-modular-random-n1000-T40": {
        **BASE, "n": 1000, "k": 50, "T": 40, "replicas": 1,
        "policy": {"kind": "oftrl", "mode": "exact"},
        "adversary": {"kind": "modular-random"}, "hints": NOISY},
    # long Frank-Wolfe runs, each warm-started from the last round's active set
    "oftrl-afw-modular-random-T200": {
        **BASE, "n": 12, "k": 4, "T": 200,
        "policy": {"kind": "oftrl", "mode": "afw"},
        "adversary": {"kind": "modular-random"}, "hints": NOISY},
    # matching phases of 45 rounds inside blocks of 204
    "score-matching-random-n20": {
        **BASE, "n": 20, "k": 10, "T": 450, "replicas": 1,
        "policy": {"kind": "score"}, "adversary": {"kind": "matching-random"}},
    # a universe of 80 items, past one 64-bit word; blocks of 204 rounds
    # cross drift phases of 25
    **{f"{kind}-coverage-drift-n40": {**BASE, "n": 40, "k": 8, "T": 250, "replicas": 1,
                                      "policy": {"kind": kind},
                                      "adversary": {"kind": "coverage-drift"}}
       for kind in ("score", "semibandit")},
    # k == n: the full selection, with nothing proposed or drawn; the priced
    # run still tosses its coins
    **{f"{kind}-modular-random-kn": {**BASE, "k": 6, "policy": {"kind": kind},
                                     "adversary": {"kind": "modular-random"}}
       for kind in ("score", "semibandit", "priced")},
    "oftrl-exact-coverage-drift-kn": {
        **BASE, "k": 6, "policy": {"kind": "oftrl", "mode": "exact"},
        "adversary": {"kind": "coverage-drift"}, "hints": NOISY},
    # one phase of 450 rounds, longer than a block of 204: its reward is
    # revealed in runs of 204, 204 and 42 rounds
    "score-matching-random-long-phase": {
        **BASE, "n": 20, "k": 10, "T": 450, "replicas": 1,
        "policy": {"kind": "score"},
        "adversary": {"kind": "matching-random", "phases": 1}},
    "semibandit-coverage-drift-long-phase": {
        **BASE, "n": 20, "k": 5, "T": 450, "replicas": 1,
        "policy": {"kind": "semibandit"},
        "adversary": {"kind": "coverage-drift", "phases": 1}},
    # and the hints' squared sup-distances, logged across the runs
    "oftrl-exact-coverage-drift-long-phase": {
        **BASE, "n": 12, "k": 4, "T": 450, "replicas": 1,
        "policy": {"kind": "oftrl", "mode": "exact"},
        "adversary": {"kind": "coverage-drift", "phases": 1}, "hints": NOISY},
}


@pytest.mark.parametrize("name, workers", [(name, 1) for name in sorted(CONFIGS)]
                         + [("oftrl-afw-coverage-drift", 2)])
def test_outputs_match_golden(name, workers, tmp_path):
    # 20 rounds are too few for priced feedback on matching rewards: its
    # tuned observation rate passes 1, and the run says that it clamps it
    clamp = (pytest.warns(UserWarning, match="clamping to 1")
             if name == "priced-matching-random" else contextlib.nullcontext())
    with clamp:
        run_experiment(ExperimentConfig.from_dict(CONFIGS[name]), out_dir=tmp_path,
                       workers=workers)
    want = GOLDEN / name
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in want.iterdir())
    for path in want.iterdir():
        got, expected = (tmp_path / path.name).read_bytes(), path.read_bytes()
        assert got == expected, f"{name}/{path.name}: {first_difference(path.name, got, expected)}"


def first_difference(file_name: str, got: bytes, want: bytes) -> str:
    """Where an output file first differs from its golden: a CSV's data row
    (1-based) and column header, or a ``summary.json`` key path."""
    if file_name.endswith(".json"):
        return first_key_difference(json.loads(got), json.loads(want)) or "formatting only"
    got_rows, want_rows = (list(csv.reader(io.StringIO(b.decode()))) for b in (got, want))
    header = want_rows[0]
    for i, (g, w) in enumerate(itertools.zip_longest(got_rows, want_rows)):
        if g == w:
            continue
        if g is None or w is None or len(g) != len(w):
            return f"row {i}: {g} != {w}"
        col = next(j for j, (a, b) in enumerate(zip(g, w)) if a != b)
        return f"row {i}, column {header[col]}: {g[col]} != {w[col]}"
    return "formatting only"


def first_key_difference(got, want, path: str = "") -> str | None:
    """The key path of the first value where two parsed JSON documents
    differ, as ``bounds.static_ratio`` or ``replicas[0].static_regret``."""
    if isinstance(got, dict) and isinstance(want, dict):
        for key in sorted(set(got) | set(want)):
            where = f"{path}.{key}" if path else key
            if key not in got or key not in want:
                return f"{where} (present on one side only)"
            found = first_key_difference(got[key], want[key], where)
            if found:
                return found
        return None
    if isinstance(got, list) and isinstance(want, list) and len(got) == len(want):
        for i, (g, w) in enumerate(zip(got, want)):
            found = first_key_difference(g, w, f"{path}[{i}]")
            if found:
                return found
        return None
    return None if got == want else f"{path or '(top)'}: {got!r} != {want!r}"


if __name__ == "__main__":
    import sys

    names = sys.argv[1:] or list(CONFIGS)
    unknown = sorted(set(names) - set(CONFIGS))
    if unknown:
        sys.exit(f"unknown golden configs: {unknown}")
    for name in names:
        run_experiment(ExperimentConfig.from_dict(CONFIGS[name]), out_dir=GOLDEN / name,
                       workers=1)
