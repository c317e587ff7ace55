"""The benchmark workloads: experiment configs built from a seed.

Each workload is a fixed amount of work: a list of `coreselect run` configs
(schema 1) with a fixed horizon T and replica count.  The benchmark seed is
the only input that changes between runs, and the package sees it only as
the configs' ``seed`` field.  Every entry records why the workload exists,
which layer it exercises and which it bypasses, so a later change can name a
workload and predict "no change" on its bypass partner.
"""

from __future__ import annotations

# Hint noise (l2 length of the additive perturbation) for the optimistic
# workloads; 0.5 is the level acceptance criterion 5 runs at.
HINT_NOISE = 0.5


def _config(seed: int, n: int, k: int, T: int, replicas: int, policy: dict,
            adversary: dict, hints: dict | None = None) -> dict:
    cfg = {"schema": 1, "n": n, "k": k, "T": T, "seed": seed,
           "replicas": replicas, "policy": policy, "adversary": adversary}
    if hints is not None:
        cfg["hints"] = hints
    return cfg


def _modular_mix(seed: int) -> list[dict]:
    common = {"n": 20, "k": 5, "T": 2000, "replicas": 2}
    return [
        _config(seed, policy={"kind": "score"},
                adversary={"kind": "modular-drift"}, **common),
        _config(seed, policy={"kind": "semibandit"},
                adversary={"kind": "modular-random"}, **common),
        _config(seed, policy={"kind": "priced"},
                adversary={"kind": "modular-random"}, **common),
    ]


def _oftrl_wide(seed: int) -> list[dict]:
    hints = {"mode": "additive-noise", "noise_l2": HINT_NOISE}
    return [
        _config(seed, n=1000, k=50, T=1000, replicas=1,
                policy={"kind": "oftrl", "mode": "exact"},
                adversary={"kind": "modular-random"}, hints=hints),
        # A short AFW run so the Frank-Wolfe layers are traced.  Its cost per
        # replica varies between seeds with a coefficient of variation of
        # 0.3-0.8, so it is kept to about a tenth of the workload's time.
        _config(seed, n=12, k=4, T=100, replicas=1,
                policy={"kind": "oftrl", "mode": "afw"},
                adversary={"kind": "coverage-drift"}, hints=hints),
    ]


def _score_matching(seed: int) -> list[dict]:
    return [_config(seed, n=20, k=10, T=100, replicas=6,
                    policy={"kind": "score"},
                    adversary={"kind": "matching-random"})]


WORKLOADS = {
    "modular-mix": {
        "build": _modular_mix,
        "why": "score x modular-drift, semibandit x modular-random and priced x "
               "modular-random at n=20, k=5: the shapes of acceptance criteria "
               "1, 6 and 7, where thousands of tiny calls make per-call cost "
               "dominate; the lockstep replica engine targets this workload.",
        "exercises": "hypersimplex.entropic_ftrl_argmax, sampling.draw, "
                     "adversary.rounds, policy.step, bench.write_replica_csv",
        "bypasses": "hypersimplex.euclidean_project, hypersimplex.afw_minimize, "
                    "corevec.hungarian_duals",
    },
    "oftrl-wide": {
        "build": _oftrl_wide,
        "why": "oftrl mode=exact x modular-random with additive-noise hints at "
               "n=1000, k=50: the Python loop in euclidean_project dominates, "
               "and the n-length p/gvec/fed kept per round plus the rewards and "
               "hints built up front make this the memory workload.  A short "
               "oftrl mode=afw x coverage-drift run at n=12, k=4 (the shape of "
               "criteria 4 and 5) rides along so AFW, the LMO, greedy marginal "
               "core vectors and the 2^n distance_sup are traced.",
        "exercises": "hypersimplex.euclidean_project, adversary.generate_hints, "
                     "bench.retained_bytes_per_round; hypersimplex.afw_minimize, "
                     "hypersimplex.lmo and setfn.distance_sup in about a tenth "
                     "of the time",
        "bypasses": "hypersimplex.entropic_ftrl_argmax, corevec.hungarian_duals",
    },
    "score-matching": {
        "build": _score_matching,
        "why": "score x matching-random at n=20 (m=10), k=10: the HiGHS LP in "
               "hungarian_duals dominates, and only phases=10 distinct rewards "
               "per replica means a per-reward core-vector cache gains only "
               "here.  Short replicas (T=100) and six of them average the "
               "cost and reward of 60 random matching instances per run.",
        "exercises": "corevec.hungarian_duals, corevec.core_vector, setfn.value",
        "bypasses": "hypersimplex.euclidean_project, hypersimplex.afw_minimize",
    },
}


def build(name: str, seed: int) -> list[dict]:
    """The workload's configs for this seed."""
    return WORKLOADS[name]["build"](seed)
