"""Reproducible reward-sequence and hint generators for the benchmarks.

Every generator is deterministic given its numpy Generator; it reports the
value bound M, the proxy-vector norm bound G, and the admissibility level
alpha it promises, so the harness can check the theory bounds against what
was actually emitted.
"""

from __future__ import annotations

import inspect
import math
import numbers
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .corevec import (
    marginal_strategy,
    matching_dual_strategy,
    modular_strategy,
)
from .setfn import CoverageFunction, MatchingRewardFunction, ModularFunction, SetFunction

DEFAULT_PHASES = 10


def _check_int(name: str, value, least: int | None = None) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")


def _check_real(name: str, value, rule: str = "", holds=lambda x: True) -> None:
    """Raise ValueError naming the field unless ``value`` is a real number
    (a bool is not) that is finite and ``holds``; ``rule`` says what holds."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not (math.isfinite(value) and holds(value)):
        raise ValueError(f"{name} must be finite{' and ' + rule if rule else ''}, "
                         f"got {value!r}")


@dataclass
class Adversary:
    """A reward stream plus the matching core-vector strategy and bounds."""

    kind: str
    n: int
    alpha: float
    M: float
    G: float
    _make_rounds: object
    _make_strategy: object

    def rounds(self, T: int, rng: np.random.Generator) -> Iterator[SetFunction]:
        return self._make_rounds(T, rng)

    def core_strategy(self, rng: np.random.Generator):
        return self._make_strategy(rng)


def _phase_length(T: int, phases: int) -> int:
    return max(1, int(np.ceil(T / phases)))


def onehot_ensemble(n: int, T: int, rng: np.random.Generator) -> list[ModularFunction]:
    """Each round rewards exactly one uniformly random element with value 1.

    Only n distinct functions exist, so they are built once and shared.
    """
    indicators = []
    for i in range(n):
        w = np.zeros(n)
        w[i] = 1.0
        indicators.append(ModularFunction(w))
    hot = rng.integers(0, n, size=T)
    return [indicators[i] for i in hot]


def _modular_vec(n: int, G: float, rng: np.random.Generator) -> np.ndarray:
    w = rng.random(n)
    norm = float(np.linalg.norm(w))
    return (G / norm) * w if norm > 0 else w


def make_onehot_adversary(n: int) -> Adversary:
    def rounds(T, rng):
        for f in onehot_ensemble(n, T, rng):
            yield f

    return Adversary("onehot-ensemble", n, alpha=1.0, M=1.0, G=1.0,
                     _make_rounds=rounds, _make_strategy=lambda rng: modular_strategy())


def make_modular_random_adversary(n: int, G: float = 1.0) -> Adversary:
    """Fresh nonnegative coefficient vector of norm exactly G every round."""

    def rounds(T, rng):
        for _ in range(T):
            yield ModularFunction(_modular_vec(n, G, rng))

    # each coordinate is at most G, and the sum is at most sqrt(n) * G
    return Adversary("modular-random", n, alpha=1.0, M=float(np.sqrt(n)) * G, G=G,
                     _make_rounds=rounds, _make_strategy=lambda rng: modular_strategy())


def make_modular_drift_adversary(n: int, G: float = 1.0,
                                 phases: int = DEFAULT_PHASES,
                                 jitter: float = 0.25) -> Adversary:
    """Piecewise-stationary coefficients: a fresh base direction per phase,
    jittered every round, rescaled to norm exactly G."""

    def rounds(T, rng):
        plen = _phase_length(T, phases)
        base = _modular_vec(n, G, rng)
        for t in range(T):
            if t > 0 and t % plen == 0:
                base = _modular_vec(n, G, rng)
            w = np.maximum(base + jitter * G * rng.standard_normal(n) / np.sqrt(n), 0.0)
            norm = float(np.linalg.norm(w))
            yield ModularFunction((G / norm) * w if norm > 0 else base)

    return Adversary("modular-drift", n, alpha=1.0, M=float(np.sqrt(n)) * G, G=G,
                     _make_rounds=rounds, _make_strategy=lambda rng: modular_strategy())


def random_coverage(n: int, universe: int, rng: np.random.Generator,
                    density: float = 0.3) -> CoverageFunction:
    """Random coverage instance normalized by the universe size; every
    element covers at least one item and the full ground set covers
    everything, so f(full set) = 1."""
    family = []
    for i in range(n):
        picks = np.flatnonzero(rng.random(universe) < density)
        if picks.size == 0:
            picks = rng.integers(0, universe, size=1)
        family.append(picks.tolist())
    # guarantee full coverage so the normalized full value is exactly 1
    uncovered = sorted(set(range(universe)) - {e for s in family for e in s})
    for e in uncovered:
        family[int(rng.integers(0, n))].append(e)
    return CoverageFunction(family, universe, scale=1.0 / universe)


def make_coverage_drift_adversary(n: int, universe: int | None = None,
                                  phases: int = DEFAULT_PHASES,
                                  density: float = 0.3) -> Adversary:
    """Piecewise-stationary normalized coverage rewards (M = 1, alpha = 1).

    Marginal vectors of a monotone coverage function are nonnegative and sum
    to f(full set) = 1, so their norm bound is G = M = 1.
    """
    universe = 2 * n if universe is None else universe

    def rounds(T, rng):
        plen = _phase_length(T, phases)
        cur = random_coverage(n, universe, rng, density)
        for t in range(T):
            if t > 0 and t % plen == 0:
                cur = random_coverage(n, universe, rng, density)
            yield cur

    return Adversary("coverage-drift", n, alpha=1.0, M=1.0, G=1.0,
                     _make_rounds=rounds,
                     _make_strategy=marginal_strategy)


def make_matching_random_adversary(m: int, w_max: float = 1.0,
                                   phases: int = DEFAULT_PHASES) -> Adversary:
    """Piecewise-stationary bipartite matching rewards on m + m vertices."""
    # load the assignment solver while the run is set up, not in its first round
    import scipy.optimize  # noqa: F401

    n = 2 * m

    def rounds(T, rng):
        plen = _phase_length(T, phases)
        cur = MatchingRewardFunction(w_max * rng.random((m, m)))
        for t in range(T):
            if t > 0 and t % plen == 0:
                cur = MatchingRewardFunction(w_max * rng.random((m, m)))
            yield cur

    return Adversary("matching-random", n, alpha=1.0, M=float(m) * w_max,
                     G=float(n) * w_max / float(np.sqrt(2.0)),
                     _make_rounds=rounds,
                     _make_strategy=lambda rng: matching_dual_strategy())


# the rule a config value of each real factory parameter must meet; the other
# parameters (phases, universe) are counts, integers >= 1
_REAL_RULES = {
    "G": ("positive", lambda x: x > 0.0),
    "w_max": ("positive", lambda x: x > 0.0),
    "jitter": (">= 0", lambda x: x >= 0.0),
    "density": ("in (0, 1]", lambda x: 0.0 < x <= 1.0),
}

_FACTORIES = {
    "onehot-ensemble": make_onehot_adversary,
    "modular-random": make_modular_random_adversary,
    "modular-drift": make_modular_drift_adversary,
    "coverage-drift": make_coverage_drift_adversary,
    "matching-random": make_matching_random_adversary,
}


def adversary_from_config(cfg: dict, n: int) -> Adversary:
    """Build an adversary from its JSON block.

    ``kind`` names one of the ``make_*_adversary`` factories in
    ``_FACTORIES``; every other key is passed to it as a keyword, so the
    accepted keys and their defaults are the factory's own parameters after
    the ground-set size.  ``matching-random`` needs an even n = 2m and gets m.
    """
    cfg = dict(cfg)
    kind = cfg.pop("kind", None)
    factory = _FACTORIES.get(kind)
    if factory is None:
        raise ValueError(f"unknown adversary kind: {kind!r}")
    if kind == "matching-random":
        if n % 2:
            raise ValueError("matching-random needs an even ground set")
        n //= 2
    unknown = set(cfg) - set(list(inspect.signature(factory).parameters)[1:])
    if unknown:
        raise ValueError(f"unknown adversary keys: {sorted(unknown)}")
    for name, value in cfg.items():
        if name in _REAL_RULES:
            _check_real(name, value, *_REAL_RULES[name])
        else:
            _check_int(name, value, least=1)
    return factory(n, **cfg)


@dataclass
class HintSpec:
    """How to corrupt the true proxy vectors into hints."""

    mode: str = "perfect"          # perfect | additive-noise | adversarial-flip
    noise_l2: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in ("perfect", "additive-noise", "adversarial-flip"):
            raise ValueError(f"unknown hint mode: {self.mode!r}")
        x = self.noise_l2
        if (isinstance(x, bool) or not isinstance(x, numbers.Real)
                or not (math.isfinite(x) and x >= 0.0)):
            raise ValueError(f"noise_l2 must be a finite nonnegative number, got {x!r}")


def generate_hints(fvecs: list[np.ndarray], spec: HintSpec,
                   rng: np.random.Generator) -> list[ModularFunction]:
    """Hint stream for a known proxy-vector stream.

    additive-noise perturbs each vector by a random direction of l2 length
    exactly noise_l2; adversarial-flip negates it outright.
    """
    out = []
    for fv in fvecs:
        fv = np.asarray(fv, dtype=float)
        if spec.mode == "perfect" or spec.noise_l2 == 0.0 and spec.mode == "additive-noise":
            h = fv.copy()
        elif spec.mode == "additive-noise":
            z = rng.standard_normal(fv.size)
            norm = float(np.linalg.norm(z))
            while norm == 0.0:
                z = rng.standard_normal(fv.size)
                norm = float(np.linalg.norm(z))
            h = fv + (spec.noise_l2 / norm) * z
        else:
            h = -fv
        out.append(ModularFunction(h))
    return out
