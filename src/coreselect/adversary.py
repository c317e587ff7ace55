"""Reproducible reward-sequence and hint generators for the benchmarks.

Every generator is deterministic given its numpy Generator; it reports the
value bound M, the proxy-vector norm bound G, and the admissibility level
alpha it promises, so the harness can check the theory bounds against what
was actually emitted.

Every generator yields ``(f, b)`` runs: one reward f for the next b rounds,
b at most ``block_rounds(n)``.  A modular run's f is a ``ModularFunction``
of (b, n) coefficient rows, drawn with one generator call, the stream and
bits of one round at a time; a coverage phase's reward comes once per run
of it, and runs of these never cross a phase.  A matching run is a block
that may span phases, its f a ``MatchingRewardFunction`` stack of the
block's phase matrices with each round's phase index.
"""

from __future__ import annotations

import inspect
import math
import numbers
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .blocks import block_rounds, row_dots
from .corevec import core_vectors
from .setfn import (
    CoverageFunction,
    MatchingRewardFunction,
    ModularFunction,
    SetFunction,
    assignment_solver,
)

DEFAULT_PHASES = 10
# the largest length numpy gives an array axis
ARRAY_MAX = int(np.iinfo(np.intp).max)


def _check_int(name: str, value, least: int | None = None,
               most: int | None = None) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    _check_real(name, value)  # within the float range
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")
    if most is not None and value > most:
        raise ValueError(f"{name} must be <= {most}, got {value!r}")


def _check_real(name: str, value, rule: str = "", holds=lambda x: True) -> None:
    """Raise ValueError naming the field unless ``value`` is a real number
    (a bool is not) that is finite as a float and ``holds``; ``rule`` says
    what holds."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer past the float range
        finite = False
    if not (finite and holds(value)):
        raise ValueError(f"{name} must be finite{' and ' + rule if rule else ''}, "
                         f"got {value!r}")


@dataclass
class Adversary:
    """A reward stream and the bounds it promises.  Its rewards' proxy
    vectors come from :func:`core_vectors`, which picks the construction by
    each reward's family."""

    kind: str
    alpha: float
    M: float
    G: float
    _make_rounds: object

    def rounds(self, T: int, rng: np.random.Generator
               ) -> Iterator[tuple[SetFunction, int]]:
        """The T rounds' rewards in order, as ``(f, b)`` runs, each one block
        of the harness: f is the reward of the next b rounds, at most
        ``block_rounds(n)``, whose ``value`` takes their (b, k) sets."""
        return self._make_rounds(T, rng)

    def core_strategy(self, rng: np.random.Generator):
        """The callable ``(f, b) -> G`` that gives a run's proxy vectors
        as (b, n) rows, :func:`core_vectors` drawing from ``rng``; an error
        it raises may carry ``rows``, the range of the run's rows it is
        about."""
        return lambda f, b: core_vectors(f, b, rng)


def _modular_rows(b: int, n: int, G: float, rng: np.random.Generator) -> np.ndarray:
    """b nonnegative coefficient vectors as rows, each of norm G unless it
    is 0, from one ``rng.random((b, n))``: the stream of b draws of
    ``rng.random(n)``."""
    w = rng.random((b, n))
    return _rescaled_rows(w, G, w)


def _rescaled_rows(w: np.ndarray, G: float, fallback: np.ndarray) -> np.ndarray:
    """Each row of the (B, n) block ``w`` rescaled to l2 norm G, as
    ``(G / norm) * row`` with the norm ``np.linalg.norm`` gives the row; a
    row of norm 0 is replaced by the same row of ``fallback`` (or by
    ``fallback`` itself, one vector).  A norm past the float range is an
    error: such a row would be rescaled to 0."""
    with np.errstate(over="ignore"):  # named below, without numpy's warning
        norms = np.sqrt(row_dots(w, w))
    if not np.isfinite(norms).all():
        raise ValueError("coefficient rows too large to rescale to norm G: "
                         "their squares overflow (modular-drift jitter * G too large)")
    positive = norms > 0
    out = (G / np.where(positive, norms, 1.0))[:, None] * w
    if not positive.all():
        out = np.where(positive[:, None], out, fallback)
    return out


def _blocks(T: int, n: int, phases: int = 1) -> Iterator[tuple[int, bool]]:
    """(b, new) for consecutive blocks of b rounds covering T rounds: at
    most ``block_rounds(n)`` rounds each, cut where each of the phases of
    ceil(T / phases) rounds starts; ``new`` says a phase starts with it."""
    plen, size = max(1, int(np.ceil(T / phases))), block_rounds(n)
    for start in range(0, T, plen):
        stop = min(start + plen, T)
        for first in range(start, stop, size):
            yield min(size, stop - first), first == start


def make_onehot_adversary(n: int) -> Adversary:
    """Each round rewards exactly one uniformly random element with value 1.

    A block of b rounds draws its hot elements with one ``rng.integers(0,
    n, size=b)``, the stream of one draw for all T rounds, and is one
    reward, its indicator rows."""

    def rounds(T, rng):
        for b, _ in _blocks(T, n):
            w = np.zeros((b, n))
            w[np.arange(b), rng.integers(0, n, size=b)] = 1.0
            yield ModularFunction(w), b

    return Adversary("onehot-ensemble", alpha=1.0, M=1.0, G=1.0, _make_rounds=rounds)


def make_modular_random_adversary(n: int, G: float = 1.0) -> Adversary:
    """Fresh nonnegative coefficient vector of norm exactly G every round,
    drawn a block of rounds at a time; one reward per block."""

    def rounds(T, rng):
        for b, _ in _blocks(T, n):
            yield ModularFunction(_modular_rows(b, n, G, rng)), b

    # each coordinate is at most G, and the sum is at most sqrt(n) * G
    return Adversary("modular-random", alpha=1.0, M=float(np.sqrt(n)) * G, G=G,
                     _make_rounds=rounds)


def make_modular_drift_adversary(n: int, G: float = 1.0,
                                 phases: int = DEFAULT_PHASES,
                                 jitter: float = 0.25) -> Adversary:
    """Piecewise-stationary coefficients: a fresh base direction per phase,
    jittered every round, rescaled to norm exactly G; a round whose jittered
    coefficients clamp to norm 0 plays the base.

    The base is drawn at the start of its phase, so blocks of rounds end at
    phase boundaries; a block draws its jitter with one
    ``rng.standard_normal((B, n))``, the stream of B draws of
    ``rng.standard_normal(n)``, and is one reward."""

    def rounds(T, rng):
        for b, new in _blocks(T, n, phases):
            if new:
                base = _modular_rows(1, n, G, rng)[0]
            w = np.maximum(base + jitter * G * rng.standard_normal((b, n)) / np.sqrt(n),
                           0.0)
            yield ModularFunction(_rescaled_rows(w, G, base)), b

    return Adversary("modular-drift", alpha=1.0, M=float(np.sqrt(n)) * G, G=G,
                     _make_rounds=rounds)


def random_coverage(n: int, universe: int, rng: np.random.Generator,
                    density: float = 0.3) -> CoverageFunction:
    """Random coverage instance normalized by the universe size; every
    element covers at least one item and the full ground set covers
    everything, so f(full set) = 1."""
    covers = np.empty((n, universe), dtype=bool)
    for row in covers:
        row[:] = rng.random(universe) < density
        if not row.any():
            row[rng.integers(0, universe, size=1)] = True
    # guarantee full coverage so the normalized full value is exactly 1
    for e in np.flatnonzero(~covers.any(axis=0)).tolist():
        covers[int(rng.integers(0, n)), e] = True
    return CoverageFunction(covers, universe, scale=1.0 / universe)


def make_coverage_drift_adversary(n: int, universe: int | None = None,
                                  phases: int = DEFAULT_PHASES,
                                  density: float = 0.3) -> Adversary:
    """Piecewise-stationary normalized coverage rewards (M = 1, alpha = 1).

    Marginal vectors of a monotone coverage function are nonnegative and sum
    to f(full set) = 1, so their norm bound is G = M = 1.
    """
    universe = 2 * n if universe is None else universe

    def rounds(T, rng):
        for b, new in _blocks(T, n, phases):
            if new:
                f = random_coverage(n, universe, rng, density)
            yield f, b

    return Adversary("coverage-drift", alpha=1.0, M=1.0, G=1.0, _make_rounds=rounds)


def make_matching_random_adversary(m: int, w_max: float = 1.0,
                                   phases: int = DEFAULT_PHASES) -> Adversary:
    """Piecewise-stationary bipartite matching rewards on m + m vertices.

    One reward per block of up to ``block_rounds(n)`` rounds, which may
    span phases: a stack of the block's phase matrices with each round's
    phase index.  Each phase's ``rng.random((m, m))`` is drawn at its first
    round, in round order, and a phase that runs on into the next block
    keeps its matrix there."""
    # load scipy's compiled assignment solver (the extension module
    # scipy.optimize._lsap, not all of scipy.optimize) while the run is set
    # up, not in its first round
    assignment_solver()

    n = 2 * m

    def rounds(T, rng):
        plen, start, stack = max(1, int(np.ceil(T / phases))), 0, []
        for b, _ in _blocks(T, n):
            phase = np.arange(start, start + b) // plen
            first = int(phase[0])
            # the last phase of the block before, unless this block starts one
            stack = stack[-1:] if start % plen else []
            for _ in range(first + len(stack), int(phase[-1]) + 1):
                stack.append(w_max * rng.random((m, m)))
            yield MatchingRewardFunction(np.stack(stack), phase - first), b
            start += b

    return Adversary("matching-random", alpha=1.0, M=float(m) * w_max,
                     G=float(n) * w_max / float(np.sqrt(2.0)), _make_rounds=rounds)


# the rule a config value of each real factory parameter must meet; the other
# parameters (phases, universe) are counts, integers from 1 to ARRAY_MAX, since
# universe is an array length
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
            raise ValueError(f"matching-random needs an even ground set, got n = {n}")
        n //= 2
    unknown = set(cfg) - set(list(inspect.signature(factory).parameters)[1:])
    if unknown:
        raise ValueError(f"unknown adversary keys: {sorted(unknown)}")
    for name, value in cfg.items():
        if name in _REAL_RULES:
            _check_real(name, value, *_REAL_RULES[name])
        else:
            _check_int(name, value, least=1, most=ARRAY_MAX)
    return factory(n, **cfg)


@dataclass
class HintSpec:
    """How to corrupt the true proxy vectors into hints."""

    mode: str = "perfect"          # perfect | additive-noise | adversarial-flip
    noise_l2: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in ("perfect", "additive-noise", "adversarial-flip"):
            raise ValueError(f"unknown hint mode: {self.mode!r}")
        # a hint's squared distance from its vector is noise_l2**2
        _check_real("noise_l2", self.noise_l2, ">= 0 with a finite square",
                    lambda x: x >= 0.0 and x * x < math.inf)


def generate_hints(fvecs: np.ndarray, spec: HintSpec,
                   rng: np.random.Generator) -> np.ndarray:
    """Hint vectors, as the rows of a new (B, n) array, for the B proxy
    vectors that are the rows of ``fvecs``.

    additive-noise perturbs each vector by a random direction of l2 length
    exactly noise_l2; adversarial-flip negates it outright.  The directions
    come from one ``rng.standard_normal((B, n))``, the stream of B draws of
    ``rng.standard_normal(n)``, and a direction of norm 0 is dropped for
    the next one drawn.
    """
    fv = np.asarray(fvecs, dtype=float)
    if not fv.size or spec.mode == "perfect" or (
            spec.noise_l2 == 0.0 and spec.mode == "additive-noise"):
        h = fv.copy()  # a hint never aliases its proxy vector
    elif spec.mode == "additive-noise":
        z = rng.standard_normal(fv.shape)
        norms = np.sqrt(row_dots(z, z))
        while not norms.all():
            keep = norms != 0.0
            more = rng.standard_normal((len(z) - int(keep.sum()), z.shape[1]))
            z = np.concatenate([z[keep], more])
            norms = np.concatenate([norms[keep], np.sqrt(row_dots(more, more))])
        h = fv + (spec.noise_l2 / norms)[:, None] * z
    else:
        h = -fv
    return h
