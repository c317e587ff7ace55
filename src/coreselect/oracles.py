"""Brute-force oracles that the solvers and constructions are checked against.

Everything here works by exhaustive enumeration or by an explicit value
table, and imports no solver, so ``coreselect verify`` and the tests compare
the library against code that shares none of its logic.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from .setfn import SetFunction


def enumerate_projection(y: np.ndarray, k: int) -> np.ndarray:
    """Projection onto the capped simplex by exhaustive active-set enumeration.

    Candidates are ranked by their float distance to y, so once |y| is past
    about 1e16 the ranking is rounding and the answer can be wrong; use
    :func:`exact_projection` there."""
    y = np.asarray(y, dtype=float)
    n = y.size
    best, best_d = None, np.inf
    for assign in itertools.product((0, 1, 2), repeat=n):
        free = [i for i in range(n) if assign[i] == 1]
        one = [i for i in range(n) if assign[i] == 2]
        p = np.zeros(n)
        p[one] = 1.0
        if free:
            tau = (sum(y[i] for i in free) + len(one) - k) / len(free)
            ok = True
            for i in free:
                p[i] = y[i] - tau
                if p[i] < -1e-12 or p[i] > 1.0 + 1e-12:
                    ok = False
                    break
            if not ok:
                continue
        elif len(one) != k:
            continue
        d = float(np.linalg.norm(p - y))
        if d < best_d - 1e-13:
            best_d, best = d, np.clip(p, 0.0, 1.0)
    return best


def exact_projection(y: np.ndarray, k: int) -> list[Fraction]:
    """Projection onto the capped simplex in exact rational arithmetic.

    The projection is clamp(y - tau, 0, 1), with tau the root of
    total(tau) = sum_i clamp(y_i - tau, 0, 1) = k, which falls from n to 0
    and is linear between the breakpoints {y_i - 1} and {y_i}.  Every float
    is an integer over a power of two, so over the largest such denominator
    the scores, the breakpoints and every total are integers: a bisection
    finds the two adjacent breakpoints whose totals bracket k, and tau is
    interpolated between them as a fraction.  Any finite scores work, at
    any scale; the cost is O(n log n) big-integer operations.
    """
    scores = [Fraction(float(v)) for v in np.asarray(y, dtype=float)]
    den = max(f.denominator for f in scores)
    ints = [f.numerator * (den // f.denominator) for f in scores]
    bps = sorted(set(ints) | {v - den for v in ints})

    def total(tau: int) -> int:
        return sum(min(max(v - tau, 0), den) for v in ints)

    # total(bps[0]) = n * den >= k * den and total(bps[-1]) = 0 < k * den
    lo, hi = 0, len(bps) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if total(bps[mid]) >= k * den:
            lo = mid
        else:
            hi = mid
    at_lo, at_hi = total(bps[lo]), total(bps[hi])
    tau = bps[lo] + Fraction((at_lo - k * den) * (bps[hi] - bps[lo]), at_lo - at_hi)
    return [min(max(v - tau, Fraction(0)), Fraction(den)) / den for v in ints]


def enumerate_lmo_value(cost: np.ndarray, k: int) -> float:
    """Minimum of <cost, vertex> over every k-subset vertex."""
    cost = np.asarray(cost, dtype=float)
    return min(sum(cost[list(c)]) for c in itertools.combinations(range(cost.size), k))


def enumerate_matching_value(w: np.ndarray) -> float:
    """Minimum cost of a perfect matching of the square cost matrix w, over
    every permutation."""
    m = w.shape[0]
    return min(sum(w[i, pi[i]] for i in range(m)) for pi in itertools.permutations(range(m)))


class TableFunction(SetFunction):
    """Set function given by its value on every bitmask (length 2^n table)."""

    def __init__(self, vals, monotone: bool = True):
        self._vals = np.asarray(vals, dtype=float)
        size = len(self._vals)
        if not size or size & (size - 1):
            raise ValueError(f"the table's length {size} is not a power of two")
        super().__init__(size.bit_length() - 1, monotone=monotone)

    def value_mask(self, mask: int) -> float:
        return float(self._vals[mask])


def random_monotone_function(n: int, rng: np.random.Generator) -> TableFunction:
    """Random normalized strictly monotone function (values built along the
    lattice by nonnegative increments)."""
    vals = np.zeros(1 << n)
    for mask in range(1, 1 << n):
        parents = [mask & ~(1 << i) for i in range(n) if mask >> i & 1]
        base = max(vals[p] for p in parents)
        vals[mask] = base + 0.05 + rng.random()
    vals /= vals[-1]
    return TableFunction(vals)


def indicator_game() -> TableFunction:
    """First three-player game: worth 1 as soon as element 0 or 1 shows up."""
    return TableFunction([1.0 if mask & 0b011 else 0.0 for mask in range(8)])


def second_game() -> TableFunction:
    """Second three-player game: worth 2 with element 0 present, 1 with
    element 1 but not 0, and 0 otherwise."""
    return TableFunction([2.0 if mask & 0b001 else 1.0 if mask & 0b010 else 0.0
                          for mask in range(8)])
