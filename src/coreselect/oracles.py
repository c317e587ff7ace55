"""Brute-force oracles that the solvers and constructions are checked against.

Everything here works by exhaustive enumeration or by an explicit value
table, and imports no solver, so ``coreselect verify`` and the tests compare
the library against code that shares none of its logic.
"""

from __future__ import annotations

import itertools

import numpy as np

from .setfn import SetFunction


def enumerate_projection(y: np.ndarray, k: int) -> np.ndarray:
    """Projection onto the capped simplex by exhaustive active-set enumeration."""
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
        n = int(np.log2(len(self._vals)))
        super().__init__(n, value_bound=float(self._vals.max()), monotone=monotone)

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
