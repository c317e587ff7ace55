"""Set-function oracles: reward families and small-n structural diagnostics.

Public evaluation works on index iterables; the enumeration paths use integer
bitmasks internally (element i <-> bit i), which keeps exhaustive checks cheap
for the n <= 20 instances the diagnostics are meant for.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

ENUM_MAX = 20          # hard guard for 2^n enumerations
STRUCT_CHECK_MAX = 14  # guard for pairwise structural checks
RHO_MAX = 12           # guard for the subset-lattice rho scan


class EnumerationTooLargeError(ValueError):
    """Ground set too large for an exhaustive enumeration path."""


def linear_sum_assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``scipy.optimize.linear_sum_assignment``, imported on first use.

    Loading ``scipy.optimize`` takes longer and more memory than numpy and
    scipy together, and only matching rewards and ``verify`` solve
    assignments, so runs on other rewards never load it.
    """
    from scipy.optimize import linear_sum_assignment as solve

    return solve(cost)


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << int(i)
    return m


def indices_of(mask: int) -> tuple[int, ...]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


class SetFunction:
    """Evaluation oracle for a normalized set function on {0, ..., n-1}.

    ``value_bound`` is an upper bound M on f; ``monotone`` is the caller's
    declaration, trusted by the policies and spot-checked by the diagnostics.
    """

    def __init__(self, n: int, value_bound: float, monotone: bool = True):
        if n < 1:
            raise ValueError("ground set must be nonempty")
        self.n = n
        self.value_bound = float(value_bound)
        self.monotone = monotone
        self._values_cache: np.ndarray | None = None
        self._full_cache: float | None = None

    def value_mask(self, mask: int) -> float:
        raise NotImplementedError

    def value(self, indices: Iterable[int]) -> float:
        return self.value_mask(mask_of(indices))

    def full_value(self) -> float:
        if self._full_cache is None:
            self._full_cache = self.value_mask((1 << self.n) - 1)
        return self._full_cache

    def values_all(self) -> np.ndarray:
        """f over all 2^n subsets, indexed by bitmask (cached after first use)."""
        if self._values_cache is None:
            if self.n > ENUM_MAX:
                raise EnumerationTooLargeError(f"n = {self.n} > {ENUM_MAX}")
            self._values_cache = self._enumerate_values()
        return self._values_cache

    def _enumerate_values(self) -> np.ndarray:
        return np.array([self.value_mask(m) for m in range(1 << self.n)])

    def prefix_values(self, perm: np.ndarray) -> np.ndarray:
        """f evaluated on the n + 1 prefixes of a permutation.

        The generic route costs n + 1 oracle calls; families with incremental
        structure override it.
        """
        vals = np.empty(self.n + 1)
        vals[0] = 0.0
        mask = 0
        for i, idx in enumerate(perm):
            mask |= 1 << int(idx)
            vals[i + 1] = self.value_mask(mask)
        return vals


class ModularFunction(SetFunction):
    """f(S) = sum of per-element coefficients over S."""

    def __init__(self, w: np.ndarray):
        w = np.asarray(w, dtype=float)
        if w.ndim != 1 or not np.isfinite(w).all():
            raise ValueError("coefficients must be a finite 1-d vector")
        self.w = w
        self.total = float(w.sum())
        monotone = not w.size or bool(w.min() >= 0.0)
        # a monotone w equals max(w, 0), so its total is the same sum
        super().__init__(w.size, value_bound=self.total if monotone
                         else float(np.maximum(w, 0.0).sum()), monotone=monotone)

    def value_mask(self, mask: int) -> float:
        return float(self.w[list(indices_of(mask))].sum())

    def value(self, indices: Iterable[int]) -> float:
        idx = list(indices)
        return float(self.w[idx].sum()) if idx else 0.0

    def full_value(self) -> float:
        return self.total

    def _enumerate_values(self) -> np.ndarray:
        out = np.zeros(1)
        for i in range(self.n):
            out = np.concatenate([out, out + self.w[i]])
        return out

    def prefix_values(self, perm: np.ndarray) -> np.ndarray:
        vals = np.empty(self.n + 1)
        vals[0] = 0.0
        np.cumsum(self.w[np.asarray(perm, dtype=int)], out=vals[1:])
        return vals


class CoverageFunction(SetFunction):
    """f(S) = ``scale`` times the size of the union of the covering sets
    chosen by S.

    ``family[i]`` lists the universe items element i covers; ``scale`` is
    how the benchmark normalizes instances to value bound 1.
    """

    def __init__(self, family: list[Iterable[int]], universe_size: int,
                 scale: float = 1.0):
        if universe_size < 1 or universe_size > 63:
            raise ValueError("universe size must be in [1, 63]")
        self.universe_size = universe_size
        self.family_bits = np.array(
            [np.uint64(mask_of(s)) for s in family], dtype=np.uint64
        )
        if np.any(self.family_bits >> np.uint64(universe_size)):
            raise ValueError("family covers items outside the universe")
        self.scale = float(scale)
        n = len(family)
        full = self._cover_weight(np.bitwise_or.reduce(self.family_bits)) if n else 0.0
        super().__init__(n, value_bound=full, monotone=True)

    def _cover_weight(self, bits: np.uint64) -> float:
        return self.scale * int(np.bitwise_count(bits))

    def value_mask(self, mask: int) -> float:
        bits = np.uint64(0)
        i = 0
        while mask:
            if mask & 1:
                bits |= self.family_bits[i]
            mask >>= 1
            i += 1
        return self._cover_weight(bits)

    def _enumerate_values(self) -> np.ndarray:
        bits = np.zeros(1, dtype=np.uint64)
        for i in range(self.n):
            bits = np.concatenate([bits, bits | self.family_bits[i]])
        return self.scale * np.bitwise_count(bits).astype(float)

    def prefix_values(self, perm: np.ndarray) -> np.ndarray:
        # one incremental union per step instead of rebuilding each prefix
        vals = np.empty(self.n + 1)
        vals[0] = 0.0
        bits = np.uint64(0)
        for i, idx in enumerate(perm):
            bits |= self.family_bits[int(idx)]
            vals[i + 1] = self._cover_weight(bits)
        return vals


class MatchingRewardFunction(SetFunction):
    """Minimum-cost perfect matching value on the induced balanced subgraph.

    The ground set is U (indices 0..m-1) followed by V (indices m..2m-1); a
    subset that does not pick equally many U and V vertices (or picks none)
    evaluates to 0.
    """

    def __init__(self, w: np.ndarray):
        w = np.asarray(w, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("weight matrix must be square")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("weights must be finite and nonnegative")
        self.w = w
        self.m = w.shape[0]
        super().__init__(2 * self.m, value_bound=float(self.m * w.max()) if w.size else 0.0,
                         monotone=False)

    def split(self, indices: Iterable[int]) -> tuple[list[int], list[int]]:
        rows, cols = [], []
        for i in indices:
            (rows if i < self.m else cols).append(i if i < self.m else i - self.m)
        return rows, cols

    def is_balanced(self, indices: Iterable[int]) -> bool:
        rows, cols = self.split(indices)
        return len(rows) == len(cols) and len(rows) > 0

    def value(self, indices: Iterable[int]) -> float:
        rows, cols = self.split(indices)
        if len(rows) != len(cols) or not rows:
            return 0.0
        sub = self.w[np.ix_(rows, cols)]
        r, c = linear_sum_assignment(sub)
        return float(sub[r, c].sum())

    def value_mask(self, mask: int) -> float:
        return self.value(indices_of(mask))

    def balanced_masks(self) -> list[int]:
        """All nonempty balanced subsets, as bitmasks."""
        out = []
        for mask in range(1, 1 << self.n):
            if self.is_balanced(indices_of(mask)):
                out.append(mask)
        return out


def distance_sup(f: SetFunction, h: ModularFunction) -> float:
    """max over all subsets of |f(S) - h(S)|.

    Modular-vs-modular has the O(n) closed form max(sum of positive gaps,
    -sum of negative gaps); anything else is enumerated exactly, guarded by
    ``ENUM_MAX``.
    """
    if f.n != h.n:
        raise ValueError("mismatched ground sets")
    if isinstance(f, ModularFunction):
        nu = f.w - h.w
        return float(max(np.maximum(nu, 0.0).sum(), -np.minimum(nu, 0.0).sum()))
    _guard(f.n, ENUM_MAX, "a non-modular distance")
    return float(np.abs(f.values_all() - h.values_all()).max())


def _guard(n: int, cap: int, what: str) -> None:
    if n > cap:
        raise EnumerationTooLargeError(f"n = {n} > {cap} for {what}")


def check_submodular(f: SetFunction, tol: float = 1e-9) -> bool:
    """Exhaustive diminishing-returns check.

    Verified over all pairs of added elements at every base set, which is
    equivalent to the full (A subset of B, i outside B) family of
    inequalities on the subset lattice.
    """
    _guard(f.n, STRUCT_CHECK_MAX, "submodularity check")
    fv = f.values_all()
    n = f.n
    masks = np.arange(1 << n)
    for i in range(n):
        bi = 1 << i
        for j in range(i + 1, n):
            bj = 1 << j
            base = masks[(masks & bi == 0) & (masks & bj == 0)]
            if np.any(fv[base | bi] + fv[base | bj] + tol < fv[base | bi | bj] + fv[base]):
                return False
    return True


def check_monotone(f: SetFunction, tol: float = 1e-9) -> bool:
    """Exhaustive monotonicity check over every covering pair S, S + {i}."""
    _guard(f.n, STRUCT_CHECK_MAX, "monotonicity check")
    fv = f.values_all()
    masks = np.arange(1 << f.n)
    for i in range(f.n):
        bi = 1 << i
        base = masks[masks & bi == 0]
        if np.any(fv[base | bi] + tol < fv[base]):
            return False
    return True


def estimate_rho(f: SetFunction, tol: float = 1e-12) -> float:
    """Largest rho in (0, 1] with rho * (f(B+i) - f(B)) <= f(A+i) - f(A) for
    all A subset of B and i outside B.

    Returns the minimum marginal-gain ratio over the subset lattice, capped
    at 1.  A pair with positive denominator and zero numerator means no
    positive rho works; the result is then 0.  Zero-denominator pairs impose
    no constraint and are skipped.
    """
    _guard(f.n, RHO_MAX, "rho estimation")
    if not f.monotone:
        raise ValueError("rho estimation expects a monotone oracle")
    fv = f.values_all()
    n = f.n
    masks = np.arange(1 << n)
    rho = 1.0
    for i in range(n):
        bi = 1 << i
        free = masks[masks & bi == 0]
        marg = fv[free | bi] - fv[free]
        # smallest marginal over all subsets A of each B: subset-min transform
        best = np.full(1 << n, np.inf)
        best[free] = marg
        for j in range(n):
            if j == i:
                continue
            bj = 1 << j
            hi = masks[(masks & bj != 0) & (masks & bi == 0)]
            best[hi] = np.minimum(best[hi], best[hi ^ bj])
        den = marg
        pos = den > tol
        if not pos.any():
            continue
        num = best[free][pos]
        if np.any(num <= tol):
            return 0.0
        rho = min(rho, float((num / den[pos]).min()))
    return min(rho, 1.0)

