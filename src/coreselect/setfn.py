"""Set-function oracles: reward families and small-n structural diagnostics.

Public evaluation works on index iterables, or on the (b, k) sets of a run of
b rounds; the enumeration paths use integer bitmasks internally (element i
<-> bit i), which keeps exhaustive checks cheap for the diagnostics' n <= 20.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from itertools import product
from typing import Iterable

import numpy as np

from .blocks import PLAN_CELLS

ENUM_MAX = 20          # hard guard for 2^n enumerations
STRUCT_CHECK_MAX = 14  # guard for pairwise structural checks
RHO_MAX = 12           # guard for the subset-lattice rho scan


class EnumerationTooLargeError(ValueError):
    """Ground set too large for an exhaustive enumeration path."""


_LSAP = "scipy.optimize._lsap"
_solver = None


def _load_lsap():
    """The extension module ``scipy.optimize._lsap`` loaded from its file
    and registered in ``sys.modules``, or None if there is no such file."""
    spec = importlib.util.find_spec("scipy")
    folders = spec.submodule_search_locations if spec else None
    for folder, suffix in product(folders or (), importlib.machinery.EXTENSION_SUFFIXES):
        path = os.path.join(folder, "optimize", "_lsap" + suffix)
        if os.path.isfile(path):
            loader = importlib.machinery.ExtensionFileLoader(_LSAP, path)
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_loader(_LSAP, loader, origin=path))
            loader.exec_module(module)
            sys.modules[_LSAP] = module
            return module
    return None


def assignment_solver():
    """``scipy.optimize.linear_sum_assignment``, the compiled function
    itself, loaded once from ``scipy.optimize._lsap`` without running
    ``scipy/optimize/__init__.py``.

    That package imports some 320 modules (about 40 MB and half a second),
    none of which the solver needs, and only matching rewards and
    ``verify`` solve assignments, so runs on other rewards never load even
    the extension.  The extension is registered under its own name, so a
    later ``import scipy.optimize`` reuses it and exports this very
    function.  A scipy laid out otherwise (no such file, or no such function
    in it) gets the solver through ``scipy.optimize``; ``pyproject.toml``
    admits every scipy from 1.10 on.
    """
    global _solver
    if _solver is None:
        module = sys.modules.get(_LSAP) or _load_lsap()
        _solver = getattr(module, "linear_sum_assignment", None)
        if _solver is None:
            from scipy.optimize import linear_sum_assignment as _solver
    return _solver


def linear_sum_assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An optimal assignment of ``cost`` from ``assignment_solver()``."""
    return assignment_solver()(cost)


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << int(i)
    return m


def indices_of(mask: int) -> tuple[int, ...]:
    out = []
    while mask:  # one step per set bit, lowest first
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def subset_table(rows: np.ndarray, op) -> np.ndarray:
    """``op`` (``np.add`` or ``np.bitwise_or``) over the rows of each subset
    of ``rows``, indexed by bitmask, by array doubling from a zero entry for
    the empty subset: row i appends ``op(out, rows[i])`` to the table."""
    out = np.zeros((1,) + rows.shape[1:], dtype=rows.dtype)
    for row in rows:
        out = np.concatenate([out, op(out, row)])
    return out


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
        """f of one set of indices; the families a run rewards override it to
        also take a run's (b, k) sets and return their b values."""
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
        """f evaluated on the n + 1 prefixes of a permutation, or of each of
        (b, n) rows of them.  The generic route costs n + 1 oracle calls per
        permutation; families with incremental structure override it."""
        perm = np.asarray(perm)
        vals = np.zeros(perm.shape[:-1] + (self.n + 1,))
        for row, order in zip(vals.reshape(-1, self.n + 1), perm.reshape(-1, self.n).tolist()):
            mask = 0
            for i, idx in enumerate(order, 1):
                mask |= 1 << idx
                row[i] = self.value_mask(mask)
        return vals


class ModularFunction(SetFunction):
    """f(S) = sum of per-element coefficients over S.

    ``w`` may also be a (B, n) block of coefficient vectors, the rewards of
    B rounds as rows: ``value`` then takes a (B, k) index array, one set per
    row, and returns the B rewards, and ``total`` and ``full_value`` hold
    the B row totals, each with the bits of its row alone.  The block is
    monotone if every row is, and bounded by the largest row bound.
    """

    def __init__(self, w: np.ndarray):
        w = np.asarray(w, dtype=float)
        if w.ndim not in (1, 2) or not np.isfinite(w).all():
            raise ValueError("coefficients must be a finite 1-d vector or rows of them")
        self.w = w
        # sum(axis=-1) gives each row of a block its 1-d w.sum()
        self.total = w.sum(axis=-1) if w.ndim == 2 else float(w.sum())
        monotone = not w.size or bool(w.min() >= 0.0)
        # a monotone w equals max(w, 0), so its total is the same sum
        bound = self.total if monotone else np.maximum(w, 0.0).sum(axis=-1)
        if w.ndim == 2:  # a block is bounded by its largest row bound
            bound = np.max(bound, initial=0.0)
        super().__init__(w.shape[-1], value_bound=bound, monotone=monotone)

    def _vector(self) -> np.ndarray:
        """``w`` of one round's reward: a block has no value on one set."""
        if self.w.ndim == 2:
            raise ValueError("a block of rewards takes one set per row; "
                             "ModularFunction(w[i]) is round i's reward")
        return self.w

    def value_mask(self, mask: int) -> float:
        return float(self._vector()[list(indices_of(mask))].sum())

    def value(self, indices: Iterable[int] | np.ndarray) -> float | np.ndarray:
        if self.w.ndim == 2:  # one gather-sum: row i sums w[i] over indices[i]
            return np.take_along_axis(self.w, indices, axis=1).sum(axis=1)
        idx = list(indices)
        return float(self.w[idx].sum()) if idx else 0.0

    def full_value(self) -> float:
        return self.total

    def _enumerate_values(self) -> np.ndarray:
        return subset_table(self._vector(), np.add)

    def prefix_values(self, perm: np.ndarray) -> np.ndarray:
        perm = np.asarray(perm, dtype=int)
        vals = np.zeros(perm.shape[:-1] + (self.n + 1,))
        np.cumsum(self._vector()[perm], axis=-1, out=vals[..., 1:])
        return vals


class CoverageFunction(SetFunction):
    """f(S) = ``scale`` times the size of the union of the covering sets
    chosen by S.

    ``family[i]`` lists the universe items element i covers, kept as row i
    of ``words``, an (n, ceil(U / 64)) array of little-endian uint64 words
    (item j <-> bit j), so a universe of any size works.  A union is the OR
    of the chosen rows, and its size their ``np.bitwise_count``.  ``scale``
    is how the benchmark normalizes instances to value bound 1.
    """

    def __init__(self, family: list[Iterable[int]], universe_size: int,
                 scale: float = 1.0):
        if universe_size < 1:
            raise ValueError("universe must be nonempty")
        self.universe_size = universe_size
        covers = np.zeros((len(family), 64 * -(-universe_size // 64)), dtype=bool)
        for row, items in zip(covers, family):
            items = np.asarray(items if isinstance(items, np.ndarray) else list(items),
                               dtype=np.intp)
            if ((items < 0) | (items >= universe_size)).any():
                raise ValueError("family covers items outside the universe")
            row[items] = True
        self.words = np.packbits(covers, axis=1, bitorder="little").view("<u8")
        self.scale = float(scale)
        super().__init__(len(family), value_bound=self.value(np.arange(len(family))[None])[0],
                         monotone=True)

    def _counts(self, sets: np.ndarray, op=np.bitwise_or.reduce) -> np.ndarray:
        """The item count of the union of each row of the (b, m) index array
        ``sets``, or, with ``op=np.bitwise_or.accumulate``, of each prefix of
        each row, as (b, m) counts.  The rows go c at a time, so that their
        gathered (c, m, W) words stay within ``PLAN_CELLS`` words."""
        step = max(1, PLAN_CELLS // max(1, sets.shape[1] * self.words.shape[1]))
        return np.concatenate([
            np.bitwise_count(op(self.words[sets[i:i + step]], axis=1)).sum(axis=-1)
            for i in range(0, len(sets), step)])

    def value_mask(self, mask: int) -> float:
        return float(self.value(np.array([indices_of(mask)], dtype=np.intp))[0])

    def value(self, indices: Iterable[int] | np.ndarray) -> float | np.ndarray:
        if isinstance(indices, np.ndarray) and indices.ndim == 2:
            return self.scale * self._counts(indices)
        return self.value_mask(mask_of(indices))

    def _enumerate_values(self) -> np.ndarray:
        return self.scale * np.bitwise_count(subset_table(self.words, np.bitwise_or)).sum(axis=1)

    def prefix_values(self, perm: np.ndarray) -> np.ndarray:
        perm = np.asarray(perm, dtype=np.intp)
        counts = self._counts(perm.reshape(-1, self.n), np.bitwise_or.accumulate)
        # the empty prefix covers nothing
        return self.scale * np.insert(counts, 0, 0, axis=1).reshape(perm.shape[:-1] + (-1,))


class MatchingRewardFunction(SetFunction):
    """Minimum-cost perfect matching value on the induced balanced subgraph.

    The ground set is U (indices 0..m-1) followed by V (indices m..2m-1); a
    subset that does not pick equally many U and V vertices (or picks none)
    evaluates to 0.

    ``w`` may also be a (P, m, m) stack of matrices with ``phase``, each
    round's index into it: the rewards of a block of rounds, round i's
    being ``w[phase[i]]``.  ``value`` then takes the block's (b, k) sets,
    one per round, and ``full_value`` returns the b full-set values, each
    with the bits of its round's reward alone.  A stack is bounded by its
    largest matrix's bound.
    """

    def __init__(self, w: np.ndarray, phase: np.ndarray | None = None):
        w = np.asarray(w, dtype=float)
        if w.ndim not in (2, 3) or w.shape[-2] != w.shape[-1]:
            raise ValueError("weight matrix must be square, or a stack of square matrices")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("weights must be finite and nonnegative")
        if (phase is None) != (w.ndim == 2):
            raise ValueError("a stack of weight matrices takes each round's phase index, "
                             "and one matrix takes none")
        if phase is not None:
            phase = np.asarray(phase, dtype=np.intp)
            if phase.ndim != 1 or not ((phase >= 0) & (phase < len(w))).all():
                raise ValueError("phase indices must name matrices of the stack")
        self.w, self.phase = w, phase
        self._stack = w if phase is not None else w[None]
        self.m = w.shape[-1]
        super().__init__(2 * self.m, value_bound=float(self.m * w.max()) if w.size else 0.0,
                         monotone=False)

    def _matrix(self) -> np.ndarray:
        """``w`` of one round's reward: a block has no value on one set."""
        if self.phase is not None:
            raise ValueError("a block of matching rewards takes one set per round; "
                             "MatchingRewardFunction(w[phase[i]]) is round i's reward")
        return self.w

    def split(self, indices: Iterable[int]) -> tuple[list[int], list[int]]:
        rows, cols = [], []
        for i in indices:
            (rows if i < self.m else cols).append(i if i < self.m else i - self.m)
        return rows, cols

    def is_balanced(self, indices: Iterable[int]) -> bool:
        rows, cols = self.split(indices)
        return len(rows) == len(cols) and len(rows) > 0

    def value(self, indices: Iterable[int] | np.ndarray) -> float | np.ndarray:
        """The value of one set, or of each row of a (b, k) index array:
        the rounds of a block, or b sets of this one reward.

        Each row's value has the bits of ``_value`` on it.  One gather takes
        the h x h submatrix of every balanced row (h = k / 2), its U entries
        first and then its V entries, each in the row's order, as ``split``
        gives them; the solver takes one matrix per call, and one gather-sum
        adds up the matched entries.
        """
        if not (isinstance(indices, np.ndarray) and indices.ndim == 2):
            return self._value(indices)
        b, k = indices.shape
        out = np.zeros(b)
        in_u = indices < self.m
        h = k // 2
        rows = np.flatnonzero(in_u.sum(axis=1) == h) if h and k == 2 * h else []
        if not len(rows):
            return out
        sets = indices[rows]
        sets = np.take_along_axis(sets, np.argsort(~in_u[rows], axis=1, kind="stable"),
                                  axis=1)
        phase = self.phase[rows] if self.phase is not None else np.zeros_like(rows)
        sub = self._stack[phase[:, None, None], sets[:, :h, None], sets[:, None, h:] - self.m]
        solve = assignment_solver()
        cols = np.array([solve(s)[1] for s in sub])
        out[rows] = sub[np.arange(len(rows))[:, None], np.arange(h), cols].sum(axis=1)
        return out

    def full_value(self) -> float | np.ndarray:
        """f of the whole ground set, or a block's b per-round values: each
        matrix's assignment is solved once, on the matrix itself."""
        if self._full_cache is None:
            solve = assignment_solver()
            totals = np.array([w[solve(w)].sum() for w in self._stack])
            self._full_cache = (totals[self.phase] if self.phase is not None
                                else float(totals[0]))
        return self._full_cache

    def _value(self, indices: Iterable[int]) -> float:
        w = self._matrix()
        rows, cols = self.split(indices)
        if len(rows) != len(cols) or not rows:
            return 0.0
        sub = w[np.array(rows)[:, None], cols]
        r, c = linear_sum_assignment(sub)
        return float(sub[r, c].sum())

    def value_mask(self, mask: int) -> float:
        return self._value(indices_of(mask))

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
        nu = f._vector() - h._vector()
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

