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
    """``op`` (``np.add`` or ``np.bitwise_or``) over the entries of each
    subset of the last axis of ``rows``, indexed by bitmask: (..., n)
    entries give (..., 2^n) tables.  They are filled in place by doubling
    from a zero entry for the empty subset: entry i fills the second half of
    the first 2^(i+1) with ``op(first half, rows[..., i])``."""
    out = np.empty(rows.shape[:-1] + (1 << rows.shape[-1],), dtype=rows.dtype)
    out[..., 0] = 0
    for i in range(rows.shape[-1]):
        op(out[..., :1 << i], rows[..., i, None], out=out[..., 1 << i:2 << i])
    return out


class SetFunction:
    """Evaluation oracle for a normalized set function on {0, ..., n-1}.

    ``monotone`` is the caller's declaration, spot-checked by the diagnostics.

    A subclass defines ``value`` or ``value_mask``; each defaults to the
    other.  A reward family's ``value`` is its one valuation body, on a
    run's (b, k) sets, and one set is a run of one row (``_run``); the
    subset table and the prefix values are built on runs.
    """

    def __init__(self, n: int, monotone: bool = True):
        if n < 1:
            raise ValueError("ground set must be nonempty")
        self.n = n
        self.monotone = monotone
        self._values_cache: np.ndarray | None = None
        self._full_cache: float | None = None

    def value_mask(self, mask: int) -> float:
        """f of the set of the bits of ``mask``."""
        return self.value(indices_of(mask))

    def value(self, indices: Iterable[int] | np.ndarray) -> float | np.ndarray:
        """f of one set of indices, or of each row of a run's (b, k) sets,
        each row through ``value_mask``."""
        sets, one = self._run(indices)
        out = np.array([self.value_mask(mask_of(s)) for s in sets.tolist()], dtype=float)
        return float(out[0]) if one else out

    def _run(self, indices: Iterable[int] | np.ndarray,
             rounds: int | None = None) -> tuple[np.ndarray, bool]:
        """``indices`` as the (b, k) sets of a run, and whether they were one
        set, each index checked to lie in [0, n).  A (b, k) index array is
        taken as it is, but a block of ``rounds`` rewards takes exactly one
        set per round; one set of indices becomes a run of one row."""
        if isinstance(indices, np.ndarray) and indices.ndim == 2:
            if rounds is not None and len(indices) != rounds:
                raise ValueError(f"a block of {rounds} rounds takes {rounds} sets, "
                                 f"one per round, got {len(indices)}")
            sets, one = indices, False
        else:
            sets, one = np.array([list(indices)], dtype=np.intp), True
        outside = sets[(sets < 0) | (sets >= self.n)]
        if outside.size:
            raise ValueError(f"index {outside[0]} is outside the ground set [0, {self.n})")
        return sets, one

    def full_value(self) -> float:
        if self._full_cache is None:
            self._full_cache = self.value(range(self.n))
        return self._full_cache

    def values_all(self) -> np.ndarray:
        """f over all 2^n subsets, indexed by bitmask (cached after first use)."""
        if self._values_cache is None:
            if self.n > ENUM_MAX:
                raise EnumerationTooLargeError(f"n = {self.n} > {ENUM_MAX}")
            self._values_cache = self._enumerate_values()
        return self._values_cache

    def _enumerate_values(self) -> np.ndarray:
        """Each subset's value with the bits ``value`` gives it: the empty
        set's (a block of rewards raises here), then one ``value`` call per
        slice of PLAN_CELLS // n sets of one size, indices lowest first (a
        doubling table, one element at a time, would move the last bits)."""
        n, out = self.n, np.full(1 << self.n, self.value(()))
        sizes = np.bitwise_count(np.arange(1 << n))
        by_size = np.split(np.argsort(sizes, kind="stable"), np.cumsum(np.bincount(sizes))[:-1])
        rows, bits = max(1, PLAN_CELLS // n), 1 << np.arange(n)
        for size, masks in enumerate(by_size[1:], 1):
            for first in range(0, len(masks), rows):
                chunk = masks[first:first + rows]
                members = np.flatnonzero(chunk[:, None] & bits != 0) % n
                out[chunk] = self.value(members.reshape(len(chunk), size))
        return out

    def prefix_values(self, perm: np.ndarray) -> np.ndarray:
        """f evaluated on the n + 1 prefixes of a permutation, or of each of
        (b, n) rows of them: one ``value`` call per prefix length, on one
        set or on the (b, i) prefixes.  Families with incremental structure
        override it."""
        perm = np.asarray(perm)
        vals = np.zeros(perm.shape[:-1] + (self.n + 1,))
        for i in range(1, self.n + 1):
            vals[..., i] = self.value(perm[..., :i])
        return vals


class ModularFunction(SetFunction):
    """f(S) = sum of per-element coefficients over S.

    ``value`` takes one set or a run's (b, k) sets, valued by one
    gather-sum.  ``w`` may also be a (B, n) block of coefficient vectors,
    the rewards of B rounds as rows, which takes one set per row; ``total``
    and ``full_value`` then hold the B row totals, each with the bits of
    its row alone.  The block is monotone if every row is.
    """

    def __init__(self, w: np.ndarray):
        w = np.asarray(w, dtype=float)
        if w.ndim not in (1, 2) or not np.isfinite(w).all():
            raise ValueError("coefficients must be a finite 1-d vector or rows of them")
        self.w = w
        # sum(axis=-1) gives each row of a block its 1-d w.sum()
        self.total = w.sum(axis=-1) if w.ndim == 2 else float(w.sum())
        super().__init__(w.shape[-1], monotone=not w.size or bool(w.min() >= 0.0))

    def _vector(self) -> np.ndarray:
        """``w`` of one round's reward: a block has no value on one set."""
        if self.w.ndim == 2:
            raise ValueError("a block of rewards takes one set per row; "
                             "ModularFunction(w[i]) is round i's reward")
        return self.w

    def value(self, indices: Iterable[int] | np.ndarray) -> float | np.ndarray:
        sets, one = self._run(indices, len(self.w) if self.w.ndim == 2 else None)
        # one gather-sum: row i sums w[i], or the one w, over sets[i]
        w = self._vector() if one else self.w
        out = np.take_along_axis(np.atleast_2d(w), sets, axis=1).sum(axis=1)
        return float(out[0]) if one else out

    def full_value(self) -> float:
        return self.total


class CoverageFunction(SetFunction):
    """f(S) = ``scale`` times the size of the union of the covering sets
    chosen by S.

    ``family[i]`` lists the universe items element i covers, kept as row i
    of ``words``, an (n, ceil(U / 64)) array of little-endian uint64 words
    (item j <-> bit j), so a universe of any size works.  ``family`` may
    also be the (n, U) boolean incidence itself, row i marking the items
    element i covers, which is packed as it is.  A union is the OR of the
    chosen rows, and its size their ``np.bitwise_count``.  ``scale`` is how
    the benchmark normalizes instances to full value 1.
    """

    def __init__(self, family: list[Iterable[int]] | np.ndarray, universe_size: int,
                 scale: float = 1.0):
        if universe_size < 1:
            raise ValueError("universe must be nonempty")
        if isinstance(family, np.ndarray) and family.dtype == bool:
            if family.ndim != 2 or family.shape[1] != universe_size:
                raise ValueError(f"an incidence of a universe of {universe_size} items "
                                 f"must be (n, {universe_size}), got shape {family.shape}")
            covers = family
        else:
            covers = np.zeros((len(family), universe_size), dtype=bool)
            for row, items in zip(covers, family):
                items = np.asarray(items if isinstance(items, np.ndarray) else list(items),
                                   dtype=np.intp)
                if ((items < 0) | (items >= universe_size)).any():
                    raise ValueError("family covers items outside the universe")
                row[items] = True
        # whole words: the packed bytes, then zeros up to a multiple of 8
        packed = np.packbits(covers, axis=1, bitorder="little")
        words = np.zeros((len(covers), 8 * -(-universe_size // 64)), dtype=np.uint8)
        words[:, :packed.shape[1]] = packed
        self.words = words.view("<u8")
        self.scale = float(scale)
        super().__init__(len(covers))

    def _counts(self, sets: np.ndarray, prefixes: bool = False) -> np.ndarray:
        """The item count of the union of each row of the (b, m) index array
        ``sets``, or, with ``prefixes``, of each prefix of each row, as (b, m)
        counts.  The rows go c at a time and their sets s at a time, the
        union so far carried from slice to slice, so that their gathered
        (c, s, W) words stay within ``PLAN_CELLS`` words (one set's W words
        at least)."""
        (b, m), W = sets.shape, self.words.shape[1]
        span = max(1, min(m, PLAN_CELLS // W))
        step = max(1, PLAN_CELLS // (span * W))
        op = np.bitwise_or.accumulate if prefixes else np.bitwise_or.reduce
        counts = np.empty((b, m) if prefixes else b, dtype=np.uint64)
        for i in range(0, b, step):
            for j in range(0, max(m, 1), span):  # once for sets of no elements
                part = op(self.words[sets[i:i + step, j:j + span]], axis=1)
                if j:  # with the union of the sets before the slice
                    part |= union
                union = part[:, -1:] if prefixes else part
                if prefixes:
                    counts[i:i + step, j:j + span] = np.bitwise_count(part).sum(axis=-1)
            if not prefixes:
                counts[i:i + step] = np.bitwise_count(union).sum(axis=-1)
        return counts

    def value(self, indices: Iterable[int] | np.ndarray) -> float | np.ndarray:
        sets, one = self._run(indices)
        out = self.scale * self._counts(sets)
        return float(out[0]) if one else out

    def _enumerate_values(self) -> np.ndarray:
        return self.scale * np.bitwise_count(subset_table(self.words.T, np.bitwise_or)).sum(axis=0)

    def prefix_values(self, perm: np.ndarray) -> np.ndarray:
        perm = np.asarray(perm, dtype=np.intp)
        counts = self._counts(perm.reshape(-1, self.n), prefixes=True)
        # the empty prefix covers nothing
        return self.scale * np.insert(counts, 0, 0, axis=1).reshape(perm.shape[:-1] + (-1,))


class MatchingRewardFunction(SetFunction):
    """Minimum-cost perfect matching value on the induced balanced subgraph.

    The ground set is U (indices 0..m-1) followed by V (indices m..2m-1); a
    subset that does not pick equally many U and V vertices (or picks none)
    evaluates to 0.

    ``value`` takes one set or a run's (b, k) sets: b sets of one matrix,
    or one set per round of a block, whose ``w`` is a (P, m, m) stack of
    matrices with ``phase``, each round's index into it, round i's reward
    being ``w[phase[i]]``.  A block's ``full_value`` is its b full-set
    values, each with the bits of its round's reward alone, read off
    ``totals``, the matching value of each matrix of the stack: solved on
    the first ``full_value``, unless ``core_vectors`` has already set them
    from its own dual solves.
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
        self.totals: np.ndarray | None = None
        self.m = w.shape[-1]
        super().__init__(2 * self.m, monotone=False)

    def is_balanced(self, indices: Iterable[int]) -> bool:
        in_u = [i < self.m for i in indices]
        return 0 < 2 * sum(in_u) == len(in_u)

    def value(self, indices: Iterable[int] | np.ndarray) -> float | np.ndarray:
        """The value of one set, or of each row of a (b, k) index array:
        the rounds of a block, or b sets of this one reward.

        One gather takes the h x h submatrix of every balanced row
        (h = k / 2), its U entries first and then its V entries, each in the
        row's order; the solver takes one matrix per call, and one
        gather-sum adds up the matched entries.  Other rows are worth 0.
        """
        sets, one = self._run(indices, None if self.phase is None else len(self.phase))
        if one and self.phase is not None:
            raise ValueError("a block of matching rewards takes one set per round; "
                             "MatchingRewardFunction(w[phase[i]]) is round i's reward")
        b, k = sets.shape
        out = np.zeros(b)
        in_u = sets < self.m
        h = k // 2
        rows = np.flatnonzero(in_u.sum(axis=1) == h) if h and k == 2 * h else []
        if len(rows):
            picked = np.take_along_axis(
                sets[rows], np.argsort(~in_u[rows], axis=1, kind="stable"), axis=1)
            phase = self.phase[rows] if self.phase is not None else np.zeros_like(rows)
            sub = self._stack[phase[:, None, None], picked[:, :h, None],
                              picked[:, None, h:] - self.m]
            solve = assignment_solver()
            cols = np.array([solve(s)[1] for s in sub])
            out[rows] = sub[np.arange(len(rows))[:, None], np.arange(h), cols].sum(axis=1)
        return float(out[0]) if one else out

    def full_value(self) -> float | np.ndarray:
        """f of the whole ground set, or a block's b per-round values: each
        matrix's assignment is solved once, on the matrix itself, unless
        ``totals`` holds its value already."""
        if self.totals is None:
            solve = assignment_solver()
            self.totals = np.array([w[solve(w)].sum() for w in self._stack])
        return self.totals[self.phase] if self.phase is not None else float(self.totals[0])

    def balanced_masks(self) -> list[int]:
        """All nonempty balanced subsets, as bitmasks."""
        out = []
        for mask in range(1, 1 << self.n):
            if self.is_balanced(indices_of(mask)):
                out.append(mask)
        return out


def distance_sup(f: SetFunction, h: np.ndarray) -> float | np.ndarray:
    """max over all subsets of |f(S) - h(S)| for the modular hint h given
    by its coefficients, one vector of n, or the b such gaps of a block of
    (b, n) hint rows, each with the bits of its row alone.  Hints that are
    not finite, or not of that shape, are a ``ValueError``.

    Modular-vs-modular has the O(n) closed form max(sum of positive gaps,
    -sum of negative gaps); a modular f then takes one vector or a block of
    rows of the hints' shape.  Any other f is tabulated over all 2^n
    subsets, guarded by ``ENUM_MAX``, and so are the hints, at most
    ``PLAN_CELLS`` entries at a time (one hint's 2^n where that is more).
    """
    h = np.asarray(h, dtype=float)
    if h.ndim not in (1, 2) or h.shape[-1] != f.n:
        raise ValueError(f"the hints must be one vector or (b, n) rows of n = {f.n} "
                         f"coefficients, got shape {h.shape}")
    if not np.isfinite(h).all():
        raise ValueError("the hints contain non-finite entries")
    if isinstance(f, ModularFunction):
        # a block has no distance from one vector, nor from another block's rows
        nu = f.w - h if f.w.shape == h.shape else f._vector() - h
        # np.maximum keeps the first of equal sums, as Python's max does
        gap = np.maximum(np.maximum(nu, 0.0).sum(axis=-1), -np.minimum(nu, 0.0).sum(axis=-1))
        return gap if gap.ndim else float(gap)
    _guard(f.n, ENUM_MAX, "a non-modular distance")
    F, rows = f.values_all(), np.atleast_2d(h)
    gap, size = np.empty(len(rows)), max(1, PLAN_CELLS >> f.n)
    for first in range(0, len(rows), size):
        table = subset_table(rows[first:first + size], np.add)
        gap[first:first + size] = np.abs(np.subtract(F, table, out=table), out=table).max(axis=1)
    return gap if h.ndim == 2 else float(gap[0])


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

