"""Set-function oracles: the reward families and their subset tables.

Public evaluation works on index iterables, or on the (b, k) sets of a run of
b rounds.  The enumeration paths use integer bitmasks internally (element i
<-> bit i): ``values_all`` tabulates f over all 2^n subsets for n <= 20,
which ``distance_sup`` reads for a reward that is not modular, and so do the
exhaustive checks of ``coreselect.oracles``.
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

ENUM_MAX = 20  # hard guard for 2^n enumerations


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

    ``monotone`` is the caller's declaration, which ``coreselect.oracles``
    checks exhaustively at small n.  ``rounds`` is None for one reward, and
    B for a block of B rounds' rewards, which takes one set per round.

    ``value`` is the one valuation entry; a family writes only
    ``_values(sets)``, its body on the (b, k) sets of a run, checked
    already.  The subset table and the prefix values are built on runs.
    """

    rounds: int | None = None

    def __init__(self, n: int, monotone: bool = True):
        if n < 1:
            raise ValueError("ground set must be nonempty")
        self.n = n
        self.monotone = monotone
        self._values_cache: np.ndarray | None = None
        self._full_cache: float | None = None

    def value(self, indices: Iterable[int] | np.ndarray) -> float | np.ndarray:
        """f of one set of indices, or of each row of a run's (b, k) index
        array: one set is valued as a run of one row, with the same bits.
        Every index must lie in [0, n), and a block of B rounds' rewards
        takes exactly B sets, never one set."""
        one = not (isinstance(indices, np.ndarray) and indices.ndim == 2)
        sets = np.array([list(indices)], dtype=np.intp) if one else indices
        if self.rounds is not None and (one or len(sets) != self.rounds):
            raise ValueError(f"a block of {self.rounds} rounds takes {self.rounds} sets, "
                             f"one per round, got {'one set' if one else len(sets)}")
        outside = sets[(sets < 0) | (sets >= self.n)]
        if outside.size:
            raise ValueError(f"index {outside[0]} is outside the ground set [0, {self.n})")
        out = self._values(sets)
        return float(out[0]) if one else out

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

    A run's (b, k) sets are valued by one gather-sum.  ``w`` may also be a
    (B, n) block of coefficient vectors, the rewards of B rounds as rows,
    whose ``rounds`` is B; ``total`` and ``full_value`` then hold the B row
    totals, each with the bits of its row alone.  The block is monotone if
    every row is.
    """

    def __init__(self, w: np.ndarray):
        w = np.asarray(w, dtype=float)
        if w.ndim not in (1, 2) or not np.isfinite(w).all():
            raise ValueError("coefficients must be a finite 1-d vector or rows of them")
        self.w = w
        # sum(axis=-1) gives each row of a block its 1-d w.sum()
        self.total = w.sum(axis=-1) if w.ndim == 2 else float(w.sum())
        self.rounds = len(w) if w.ndim == 2 else None
        super().__init__(w.shape[-1], monotone=not w.size or bool(w.min() >= 0.0))

    def _values(self, sets: np.ndarray) -> np.ndarray:
        # one gather-sum: row i sums w[i], or the one w, over sets[i]
        return np.take_along_axis(np.atleast_2d(self.w), sets, axis=1).sum(axis=1)

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

    def _values(self, sets: np.ndarray) -> np.ndarray:
        return self.scale * self._counts(sets)

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

    A run's (b, k) sets are b sets of one matrix, or one set per round of
    a block, whose ``w`` is a (P, m, m) stack of matrices with ``phase``,
    each round's index into it, round i's reward being ``w[phase[i]]``,
    and whose ``rounds`` is ``len(phase)``.  A block's ``full_value`` is
    its b full-set values, each with the bits of its round's reward alone,
    read off ``totals``, the matching value of each matrix of the stack:
    solved on the first ``full_value``, unless ``core_vectors`` has
    already set them from its own dual solves.
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
        self.rounds = None if phase is None else len(phase)
        self._stack = w if phase is not None else w[None]
        self.totals: np.ndarray | None = None
        self.m = w.shape[-1]
        super().__init__(2 * self.m, monotone=False)

    def _values(self, sets: np.ndarray) -> np.ndarray:
        """The value of each row of a (b, k) index array: the rounds of a
        block, or b sets of this one reward.

        One gather takes the h x h submatrix of every balanced row
        (h = k / 2), its U entries first and then its V entries, each in the
        row's order; the solver takes one matrix per call, and one
        gather-sum adds up the matched entries.  Other rows are worth 0.
        """
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
        return out

    def full_value(self) -> float | np.ndarray:
        """f of the whole ground set, or a block's b per-round values: each
        matrix's assignment is solved once, on the matrix itself, unless
        ``totals`` holds its value already."""
        if self.totals is None:
            solve = assignment_solver()
            self.totals = np.array([w[solve(w)].sum() for w in self._stack])
        return self.totals[self.phase] if self.phase is not None else float(self.totals[0])


def distance_sup(f: SetFunction, h: np.ndarray) -> float | np.ndarray:
    """max over all subsets of |f(S) - h(S)| for the modular hint h given
    by its coefficients, one vector of n, or the b such gaps of a block of
    (b, n) hint rows, each with the bits of its row alone.  Hints that are
    not finite, or not of that shape, are a ``ValueError``, and so are any
    but B rows for a block of B rounds' rewards.

    Modular-vs-modular has the O(n) closed form max(sum of positive gaps,
    -sum of negative gaps), row by row for a block.  Any other f is
    tabulated over all 2^n subsets, guarded by ``ENUM_MAX``, and so are the
    hints, at most ``PLAN_CELLS`` entries at a time (one hint's 2^n where
    that is more).
    """
    h = np.asarray(h, dtype=float)
    if h.ndim not in (1, 2) or h.shape[-1] != f.n:
        raise ValueError(f"the hints must be one vector or (b, n) rows of n = {f.n} "
                         f"coefficients, got shape {h.shape}")
    if not np.isfinite(h).all():
        raise ValueError("the hints contain non-finite entries")
    if f.rounds is not None and (h.ndim == 1 or len(h) != f.rounds):
        raise ValueError(f"a block of {f.rounds} rounds takes {f.rounds} hints, "
                         f"one per round, got shape {h.shape}")
    if isinstance(f, ModularFunction):
        nu = f.w - h
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
