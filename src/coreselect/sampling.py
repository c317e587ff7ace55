"""Systematic sampling of exactly k elements with prescribed marginals.

Given a feasible inclusion-probability vector p (entries in [0,1], summing
to k), one uniform draw u picks the k-set whose prefix-sum intervals contain
the grid points u, u+1, ..., u+k-1.  Element i then lands in the sample with
probability exactly p_i.  The sampler takes (p, k) of one point or of each
row of a block, and returns the selected indices as a (k,) array, or a
(B, k) array for a block.
"""

from __future__ import annotations

import numpy as np

from .hypersimplex import InfeasiblePointError

PREFIX_SUM_TOL = 1e-6


def _prefix_sums(p: np.ndarray, k: int) -> np.ndarray:
    """Prefix sums with the final entry forced to exactly k.

    Floating-point drift in sum(p) would otherwise let the last grid point
    escape the last interval and break the exact-cardinality guarantee.
    """
    prefix = np.empty(p.size + 1)
    prefix[0] = 0.0
    p.cumsum(out=prefix[1:])
    _check_total(float(prefix[-1]), k)
    prefix[-1] = float(k)
    np.minimum(prefix, float(k), out=prefix)
    return prefix


def _check_total(total: float, k: int) -> None:
    if not abs(total - k) <= PREFIX_SUM_TOL:  # NaN fails too
        raise InfeasiblePointError(
            f"sum(p) = {total:.9g} is not within {PREFIX_SUM_TOL} of k = {k}"
        )


def madow_sample(p: np.ndarray, k: int, u: float | np.ndarray) -> np.ndarray:
    """Deterministic systematic sample for a given uniform draw u in [0, 1).

    Element j is selected iff some grid point u + i falls inside its prefix
    interval [prefix_j, prefix_{j+1}); the number of such grid points is
    ceil(prefix_{j+1} - u) - ceil(prefix_j - u).  These counts telescope to
    exactly k, which keeps the cardinality guarantee immune to the rounding
    of u + i near interval boundaries.  One vectorized sweep, O(n + k).
    Returns the selected indices (0-based, strictly increasing) as a (k,)
    array.

    For a (B, n) block of points, ``u`` holds one draw per row and the
    result is a (B, k) index array whose row i is the set row i alone
    gives.  Once ``u`` is checked, :func:`_madow_block` picks the body by
    the block's size.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim == 2:
        u = np.asarray(u, dtype=float)
        if u.shape != (len(p),):
            raise ValueError(f"{len(p)} points need {len(p)} draws, got shape {u.shape}")
        _check_uniforms(u)
        selected = _madow_block(p, k, u)
        if len(p) > 1:  # flat indices less their row's offset are the column indices
            selected -= np.arange(0, p.size, p.shape[1])[:, None]
        return selected
    if not (0.0 <= u < 1.0):
        raise ValueError(f"u must lie in [0, 1), got {u}")
    return _madow_vector(p, k, u, p.clip(0.0, 1.0))


def _madow_block(p: np.ndarray, k: int, u: np.ndarray, clipped: bool = False
                 ) -> np.ndarray:
    """The sets :func:`madow_sample` draws from the rows of a (B, n) block
    with their own draws, checked already, as (B, k) indices into the
    flattened block; with ``clipped``, ``p`` lies in [0, 1] already and is
    not clipped.  One row goes through the 1-d body :func:`_madow_vector`,
    which at n = 20 takes about half the time of the row code
    :func:`_madow_rows` run on one row (4 against 8 µs); more rows through
    the row code."""
    if len(p) == 1:
        row = p[0]
        return _madow_vector(row, k, float(u[0]), row if clipped else row.clip(0.0, 1.0))[None]
    return _madow_rows(p, k, u, clipped)


def _madow_vector(p: np.ndarray, k: int, u: float, inside: np.ndarray
                  ) -> np.ndarray:
    """:func:`madow_sample` of one float vector ``p`` for a uniform ``u``
    checked already, with ``inside`` its clip to [0, 1] (``p`` itself when
    it lies there).  ``p`` is checked here."""
    _check_range(p)
    grid = _prefix_sums(inside, k) - u
    np.ceil(grid, out=grid)
    chosen = grid[1:] > grid[:-1]
    selected = chosen.nonzero()[0]
    if selected.size < k:
        _fill_dropped_slots(chosen, p, k)
        selected = chosen.nonzero()[0]
    if selected.size != k:
        raise InfeasiblePointError(
            f"selected {selected.size} elements instead of k = {k}"
        )
    return selected


def _check_range(p: np.ndarray) -> None:
    # written so that a NaN fails too
    if not (np.minimum.reduce(p, None) >= -PREFIX_SUM_TOL
            and np.maximum.reduce(p, None) <= 1.0 + PREFIX_SUM_TOL):
        raise InfeasiblePointError("p has a NaN or a coordinate outside [0, 1]")


def _check_uniforms(u: np.ndarray) -> None:
    """Check the draws of a block of points (of none, too)."""
    if u.size and not (np.minimum.reduce(u, None) >= 0.0
                       and np.maximum.reduce(u, None) < 1.0):  # NaN fails too
        raise ValueError(f"u must lie in [0, 1), got {u}")


def _fill_dropped_slots(chosen: np.ndarray, p: np.ndarray, k: int) -> None:
    """An interval boundary landed within one ulp of a grid point, so fewer
    than k elements were chosen: hand the dropped slots to the heaviest
    unchosen elements, deterministically."""
    pool = [j for j in np.argsort(-p, kind="stable") if not chosen[j]]
    chosen[pool[: k - np.count_nonzero(chosen)]] = True


def _madow_rows(p: np.ndarray, k: int, u: np.ndarray, clipped: bool = False
                ) -> np.ndarray:
    """The sets :func:`madow_sample` draws from the rows of a (B, n) block
    with their own draws, checked already, as (B, k) indices into the
    flattened block, and ``p`` not clipped if ``clipped`` says it lies in
    [0, 1] already: the same checks of ``p``, prefix sums and ceilings,
    row-wise.  The indices come from one ``nonzero`` of the flattened mask,
    which at (16, 1000) takes about 4 µs against 23 for the column indices
    of the 2-d ``nonzero``."""
    _check_range(p)
    B, n = p.shape
    grid = np.zeros((B, n + 1))
    # (the axis passed by position: as a keyword it costs a third more here)
    np.add.accumulate(p if clipped else p.clip(0.0, 1.0), 1, out=grid[:, 1:])
    off = abs(grid[:, -1] - k)
    if not np.maximum.reduce(off) <= PREFIX_SUM_TOL:  # NaN fails too
        _check_total(float(grid[off.argmax(), -1]), k)
    grid[:, -1] = float(k)
    np.minimum(grid, float(k), out=grid)
    grid -= u[:, None]
    np.ceil(grid, out=grid)
    chosen = grid[:, 1:] > grid[:, :-1]
    # the ceilings telescope, so no row chooses more than k elements, and
    # B * k chosen in all means k in every row
    flat = chosen.ravel().nonzero()[0]
    if flat.size < B * k:
        counts = np.count_nonzero(chosen, axis=1)
        for r in (counts < k).nonzero()[0].tolist():
            _fill_dropped_slots(chosen[r], p[r], k)
        flat = chosen.ravel().nonzero()[0]
    if flat.size != B * k:
        counts = np.count_nonzero(chosen, axis=1)
        raise InfeasiblePointError(
            f"selected {counts[(counts != k).argmax()]} elements instead of k = {k}"
        )
    return flat.reshape(B, k)


def draw(p: np.ndarray, k: int, rng: np.random.Generator,
         u: np.ndarray | None = None) -> np.ndarray:
    """The Madow sample of p, with one uniform from the caller's generator
    for the point (or for each row of a block), or with ``u`` when the
    caller drew them already."""
    if u is None:
        u = float(rng.random()) if p.ndim == 1 else rng.random(len(p))
    return madow_sample(p, k, u)


def madow_support(p: np.ndarray, k: int) -> list[tuple[float, np.ndarray]]:
    """All (probability, set) pairs of the sampling distribution, exactly.

    The set is piecewise constant in u; it can only change when some grid
    point u + i crosses a prefix sum, i.e. at u = frac(prefix_j).  So there
    are at most n + 1 distinct sets; each carries the Lebesgue measure of
    its u-interval.  Useful both for exact marginal-law checks and for
    exact conditional expectations of set functions.
    """
    p = np.asarray(p, dtype=float)
    frac = np.mod(_prefix_sums(p, k), 1.0)
    pts = np.unique(np.concatenate([[0.0, 1.0], frac]))
    pts = pts[(pts >= 0.0) & (pts <= 1.0)]
    support = []
    top = np.nextafter(1.0, 0.0)  # midpoints of sub-ulp segments can round to 1
    for lo, hi in zip(pts[:-1], pts[1:]):
        if hi - lo <= 0.0:
            continue
        mid = min(0.5 * (lo + hi), top)
        support.append((float(hi - lo), madow_sample(p, k, mid)))
    return support


def madow_marginal_measure(p: np.ndarray, k: int) -> np.ndarray:
    """Exact measure of {u : element i is selected} for every i.

    Sums interval lengths over the breakpoint decomposition; no sampling
    involved, so the result should match p to floating-point accuracy.
    """
    measure = np.zeros(len(p))
    for length, sel in madow_support(p, k):
        measure[sel] += length
    return measure


def expected_set_value(p: np.ndarray, k: int, value_fn) -> float:
    """Exact E[f(S)] under Madow sampling at p, via the support enumeration."""
    return float(sum(length * value_fn(sel) for length, sel in madow_support(p, k)))
