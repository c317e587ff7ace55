"""Systematic sampling of exactly k elements with prescribed marginals.

Given a feasible inclusion-probability vector p (entries in [0,1], summing
to k), one uniform draw u picks the k-set whose prefix-sum intervals contain
the grid points u, u+1, ..., u+k-1.  Element i then lands in the sample with
probability exactly p_i.  The sampler takes (p, k) of one point or of each
row of a block, and returns the selected indices as a (k,) array, or a
(B, k) array for a block.
"""

from __future__ import annotations

import math

import numpy as np

from .hypersimplex import InfeasiblePointError

PREFIX_SUM_TOL = 1e-6


def _prefix_sums(p: np.ndarray, k: int) -> np.ndarray:
    """The prefix sums of one point ``p`` or of each row of a (B, n) block,
    along the last axis: a leading 0, then the running sums of the point
    clipped to [0, 1], with the final entry forced to exactly k.

    ``p`` is checked first: a NaN, a coordinate outside [0, 1] or a total
    farther than ``PREFIX_SUM_TOL`` from k raises InfeasiblePointError.
    Floating-point drift in sum(p) would otherwise let the last grid point
    escape the last interval and break the exact-cardinality guarantee.
    This is the one place that pins sum(p) to k: the solvers only clip
    their points to [0, 1], and leave the total as their arithmetic gives.
    """
    lo, hi = np.minimum.reduce(p, None), np.maximum.reduce(p, None)
    if not (lo >= -PREFIX_SUM_TOL and hi <= 1.0 + PREFIX_SUM_TOL):  # NaN fails too
        raise InfeasiblePointError("p has a NaN or a coordinate outside [0, 1]")
    if lo < 0.0 or hi > 1.0:  # else the clip would move nothing
        p = p.clip(0.0, 1.0)
    prefix = np.zeros(p.shape[:-1] + (p.shape[-1] + 1,))
    # (the axis passed by position: as a keyword it costs a third more here)
    np.add.accumulate(p, -1, None, prefix[..., 1:])
    # the totals, finite now, as floats: on the few rows of a round's draw
    # their min and max cost a sixth of numpy's reductions
    totals = prefix[..., -1].ravel().tolist()
    top = max(totals)
    if not (top - k <= PREFIX_SUM_TOL and k - min(totals) <= PREFIX_SUM_TOL):
        total = max(totals, key=lambda t: abs(t - k))
        raise InfeasiblePointError(
            f"sum(p) = {total:.9g} is not within {PREFIX_SUM_TOL} of k = {k}"
        )
    if top > k:  # the sums never fall, so none exceeds k otherwise
        np.minimum(prefix, float(k), out=prefix)
    prefix[..., -1] = float(k)
    return prefix


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
    gives.  One point is drawn as a block of one row.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim == 2:
        u = np.asarray(u, dtype=float)
        if u.shape != (len(p),):
            raise ValueError(f"{len(p)} points need {len(p)} draws, got shape {u.shape}")
        _check_uniforms(u)
        selected = _madow_rows(p, k, u)
        selected %= p.shape[1]  # the flat indices less their rows' offsets
        return selected
    if not (0.0 <= u < 1.0):
        raise ValueError(f"u must lie in [0, 1), got {u}")
    return _madow_rows(p[None], k, np.array([u]))[0]


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


def _madow_rows(p: np.ndarray, k: int, u: np.ndarray) -> np.ndarray:
    """The sets :func:`madow_sample` draws from the rows of a (B, n) block
    with their own draws, checked already, as (B, k) indices into the
    flattened block: the rows' prefix sums, less their draws, and their
    ceilings.  The indices come from one ``nonzero`` of the flattened
    mask, which at (16, 1000) takes about 4 µs against 23 for the column
    indices of the 2-d ``nonzero``.  A block of no rows draws no sets."""
    B = len(p)
    if not B:
        return np.empty((0, k), dtype=np.intp)
    grid = _prefix_sums(p, k)
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


def _support(p: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The u-interval lengths of the sampling distribution and their (m, k)
    sets, one row per interval in the order of u: all the sets come from
    one draw of the point repeated once per interval, at its midpoint (so
    an (m, n + 1) grid, m <= n + 1)."""
    p = np.asarray(p, dtype=float)
    pts = np.unique(np.concatenate([[0.0, 1.0], np.mod(_prefix_sums(p, k), 1.0)]))
    lo, hi = pts[:-1], pts[1:]
    # midpoints of sub-ulp segments can round to 1
    mids = np.minimum(0.5 * (lo + hi), math.nextafter(1.0, 0.0))
    sets = _madow_rows(p[None].repeat(len(mids), 0), k, mids)
    sets %= len(p)  # the flat indices less their rows' offsets
    return hi - lo, sets


def madow_support(p: np.ndarray, k: int) -> list[tuple[float, np.ndarray]]:
    """All (probability, set) pairs of the sampling distribution, exactly.

    The set is piecewise constant in u; it can only change when some grid
    point u + i crosses a prefix sum, i.e. at u = frac(prefix_j).  So there
    are at most n + 1 distinct sets; each carries the Lebesgue measure of
    its u-interval.  Useful both for exact marginal-law checks and for
    exact conditional expectations of set functions.
    """
    lengths, sets = _support(p, k)
    return list(zip(lengths.tolist(), sets))


def madow_marginal_measure(p: np.ndarray, k: int) -> np.ndarray:
    """Exact measure of {u : element i is selected} for every i.

    Sums interval lengths over the breakpoint decomposition, in the order
    of u; no sampling involved, so the result should match p to
    floating-point accuracy.
    """
    lengths, sets = _support(p, k)
    measure = np.zeros(len(p))
    np.add.at(measure, sets, lengths[:, None])
    return measure


def expected_set_value(p: np.ndarray, k: int, value_fn) -> float:
    """Exact E[f(S)] under Madow sampling at p, via the support enumeration."""
    return float(sum(length * value_fn(sel) for length, sel in madow_support(p, k)))
