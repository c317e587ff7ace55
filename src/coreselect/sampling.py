"""Systematic sampling of exactly k elements with prescribed marginals.

Given a feasible inclusion-probability vector p (entries in [0,1], summing
to k), one uniform draw u picks the k-set whose prefix-sum intervals contain
the grid points u, u+1, ..., u+k-1.  Element i then lands in the sample with
probability exactly p_i.
"""

from __future__ import annotations

import numpy as np

from .hypersimplex import HypersimplexPoint, InfeasiblePointError

PREFIX_SUM_TOL = 1e-6


def _prefix_sums(p: np.ndarray, k: int) -> np.ndarray:
    """Prefix sums with the final entry forced to exactly k.

    Floating-point drift in sum(p) would otherwise let the last grid point
    escape the last interval and break the exact-cardinality guarantee.
    """
    prefix = np.empty(p.size + 1)
    prefix[0] = 0.0
    p.cumsum(out=prefix[1:])
    total = float(prefix[-1])
    if not abs(total - k) <= PREFIX_SUM_TOL:  # NaN fails too
        raise InfeasiblePointError(
            f"sum(p) = {total:.9g} is not within {PREFIX_SUM_TOL} of k = {k}"
        )
    prefix[-1] = float(k)
    np.minimum(prefix, float(k), out=prefix)
    return prefix


def madow_sample(point: HypersimplexPoint, u: float) -> tuple[int, ...]:
    """Deterministic systematic sample for a given uniform draw u in [0, 1).

    Element j is selected iff some grid point u + i falls inside its prefix
    interval [prefix_j, prefix_{j+1}); the number of such grid points is
    ceil(prefix_{j+1} - u) - ceil(prefix_j - u).  These counts telescope to
    exactly k, which keeps the cardinality guarantee immune to the rounding
    of u + i near interval boundaries.  One vectorized sweep, O(n + k).
    Returns the selected indices (0-based, strictly increasing).
    """
    if not (0.0 <= u < 1.0):
        raise ValueError(f"u must lie in [0, 1), got {u}")
    p = np.asarray(point.p, dtype=float)
    if not (p.min() >= -PREFIX_SUM_TOL and p.max() <= 1.0 + PREFIX_SUM_TOL):
        raise InfeasiblePointError("p has a NaN or a coordinate outside [0, 1]")
    k = point.k
    grid = _prefix_sums(p.clip(0.0, 1.0), k) - u
    np.ceil(grid, out=grid)
    selected = (grid[1:] > grid[:-1]).nonzero()[0]
    if selected.size < k:
        # an interval boundary landed within one ulp of a grid point; hand the
        # dropped slots to the heaviest unselected elements, deterministically
        chosen = np.zeros(point.n, dtype=bool)
        chosen[selected] = True
        pool = [j for j in np.argsort(-p, kind="stable") if not chosen[j]]
        chosen[pool[: k - selected.size]] = True
        selected = chosen.nonzero()[0]
    if selected.size != k:
        raise InfeasiblePointError(
            f"selected {selected.size} elements instead of k = {k}"
        )
    return tuple(selected.tolist())


def draw(point: HypersimplexPoint, rng: np.random.Generator) -> tuple[tuple[int, ...], float]:
    """Draw u from the caller's generator and sample; returns (set, u) so the
    trace can be replayed exactly."""
    u = float(rng.random())
    return madow_sample(point, u), u


def selection_breakpoints(point: HypersimplexPoint) -> np.ndarray:
    """Sorted u-values in [0, 1] where the sampled set changes.

    The set is piecewise constant in u; it can only change when some grid
    point u + i crosses a prefix sum, i.e. at u = frac(prefix_j).
    """
    prefix = _prefix_sums(np.asarray(point.p, dtype=float), point.k)
    frac = np.mod(prefix, 1.0)
    pts = np.unique(np.concatenate([[0.0, 1.0], frac]))
    return pts[(pts >= 0.0) & (pts <= 1.0)]


def madow_support(point: HypersimplexPoint) -> list[tuple[float, tuple[int, ...]]]:
    """All (probability, set) pairs of the sampling distribution, exactly.

    There are at most n + 1 distinct sets; each carries the Lebesgue measure
    of its u-interval.  Useful both for exact marginal-law checks and for
    exact conditional expectations of set functions.
    """
    pts = selection_breakpoints(point)
    support = []
    top = np.nextafter(1.0, 0.0)  # midpoints of sub-ulp segments can round to 1
    for lo, hi in zip(pts[:-1], pts[1:]):
        if hi - lo <= 0.0:
            continue
        mid = min(0.5 * (lo + hi), top)
        support.append((float(hi - lo), madow_sample(point, mid)))
    return support


def madow_marginal_measure(point: HypersimplexPoint) -> np.ndarray:
    """Exact measure of {u : element i is selected} for every i.

    Sums interval lengths over the breakpoint decomposition; no sampling
    involved, so the result should match p to floating-point accuracy.
    """
    measure = np.zeros(point.n)
    for length, sel in madow_support(point):
        for j in sel:
            measure[j] += length
    return measure


def expected_set_value(point: HypersimplexPoint, value_fn) -> float:
    """Exact E[f(S)] under Madow sampling at p, via the support enumeration."""
    return float(sum(length * value_fn(sel) for length, sel in madow_support(point)))
