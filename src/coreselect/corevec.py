"""Construction and verification of admissible reward vectors.

A vector g is alpha-admissible for a normalized reward f when its entries sum
to f(full set) and every subset S satisfies sum_{i in S} g_i <= alpha * f(S).
Feeding such vectors to a linear-reward learner is what lets the policies
handle nonlinear rewards, so this module collects the known constructions
(greedy marginals, dictator spikes, Shapley values, matching duals) and
brute-force membership diagnostics for small ground sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .setfn import (
    ENUM_MAX,
    EnumerationTooLargeError,
    MatchingRewardFunction,
    ModularFunction,
    SetFunction,
    linear_sum_assignment,
)

DEFAULT_TOL = 1e-7


@dataclass(frozen=True)
class AdmissibleVector:
    """A candidate core vector with its claimed admissibility level.

    ``alpha`` is None when the construction makes no claim.
    """

    g: np.ndarray
    alpha: float | None


def marginal_vector(
    f: SetFunction,
    perm: np.ndarray | None = None,
    submodular: bool = False,
    rho: float | None = None,
) -> AdmissibleVector:
    """Telescoping marginal gains of f along a permutation (n oracle calls).

    g[perm[i]] = f(first i+1 elements) - f(first i elements).  The entries
    always sum to f(full set).  The admissibility tag is 1 for a declared
    submodular f, 1/rho when an approximation factor rho is supplied, and
    absent otherwise.
    """
    n = f.n
    if perm is None:
        perm = np.arange(n)
    perm = np.asarray(perm, dtype=int)
    if sorted(perm.tolist()) != list(range(n)):
        raise ValueError("perm must be a permutation of 0..n-1")
    prefixes = f.prefix_values(perm)
    g = np.empty(n)
    g[perm] = prefixes[1:] - prefixes[:-1]
    if submodular:
        alpha = 1.0
    elif rho is not None:
        if not (0.0 < rho <= 1.0):
            raise ValueError("rho must lie in (0, 1]")
        alpha = 1.0 / rho
    else:
        alpha = None
    return AdmissibleVector(g, alpha)


def shapley_exact(f: SetFunction) -> np.ndarray:
    """Exact Shapley value via the weighted-subset formula (2^n evaluations)."""
    n = f.n
    if n > ENUM_MAX:
        raise EnumerationTooLargeError(f"n = {n} > {ENUM_MAX}")
    fv = f.values_all()
    fact = [math.factorial(i) for i in range(n + 1)]
    coef = np.array([fact[s] * fact[n - s - 1] / fact[n] for s in range(n)])
    sizes = np.array([bin(m).count("1") for m in range(1 << n)])
    sh = np.zeros(n)
    masks = np.arange(1 << n)
    for i in range(n):
        bi = 1 << i
        without = masks[masks & bi == 0]
        sh[i] = float(np.sum(coef[sizes[without]] * (fv[without | bi] - fv[without])))
    return sh


def find_dictator(f: SetFunction, m: float) -> int | None:
    """Lowest element whose singleton value already reaches m, if any.

    For a monotone f this certifies that every set containing the element is
    worth at least m.
    """
    if not f.monotone:
        raise ValueError("dictator search requires a monotone oracle")
    for i in range(f.n):
        if f.value([i]) >= m:
            return i
    return None


def dictator_vector(f: SetFunction, i_star: int, m: float | None = None) -> AdmissibleVector:
    """Single-spike vector putting the whole value f(full set) on a dictator.

    ``m`` is the dictatorship level; it defaults to the dictator's singleton
    value.  The claimed admissibility is f(full set) / m.
    """
    big_m = f.full_value()
    if m is None:
        m = f.value([i_star])
    if m <= 0:
        raise ValueError("dictator level m must be positive")
    g = np.zeros(f.n)
    g[i_star] = big_m
    return AdmissibleVector(g, big_m / m)


def subset_sums(g: np.ndarray) -> np.ndarray:
    """sum_{i in mask} g_i for every bitmask, by array doubling."""
    out = np.zeros(1)
    for gi in np.asarray(g, dtype=float):
        out = np.concatenate([out, out + gi])
    return out


def core_membership(
    g: np.ndarray,
    f: SetFunction,
    alpha: float,
    tol: float = DEFAULT_TOL,
    masks: np.ndarray | None = None,
) -> bool:
    """Exhaustively check that g lies in the alpha-core of f.

    Requires sum(g) = f(full set) within tol and sum_{i in S} g_i <=
    alpha * f(S) + tol for every nonempty S (or only the ``masks`` supplied,
    e.g. the balanced subsets of a matching reward).
    """
    g = np.asarray(g, dtype=float)
    if f.n > ENUM_MAX:
        raise EnumerationTooLargeError(f"n = {f.n} > {ENUM_MAX}")
    if abs(float(g.sum()) - f.full_value()) > tol:
        return False
    gs = subset_sums(g)
    if masks is None:
        fv = f.values_all()
        return bool(np.all(gs[1:] <= alpha * fv[1:] + tol))
    masks = np.asarray(masks, dtype=int)
    fvals = np.array([f.value_mask(int(m)) for m in masks])
    return bool(np.all(gs[masks] <= alpha * fvals + tol))


def tightest_alpha(g: np.ndarray, f: SetFunction, tol: float = DEFAULT_TOL) -> float:
    """Smallest alpha at which g satisfies every subset constraint.

    Taken as the max of (sum_{i in S} g_i) / f(S) over nonempty S with
    f(S) > 0, clamped below at 1.  Positive g-mass on a zero-value set cannot
    be scaled away, so it yields +inf; nonpositive mass there is ignored.
    """
    g = np.asarray(g, dtype=float)
    if f.n > ENUM_MAX:
        raise EnumerationTooLargeError(f"n = {f.n} > {ENUM_MAX}")
    gs = subset_sums(g)[1:]
    fv = f.values_all()[1:]
    zero = fv <= 0.0
    if np.any(zero & (gs > tol)):
        return float("inf")
    ratios = gs[~zero] / fv[~zero]
    return float(max(1.0, ratios.max())) if ratios.size else 1.0


def hungarian_duals(
    w: np.ndarray, tol: float = 1e-6
) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int]], float]:
    """Minimum-cost perfect matching with optimal dual prices, without an LP.

    Returns (u, v, matching, value) with u_i + v_j <= w_ij everywhere,
    equality on matched pairs, and sum(u) + sum(v) = value (strong duality
    of the assignment program).  The prices are shortest-path potentials
    read off the optimal assignment sigma (Jonker & Volgenant 1987): with an
    arc i' -> i of length w[i, sigma(i')] - w[i', sigma(i')] for every pair
    of rows and a zero-length arc from a virtual source to every row, u is
    the vector of shortest distances from that source and v[sigma(i)] =
    w[i, sigma(i)] - u[i].  The distances exist because an optimal
    assignment leaves no negative cycle; a vectorized Bellman-Ford settles
    them in at most m rounds, and a relaxation still moving after m rounds
    raises ``RuntimeError``.

    Prices are then shifted along the objective-neutral direction
    (u + c, v - c): all the way to nonnegativity whenever some nonnegative
    optimal pair exists, otherwise to the shift balancing the most negative
    entries.  Nonnegative optimal prices do not exist for every cost matrix:
    when a cheap star covers the vertices for less than any perfect matching
    costs, every nonnegative feasible pair sums below the matching value.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1] or w.size == 0:
        raise ValueError("weight matrix must be square and nonempty")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise ValueError("weights must be finite and nonnegative")
    m = w.shape[0]
    rows, cols = linear_sum_assignment(w)  # rows == arange(m) for square w
    matched = w[rows, cols]
    value = float(matched.sum())

    # arc[i', i] = w[i, sigma(i')] - w[i', sigma(i')]; the diagonal is 0, so
    # one relaxation round keeps every distance that is already shortest
    arc = w[:, cols].T - matched[:, None]
    # improvements below rounding noise are not moves, so float ties that
    # sum to a cycle of length -ulp cannot keep the relaxation going
    slack = 4.0 * m * np.finfo(float).eps * float(w.max())
    u = np.zeros(m)
    for _ in range(m):
        relaxed = (u[:, None] + arc).min(axis=0)
        if not (relaxed < u - slack).any():
            break
        u = relaxed
    else:
        raise RuntimeError(
            f"shortest-path potentials did not settle in {m} rounds: "
            "negative cycle, the assignment is not optimal")
    v = np.empty(m)
    v[cols] = matched - u

    u_min, v_min = float(u.min()), float(v.min())
    if u_min < 0.0 and v_min >= -u_min:
        shift = -u_min
    elif v_min < 0.0 and u_min >= -v_min:
        shift = v_min
    elif u_min + v_min < 0.0:
        shift = 0.5 * (v_min - u_min)  # nonnegativity unattainable; balance
    else:
        shift = 0.0
    u += shift
    v -= shift

    if abs(float(u.sum() + v.sum()) - value) > tol * max(1.0, abs(value)):
        raise RuntimeError(
            f"duality gap: prices total {u.sum() + v.sum():.9g}, matching {value:.9g}"
        )
    if (u[:, None] + v[None, :] > w + tol).any():
        raise RuntimeError("dual prices violate feasibility")
    matching = sorted(zip(rows.tolist(), cols.tolist()))
    return u, v, matching, value


def matching_core_vector(w: np.ndarray) -> AdmissibleVector:
    """1-admissible vector for a matching reward: optimal duals (u, v) laid
    out over the ground set U followed by V."""
    u, v, _, _ = hungarian_duals(w)
    return AdmissibleVector(np.concatenate([u, v]), 1.0)


def avg_submodular_shapley_check(f: SetFunction, tol: float = DEFAULT_TOL) -> bool:
    """Certify that the Shapley value of f lies in its core (alpha = 1).

    Evaluates, for every target set T, the permutation-weighted sum of
    marginal-contribution differences f_i(S) - f_i(S intersect T) over all S
    containing i in T; the Shapley value is in the core iff every such sum is
    nonpositive.
    """
    n = f.n
    if n > 10:
        raise EnumerationTooLargeError(f"n = {n} > 10 for the Shapley core check")
    fv = f.values_all()
    fact = [math.factorial(i) for i in range(n + 1)]
    sizes = np.array([bin(m).count("1") for m in range(1 << n)])
    weight = np.array([0.0] + [fact[s - 1] * fact[n - s] / fact[n] for s in range(1, n + 1)])
    masks = np.arange(1 << n)
    marg = []  # marg[i][mask] = f(mask) - f(mask minus i), for masks containing i
    for i in range(n):
        bi = 1 << i
        col = np.zeros(1 << n)
        has = masks[masks & bi != 0]
        col[has] = fv[has] - fv[has ^ bi]
        marg.append(col)
    w_all = weight[sizes]
    for t_mask in range(1, 1 << n):
        total = 0.0
        for i in range(n):
            if not t_mask >> i & 1:
                continue
            bi = 1 << i
            has = masks[masks & bi != 0]
            inter = has & t_mask
            total += float(np.sum(w_all[has] * (marg[i][has] - marg[i][inter])))
        if total > tol:
            return False
    return True


# ---------------------------------------------------------------------------
# Strategies: callables (f, b) -> the (b, n) proxy vectors of a run of b
# rounds whose reward is f, for the online policies.

def modular_strategy():
    """For modular rewards the coefficient vector is the exact 1-core
    choice: a run's vectors are its reward's (b, n) coefficient rows."""

    def strategy(f: SetFunction, b: int) -> np.ndarray:
        if not isinstance(f, ModularFunction):
            raise TypeError("modular_strategy needs ModularFunction rewards")
        return f.w

    return strategy


def marginal_strategy(rng: np.random.Generator | None = None):
    """Greedy marginal vectors, each along a fresh random permutation: b
    rows from b ``rng.permutation(n)`` calls, one per round.

    A fixed permutation would let an adversary align against it; the identity
    permutation remains available by passing rng=None.
    """

    def strategy(f: SetFunction, b: int) -> np.ndarray:
        G = np.empty((b, f.n))
        for row in G:
            perm = None if rng is None else rng.permutation(f.n)
            row[:] = marginal_vector(f, perm, submodular=True).g
        return G

    return strategy


def matching_dual_strategy():
    """Optimal assignment duals of a matching reward, solved once per run
    and repeated as its b rows."""

    def strategy(f: SetFunction, b: int) -> np.ndarray:
        if not isinstance(f, MatchingRewardFunction):
            raise TypeError("matching_dual_strategy needs MatchingRewardFunction rewards")
        return matching_core_vector(f.w).g[None].repeat(b, axis=0)

    return strategy
