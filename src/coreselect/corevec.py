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
    subset_table,
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
    g = np.empty(n)
    g[perm] = np.diff(f.prefix_values(perm))
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
    fv = f.values_all()  # raises EnumerationTooLargeError past ENUM_MAX
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
    return subset_table(np.asarray(g, dtype=float), np.add)


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
    return bool(np.all(gs[masks] <= alpha * f.values_all()[masks] + tol))


def tightest_alpha(g: np.ndarray, f: SetFunction, tol: float = DEFAULT_TOL) -> float:
    """Smallest alpha at which g satisfies every subset constraint.

    Taken as the max of (sum_{i in S} g_i) / f(S) over nonempty S with
    f(S) > 0, clamped below at 1.  Positive g-mass on a zero-value set cannot
    be scaled away, so it yields +inf; nonpositive mass there is ignored.
    """
    g = np.asarray(g, dtype=float)
    fv = f.values_all()[1:]  # raises EnumerationTooLargeError past ENUM_MAX
    gs = subset_sums(g)[1:]
    zero = fv <= 0.0
    if np.any(zero & (gs > tol)):
        return float("inf")
    ratios = gs[~zero] / fv[~zero]
    return float(max(1.0, ratios.max())) if ratios.size else 1.0


class DualsError(RuntimeError):
    """``hungarian_duals`` failed on ``index``, the matrix of its stack
    (0 for one matrix) whose error this is."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


def hungarian_duals(w: np.ndarray, tol: float = 1e-6) -> tuple:
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
    raises ``DualsError``, a ``RuntimeError``.

    Prices are then shifted along the objective-neutral direction
    (u + c, v - c): all the way to nonnegativity whenever some nonnegative
    optimal pair exists, otherwise to the shift balancing the most negative
    entries.  Nonnegative optimal prices do not exist for every cost matrix:
    when a cheap star covers the vertices for less than any perfect matching
    costs, every nonnegative feasible pair sums below the matching value.

    ``w`` may also be a (P, m, m) stack: then u and v are (P, m) rows, the
    matching a (P, m) array whose row p holds the column matched to each
    row of matrix p, and the value a (P,) array, each with the bits of its
    matrix alone (``core_vectors`` reads no matching, so no list of
    pairs is built for a stack).  One Bellman-Ford relaxes the whole stack,
    and a matrix that has settled is never relaxed again.  An error from a
    stack names the first matrix that failed.
    """
    w = np.asarray(w, dtype=float)
    stack = w if w.ndim == 3 else w[None]
    if w.ndim not in (2, 3) or stack.shape[1] != stack.shape[2] or stack.size == 0:
        raise ValueError("weight matrix must be square and nonempty, "
                         "or a stack of such matrices")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise ValueError("weights must be finite and nonnegative")
    P, m = stack.shape[:2]

    def fail(failed: np.ndarray, message: str) -> DualsError:
        index = int(np.flatnonzero(failed)[0])
        where = f"matrix {index} of the stack: " if w.ndim == 3 else ""
        return DualsError(index, where + message)

    # rows == arange(m) for a square matrix
    cols = np.array([linear_sum_assignment(matrix)[1] for matrix in stack])
    each, rows = np.arange(P)[:, None], np.arange(m)
    matched = stack[each, rows, cols]
    value = matched.sum(axis=1)

    # arc[p, i', i] = w[p, i, sigma_p(i')] - w[p, i', sigma_p(i')]; the
    # diagonal is 0, so one relaxation round keeps every distance that is
    # already shortest
    arc = stack[each[:, :, None], rows, cols[:, :, None]] - matched[:, :, None]
    # improvements below rounding noise are not moves, so float ties that
    # sum to a cycle of length -ulp cannot keep the relaxation going
    slack = (4.0 * m * np.finfo(float).eps * stack.max(axis=(1, 2)))[:, None]
    u = np.zeros((P, m))
    moving = np.ones(P, dtype=bool)
    for _ in range(m):
        relaxed = (u[:, :, None] + arc).min(axis=1)
        moving &= (relaxed < u - slack).any(axis=1)
        if not moving.any():
            break
        u[moving] = relaxed[moving]
    else:
        raise fail(moving, f"shortest-path potentials did not settle in {m} rounds: "
                           "negative cycle, the assignment is not optimal")
    v = np.empty((P, m))
    np.put_along_axis(v, cols, matched - u, axis=1)

    u_min, v_min = u.min(axis=1), v.min(axis=1)
    shift = np.where(
        (u_min < 0.0) & (v_min >= -u_min), -u_min, np.where(
            (v_min < 0.0) & (u_min >= -v_min), v_min, np.where(
                u_min + v_min < 0.0, 0.5 * (v_min - u_min),  # unattainable; balance
                0.0)))[:, None]
    u += shift
    v -= shift

    total = u.sum(axis=1) + v.sum(axis=1)
    gap = np.abs(total - value) > tol * np.maximum(1.0, np.abs(value))
    if gap.any():
        p = int(np.flatnonzero(gap)[0])
        raise fail(gap, f"duality gap: prices total {total[p]:.9g}, matching {value[p]:.9g}")
    infeasible = (u[:, :, None] + v[:, None, :] > stack + tol).any(axis=(1, 2))
    if infeasible.any():
        raise fail(infeasible, "dual prices violate feasibility")
    if w.ndim == 3:
        return u, v, cols, value
    return u[0], v[0], list(zip(range(m), cols[0].tolist())), float(value[0])


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
# The proxy vectors the online policies learn from.

def core_vectors(f: SetFunction, b: int, rng: np.random.Generator) -> np.ndarray:
    """The proxy vectors of a run of b rounds whose reward is f, as (b, n)
    rows, one core vector per round, chosen by the reward's family:

    - a modular reward: its coefficient rows ``f.w``, the exact 1-core
      choice.  Nothing is drawn.
    - a matching reward: its optimal assignment duals, from one
      ``hungarian_duals`` call on its stack of phase matrices for a block
      (on its one matrix otherwise), each round's row the duals of its
      phase.  The run may be the joined runs of a lane group's block,
      their stacks one after another, so one call reveals every lane.  The
      matrices' matching values that the call returns become the reward's
      ``totals``, its full-set values, so each matrix's assignment is
      solved once; they have the bits ``full_value`` solves for.  Nothing
      is drawn.  A matrix whose duals fail names its phase's rounds: the
      error's ``rows`` is the range of the run's rows that are that
      phase's.
    - any other reward: greedy marginal vectors, each along a fresh random
      permutation (a fixed one would let an adversary align against it).
      The run's b permutations are the rows of one ``rng.permuted`` call,
      the stream of b ``rng.permutation(n)`` calls, valued by one
      ``prefix_values`` call.
    """
    if isinstance(f, ModularFunction):
        return f.w
    if isinstance(f, MatchingRewardFunction):
        phase = np.zeros(b, dtype=np.intp) if f.phase is None else f.phase
        try:  # looked up on the module, where perfbench/spans.py wraps it
            u, v, _, value = hungarian_duals(f.w)
        except DualsError as exc:
            rows = np.flatnonzero(phase == exc.index)
            if rows.size:  # a matrix no round plays names no rows
                exc.rows = range(rows[0], rows[-1] + 1)
            raise
        f.totals = np.atleast_1d(value)
        return np.concatenate([u, v], axis=-1).reshape(-1, f.n)[phase]
    perms = np.tile(np.arange(f.n), (b, 1))
    rng.permuted(perms, axis=1, out=perms)
    G = np.empty((b, f.n))
    np.put_along_axis(G, perms, np.diff(f.prefix_values(perms), axis=1), axis=1)
    return G
