"""Brute-force oracles that the library is checked against.

Everything here works by exhaustive enumeration or by an explicit value
table: over every candidate projection, vertex and matching, and over all
2^n subsets for the structural checks of a set function and the core
membership of its vectors.  None of it calls a solver, so ``coreselect
verify`` and the tests compare the library against code that shares none of
its logic, with one exception: the sampler's support enumerates the
library's own Madow draw, at one u per interval of constant set.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .hypersimplex import InfeasiblePointError
from .sampling import _madow_rows, _prefix_sums
from .setfn import SetFunction, _guard, subset_table

STRUCT_CHECK_MAX = 14  # guard for pairwise structural checks
RHO_MAX = 12           # guard for the subset-lattice rho scan
DEFAULT_TOL = 1e-7
TAU_FEAS = 1e-9


def enumerate_projection(y: np.ndarray, k: int) -> np.ndarray:
    """Projection onto the capped simplex by exhaustive active-set enumeration.

    Candidates are ranked by their float distance to y, so once |y| is past
    about 1e16 the ranking is rounding and the answer can be wrong; use
    :func:`exact_projection` there."""
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


def exact_projection(y: np.ndarray, k: int) -> list:
    """Projection onto the capped simplex in exact rational arithmetic, as
    a list of ``fractions.Fraction``.

    The projection is clamp(y - tau, 0, 1), with tau the root of
    total(tau) = sum_i clamp(y_i - tau, 0, 1) = k, which falls from n to 0
    and is linear between the breakpoints {y_i - 1} and {y_i}.  Every float
    is an integer over a power of two, so over the largest such denominator
    the scores, the breakpoints and every total are integers: a bisection
    finds the two adjacent breakpoints whose totals bracket k, and tau is
    interpolated between them as a fraction.  Any finite scores work, at
    any scale; the cost is O(n log n) big-integer operations.
    """
    from fractions import Fraction  # here, or `import coreselect` loads it

    scores = [Fraction(float(v)) for v in np.asarray(y, dtype=float)]
    den = max(f.denominator for f in scores)
    ints = [f.numerator * (den // f.denominator) for f in scores]
    bps = sorted(set(ints) | {v - den for v in ints})

    def total(tau: int) -> int:
        return sum(min(max(v - tau, 0), den) for v in ints)

    # total(bps[0]) = n * den >= k * den and total(bps[-1]) = 0 < k * den
    lo, hi = 0, len(bps) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if total(bps[mid]) >= k * den:
            lo = mid
        else:
            hi = mid
    at_lo, at_hi = total(bps[lo]), total(bps[hi])
    tau = bps[lo] + Fraction((at_lo - k * den) * (bps[hi] - bps[lo]), at_lo - at_hi)
    return [min(max(v - tau, Fraction(0)), Fraction(den)) / den for v in ints]


def enumerate_lmo_value(cost: np.ndarray, k: int) -> float:
    """Minimum of <cost, vertex> over every k-subset vertex."""
    cost = np.asarray(cost, dtype=float)
    return min(sum(cost[list(c)]) for c in itertools.combinations(range(cost.size), k))


def enumerate_matching_value(w: np.ndarray) -> float:
    """Minimum cost of a perfect matching of the square cost matrix w, over
    every permutation."""
    m = w.shape[0]
    return min(sum(w[i, pi[i]] for i in range(m)) for pi in itertools.permutations(range(m)))


def validate_point(p: np.ndarray, k: int, tol: float = TAU_FEAS) -> None:
    """Raise ``InfeasiblePointError`` unless the vector p lies in [0,1]^n
    with sum(p) = k, to within ``tol`` (``tol * n`` for the sum)."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise InfeasiblePointError(f"p must be one vector, got shape {p.shape}")
    n = p.size
    if not (1 <= k <= n):
        raise InfeasiblePointError(f"need 1 <= k <= n, got k={k}, n={n}")
    # written so that a NaN coordinate fails both checks
    if not (p.min() >= -tol and p.max() <= 1.0 + tol):
        raise InfeasiblePointError("NaN or coordinate outside [0, 1]")
    total = float(p.sum())
    if not abs(total - k) <= max(tol, tol * n):
        raise InfeasiblePointError(f"sum(p) = {total:.12g} != k = {k}")


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


def indices_of(mask: int) -> tuple[int, ...]:
    """The elements of the set of the bits of ``mask``, lowest first."""
    out = []
    while mask:  # one step per set bit, lowest first
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class TableFunction(SetFunction):
    """Set function given by its finite value on every bitmask (length 2^n
    table), normalized: its empty-set entry is 0.  A run's (b, k) sets are
    valued by one gather at their bitmasks."""

    def __init__(self, vals, monotone: bool = True):
        self._vals = np.asarray(vals, dtype=float)
        size = len(self._vals)
        if not size or size & (size - 1):
            raise ValueError(f"the table's length {size} is not a power of two")
        if self._vals[0] != 0.0:
            raise ValueError(f"the table's empty-set entry {self._vals[0]} is not 0")
        bad = np.flatnonzero(~np.isfinite(self._vals))
        if bad.size:
            raise ValueError(f"the table's entry {bad[0]} is {self._vals[bad[0]]}, not finite")
        super().__init__(size.bit_length() - 1, monotone=monotone)

    def _values(self, sets: np.ndarray) -> np.ndarray:
        return self._vals[np.bitwise_or.reduce(np.left_shift(1, sets), axis=1)]


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


def balanced_masks(m: int) -> np.ndarray:
    """The nonempty balanced subsets of a matching reward on m + m vertices,
    as bitmasks in increasing order: as many vertices of U (bits 0..m-1) as
    of V (bits m..2m-1)."""
    masks = np.arange(1 << 2 * m)
    in_u = np.bitwise_count(masks & ((1 << m) - 1))
    return masks[(in_u > 0) & (in_u == np.bitwise_count(masks >> m))]


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
        pos = marg > tol
        if not pos.any():
            continue
        num = best[free][pos]
        if np.any(num <= tol):
            return 0.0
        rho = min(rho, float((num / marg[pos]).min()))
    return min(rho, 1.0)


def marginal_vector(f: SetFunction, perm: np.ndarray | None = None) -> np.ndarray:
    """Telescoping marginal gains of f along a permutation (n oracle calls).

    g[perm[i]] = f(first i+1 elements) - f(first i elements).  The entries
    always sum to f(full set).  The vector lies in the 1-core of a
    submodular f, and in the 1/rho-core of a monotone f whose ratio is rho
    (``estimate_rho``).
    """
    n = f.n
    if perm is None:
        perm = np.arange(n)
    perm = np.asarray(perm, dtype=int)
    if sorted(perm.tolist()) != list(range(n)):
        raise ValueError("perm must be a permutation of 0..n-1")
    g = np.empty(n)
    g[perm] = np.diff(f.prefix_values(perm))
    return g


def shapley_exact(f: SetFunction) -> np.ndarray:
    """Exact Shapley value via the weighted-subset formula (2^n evaluations)."""
    n = f.n
    fv = f.values_all()  # raises EnumerationTooLargeError past ENUM_MAX
    fact = [math.factorial(i) for i in range(n + 1)]
    coef = np.array([fact[s] * fact[n - s - 1] / fact[n] for s in range(n)])
    masks = np.arange(1 << n)
    sizes = np.bitwise_count(masks)
    sh = np.zeros(n)
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


def dictator_vector(f: SetFunction, i_star: int,
                    m: float | None = None) -> tuple[np.ndarray, float]:
    """Single-spike vector putting the whole value f(full set) on a
    dictator, and its claimed admissibility f(full set) / m.

    ``m``, the dictatorship level, lies in (0, f({i_star})], so that every
    set holding the dictator is worth at least m; it defaults to f({i_star}).
    """
    big_m, single = f.full_value(), f.value([i_star])
    if m is None:
        m = single
    if not 0.0 < m <= single:
        raise ValueError(f"dictator level m = {m} must lie in (0, f({{{i_star}}}) = {single}]")
    g = np.zeros(f.n)
    g[i_star] = big_m
    return g, big_m / m


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
    fv = f.values_all()  # raises EnumerationTooLargeError past ENUM_MAX
    if abs(float(g.sum()) - f.full_value()) > tol:
        return False
    masks = slice(1, None) if masks is None else np.asarray(masks, dtype=int)
    return bool(np.all(subset_table(g, np.add)[masks] <= alpha * fv[masks] + tol))


def tightest_alpha(g: np.ndarray, f: SetFunction, tol: float = DEFAULT_TOL) -> float:
    """Smallest alpha at which g satisfies every subset constraint.

    Taken as the max of (sum_{i in S} g_i) / f(S) over nonempty S with
    f(S) > 0, clamped below at 1.  Positive g-mass on a zero-value set cannot
    be scaled away, so it yields +inf; nonpositive mass there is ignored.
    """
    g = np.asarray(g, dtype=float)
    fv = f.values_all()[1:]  # raises EnumerationTooLargeError past ENUM_MAX
    gs = subset_table(g, np.add)[1:]
    zero = fv <= 0.0
    if np.any(zero & (gs > tol)):
        return float("inf")
    ratios = gs[~zero] / fv[~zero]
    return float(max(1.0, ratios.max())) if ratios.size else 1.0


def avg_submodular_shapley_check(f: SetFunction, tol: float = DEFAULT_TOL) -> bool:
    """Certify that the Shapley value of f lies in its core (alpha = 1).

    Evaluates, for every target set T, the permutation-weighted sum of
    marginal-contribution differences f_i(S) - f_i(S intersect T) over all S
    containing i in T; the Shapley value is in the core iff every such sum is
    nonpositive.
    """
    n = f.n
    _guard(n, 10, "the Shapley core check")
    fv = f.values_all()
    fact = [math.factorial(i) for i in range(n + 1)]
    weight = np.array([0.0] + [fact[s - 1] * fact[n - s] / fact[n] for s in range(1, n + 1)])
    masks = np.arange(1 << n)
    w_all = weight[np.bitwise_count(masks)]
    has = [masks[masks & 1 << i != 0] for i in range(n)]  # has[i]: the masks containing i
    marg = np.zeros((n, 1 << n))  # marg[i, mask] = f(mask) - f(mask minus i) there
    for i in range(n):
        marg[i, has[i]] = fv[has[i]] - fv[has[i] ^ 1 << i]
    for t_mask in range(1, 1 << n):
        total = 0.0
        for i in indices_of(t_mask):
            total += float(np.sum(w_all[has[i]] * (marg[i, has[i]] - marg[i, has[i] & t_mask])))
        if total > tol:
            return False
    return True
