"""Geometry of the capped simplex {p in [0,1]^n : sum(p) = k}.

This polytope is exactly the set of feasible marginal inclusion probabilities
for sampling k of n elements without replacement.  The module provides the
four solvers the online policies need:

* ``entropic_ftrl_argmax`` - exact maximizer of a linear score minus a scaled
  negative entropy (the follow-the-regularized-leader update),
* ``euclidean_project``   - exact Euclidean projection, from cumulative sums
  over the sorted breakpoints of its threshold equation,
* ``lmo``                 - linear minimization oracle (a top-k selection),
* ``afw_minimize``        - away-steps Frank-Wolfe for quadratic objectives.

All functions are pure; none touch global state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TAU_FEAS = 1e-9
# exp(-690) ~ 3e-300 is still a normal double: below this spread of scores the
# exponentials and their tail sums keep full precision, and k / e cannot overflow
EXP_SAFE_SPREAD = 690.0


class InfeasiblePointError(ValueError):
    """A vector violates the capped-simplex constraints beyond tolerance."""


def _check_finite(x: np.ndarray, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"{name} must be a 1-d vector, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError(f"{name} contains non-finite entries")
    return x


@dataclass(frozen=True)
class HypersimplexPoint:
    """A marginal inclusion probability vector: p in [0,1]^n with sum(p) = k."""

    n: int
    k: int
    p: np.ndarray

    def validate(self, tol: float = TAU_FEAS) -> None:
        if not (1 <= self.k <= self.n):
            raise InfeasiblePointError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if self.p.shape != (self.n,):
            raise InfeasiblePointError("p has wrong length")
        # written so that a NaN coordinate fails both checks
        if not (self.p.min() >= -tol and self.p.max() <= 1.0 + tol):
            raise InfeasiblePointError("NaN or coordinate outside [0, 1]")
        total = float(self.p.sum())
        if not abs(total - self.k) <= max(tol, tol * self.n):
            raise InfeasiblePointError(f"sum(p) = {total:.12g} != k = {self.k}")


def _refeasibilize(p: np.ndarray, k: int) -> np.ndarray:
    """Clamp to [0,1] and spread the tiny sum residual over interior coordinates.

    Solvers are exact up to floating point; downstream sampling wants an
    exactly feasible vector, so the residual k - sum(p) is distributed over
    coordinates strictly inside (0, 1) proportionally to their mass.
    """
    p = p.clip(0.0, 1.0)
    resid = k - float(p.sum())
    if resid == 0.0:
        return p
    interior = p > 0.0
    interior &= p < 1.0
    w = p[interior]
    if not w.size:
        if abs(resid) > 1e-7:
            raise InfeasiblePointError("cannot repair infeasible integral vector")
        return p
    # w + resid * (w / total), in place.  Every w is > 0, so total > 0, and
    # each w moves toward the one bound resid points to: clamping to that
    # bound is the clip to [0, 1]
    q = w / float(w.sum())
    q *= resid
    q += w
    if resid > 0.0:
        p[interior] = np.minimum(q, 1.0, out=q)
    else:
        p[interior] = np.maximum(q, 0.0, out=q)
    return p


def entropic_ftrl_argmax(theta: np.ndarray, eta: float, k: int) -> HypersimplexPoint:
    """Maximize <theta, p> - (1/eta) * sum(p_i log p_i) over the capped simplex.

    The KKT conditions give p_i = min(1, c * exp(eta * theta_i)) with the
    scalar c > 0 fixed by sum(p) = k.  Exactly j coordinates are capped at 1
    for some j in {0, ..., k-1}; the solver sorts the scores once and scans
    for the consistent j, so the cost is O(n log n).  Exponentials are
    stabilized by subtracting the maximum score first.  When the scores
    spread wider than ``EXP_SAFE_SPREAD``, where those exponentials would
    underflow, each candidate j's tail sum is taken in log space relative to
    the tail's own largest score, so no tail sum can vanish.
    """
    theta = _check_finite(theta, "theta")
    n = theta.size
    if not (0.0 < eta < math.inf):
        raise ValueError(f"eta must be positive and finite, got {eta!r}")
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if k == n:
        return HypersimplexPoint(n, k, np.ones(n))

    s = eta * theta
    order = (-s).argsort(kind="stable")
    d = s[order] - s[order[0]]  # descending, stabilized
    if d[-1] >= -EXP_SAFE_SPREAD:
        e = np.exp(d)
        # rev[n - 1 - j] = sum of exp scores with sorted index >= j
        rev = e[::-1].cumsum()
        c = np.arange(k, 0, -1) / rev[n - k:][::-1]
        # j capped coordinates are consistent iff the largest uncapped one stays <= 1
        j = int((c * e[:k] <= 1.0 + 1e-12).argmax())  # smallest consistent j
        p_sorted = c[j] * e
        p_sorted[:j] = 1.0
    else:
        # log of sum_{i >= j} exp(d_i - d_j), the tail sum at its own maximum (>= 0)
        log_tail = np.logaddexp.accumulate(d[::-1])[::-1][:k] - d[:k]
        # with j capped, the largest uncapped coordinate is (k - j) / tail_j
        j = int(np.argmax((k - np.arange(k)) * np.exp(-log_tail) <= 1.0 + 1e-12))
        e = np.exp(d[j:] - d[j])
        p_sorted = np.ones(n)
        p_sorted[j:] = (k - j) / float(e.sum()) * e
    p = np.empty(n)
    p[order] = p_sorted
    p = _refeasibilize(p, k)
    return HypersimplexPoint(n, k, p)


def euclidean_project(y: np.ndarray, k: int) -> HypersimplexPoint:
    """Exact Euclidean projection of y onto the capped simplex.

    The projection is p_i = clamp(y_i - tau, 0, 1) where tau solves
    sum_i clamp(y_i - tau, 0, 1) = k.  The map tau -> sum falls piecewise
    linearly from n to 0 with breakpoints {y_i - 1} and {y_i}.  After one
    stable sort of the 2n breakpoints, exclusive cumulative sums give the sum
    at every breakpoint at once; the first breakpoint where it reaches k ends
    the segment holding the root (Wang & Lu 2015, arXiv:1503.01002).  The
    cost is O(n log n).
    """
    y = _check_finite(y, "y")
    n = y.size
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if k == n:
        return HypersimplexPoint(n, k, np.ones(n))

    # While tau increases, coordinate i leaves its cap at y_i - 1 and becomes
    # active (p_i = y_i - tau); at y_i it hits zero and dies.  Just before
    # each sorted breakpoint: `entered` coordinates have left the cap, n_act
    # are active and act_sum is their sum of y, added left to right.
    bps = np.concatenate([y - 1.0, y])
    order = bps.argsort(kind="stable")
    bps = bps[order]
    enters = order < n
    entered = enters.cumsum() - enters
    n_act = 2 * entered - np.arange(2 * n)
    act_sum = np.zeros(2 * n)
    np.concatenate([y, -y])[order[:-1]].cumsum(out=act_sum[1:])
    # the sum just as tau reaches each breakpoint; the first one at or below k
    # ends the root's segment.  s[0] = n > k, so m = 0 only when rounding of
    # huge |y| hides the root; then p is all ones and _refeasibilize raises.
    s = (n - entered) + act_sum - n_act * bps
    m = int((s <= k + 1e-15).argmax())
    if n_act[m] > 0:
        tau = (n - entered[m] + act_sum[m] - k) / n_act[m]
    else:
        tau = bps[m]
    p = _refeasibilize((y - tau).clip(0.0, 1.0), k)
    return HypersimplexPoint(n, k, p)


def lmo(cost: np.ndarray, k: int) -> np.ndarray:
    """Vertex of the capped simplex minimizing <cost, .>.

    Returns the 0/1 indicator of the k smallest costs; ties break toward the
    lowest index so repeated runs give identical traces.
    """
    cost = _check_finite(cost, "cost")
    n = cost.size
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    v = np.zeros(n)
    if k == n:
        v[:] = 1.0
        return v
    v[cost.argsort(kind="stable")[:k]] = 1.0
    return v


@dataclass
class QuadraticObjective:
    """F(p) = sum_t (sigma_t / 2) * ||p - center_t||^2 - <p, linear>."""

    n: int
    k: int
    centers: list[tuple[float, np.ndarray]]
    linear: np.ndarray

    sigma_total: float = field(init=False)
    weighted_center: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.linear = np.asarray(self.linear, dtype=float)
        self.sigma_total = 0.0
        self.weighted_center = np.zeros(self.n)
        for sigma, c in self.centers:
            if sigma < 0:
                raise ValueError("center weights must be nonnegative")
            c = np.asarray(c, dtype=float)
            if c.shape != (self.n,):
                raise ValueError("center has wrong length")
            self.sigma_total += float(sigma)
            self.weighted_center = self.weighted_center + sigma * c

    def value(self, x: np.ndarray) -> float:
        """Objective up to an additive constant (enough for gaps and line search)."""
        return 0.5 * self.sigma_total * float(x @ x) - float(
            x @ (self.weighted_center + self.linear)
        )

    def exact_minimizer(self) -> HypersimplexPoint:
        """Closed-form route: the minimizer is the projection of the weighted mean."""
        if self.sigma_total <= 0.0:
            raise ValueError("exact route needs a strictly convex objective")
        y = (self.linear + self.weighted_center) / self.sigma_total
        return euclidean_project(y, self.k)


@dataclass
class AfwResult:
    point: HypersimplexPoint
    gap: float
    iterations: int
    converged: bool
    active: dict = field(default_factory=dict)


def afw_minimize(
    obj: QuadraticObjective,
    eps: float,
    max_iters: int,
    start: np.ndarray | None = None,
    active: dict | None = None,
) -> AfwResult:
    """Away-steps Frank-Wolfe over the capped simplex.

    Maintains the iterate as a convex combination of vertices; each round
    picks the better of the Frank-Wolfe direction (toward the LMO vertex)
    and the away direction (from the worst active vertex), with exact line
    search.  Stops when the Frank-Wolfe gap drops below ``eps`` or after
    ``max_iters`` iterations; hitting the cap is reported via ``converged``
    rather than raised.

    ``active`` may carry the vertex weights of a previous solve for warm
    starting; keys are index tuples of the k selected elements.
    """
    if obj.sigma_total <= 0.0:
        raise ValueError("afw_minimize needs sum of center weights > 0; use lmo for the linear case")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    n, k = obj.n, obj.k

    # The iterate is confined to the sum(p) = k hyperplane, so shifting the
    # linear term by a constant vector changes nothing; centering it keeps the
    # gradient entries small and the gap computation well conditioned.
    shift = float(np.mean(obj.weighted_center + obj.linear))
    drift = obj.weighted_center + obj.linear - shift

    def grad(x: np.ndarray) -> np.ndarray:
        return obj.sigma_total * x - drift

    def vert(key: tuple) -> np.ndarray:
        v = np.zeros(n)
        v[list(key)] = 1.0
        return v

    if active:
        weights = {key: float(w) for key, w in active.items() if w > 0.0}
        total = sum(weights.values())
        weights = {key: w / total for key, w in weights.items()}
        x = np.zeros(n)
        for key, w in weights.items():
            x[list(key)] += w
    else:
        if start is None:
            start = lmo(-drift, k)
        key = tuple((start > 0.5).nonzero()[0].tolist())
        if len(key) != k:
            raise ValueError("start must be a vertex with exactly k ones")
        weights = {key: 1.0}
        x = vert(key)

    gap = np.inf
    it = 0
    for it in range(1, max_iters + 1):
        g = grad(x)
        s = lmo(g, k)
        d_fw = s - x
        gap = float(-g @ d_fw)
        if gap <= eps:
            return AfwResult(HypersimplexPoint(n, k, _refeasibilize(x, k)), gap, it - 1, True, weights)

        away_key = max(weights, key=lambda key: float(g[list(key)].sum()))
        v_away = vert(away_key)
        d_away = x - v_away
        away_gap = float(-g @ d_away)

        if gap >= away_gap:
            d = d_fw
            gamma_max = 1.0
            step_key = tuple((s > 0.5).nonzero()[0].tolist())
            is_fw = True
        else:
            d = d_away
            a = weights[away_key]
            gamma_max = a / (1.0 - a) if a < 1.0 else np.inf
            is_fw = False

        dd = float(d @ d)
        if dd <= 0.0:
            break
        gamma = float(-(g @ d) / (obj.sigma_total * dd))
        gamma = min(max(gamma, 0.0), gamma_max)
        if gamma <= 0.0 or not np.isfinite(gamma):
            break  # stalled at numerical precision

        x = x + gamma * d
        if is_fw:
            for key in list(weights):
                weights[key] *= 1.0 - gamma
            weights[step_key] = weights.get(step_key, 0.0) + gamma
        else:
            for key in list(weights):
                weights[key] *= 1.0 + gamma
            weights[away_key] -= gamma
        weights = {key: w for key, w in weights.items() if w > 1e-15}

    g = grad(x)
    s = lmo(g, k)
    gap = float(-g @ (s - x))
    return AfwResult(
        HypersimplexPoint(n, k, _refeasibilize(x, k)), gap, it, gap <= eps, weights
    )


def default_afw_budget(horizon: int) -> int:
    """Default iteration cap for one Frank-Wolfe solve inside a T-round run."""
    return int(np.ceil(20.0 * np.log(horizon + 2.0)))
