"""Geometry of the capped simplex {p in [0,1]^n : sum(p) = k}.

This polytope is exactly the set of feasible marginal inclusion probabilities
for sampling k of n elements without replacement.  A point of it is a plain
float vector p, with k passed beside it; ``validate_point`` checks one.  The
module provides the four solvers the online policies need:

* ``entropic_ftrl_argmax`` - exact maximizer of a linear score minus a scaled
  negative entropy (the follow-the-regularized-leader update),
* ``euclidean_project``   - exact Euclidean projection at any scale, solved
  only over the scores within 1 of the k-th largest,
* ``lmo``                 - linear minimization oracle (a top-k selection),
* ``afw_minimize``        - away-steps Frank-Wolfe for quadratic objectives.

Each solver ends with a clip of its point to [0, 1] and stops there: the
sum is k up to rounding, and the sampler (``sampling._prefix_sums``) alone
pins it to k.

All functions are pure; none touch global state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TAU_FEAS = 1e-9
# exp(-690) ~ 3e-300 is still a normal double: below this spread of scores the
# exponentials and their tail sums keep full precision, and k / e cannot overflow
EXP_SAFE_SPREAD = 690.0
# blocks of at most this many score rows take the few-rows entropic body
FEW_ROWS = 8


class InfeasiblePointError(ValueError):
    """A vector violates the capped-simplex constraints beyond tolerance."""


def _check_finite(x: np.ndarray, name: str, rows: bool = False) -> np.ndarray:
    """``x`` as floats, after checking that it is one vector (or, with
    ``rows``, a block of vectors as rows) with finite entries only."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 and not (rows and x.ndim == 2):
        raise ValueError(f"{name} must be a 1-d vector, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError(f"{name} contains non-finite entries")
    return x


def validate_point(p: np.ndarray, k: int, tol: float = TAU_FEAS) -> None:
    """Raise ``InfeasiblePointError`` unless the vector p lies in [0,1]^n
    with sum(p) = k, to within ``tol`` (``tol * n`` for the sum)."""
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


def entropic_ftrl_argmax(theta: np.ndarray, eta: float, k: int) -> np.ndarray:
    """Maximize <theta, p> - (1/eta) * sum(p_i log p_i) over the capped simplex.

    The KKT conditions give p_i = min(1, c * exp(eta * theta_i)) with the
    scalar c > 0 fixed by sum(p) = k.  Exactly j coordinates are capped at 1
    for some j in {0, ..., k-1}; the solver sorts the scores once and scans
    for the consistent j, so the cost is O(n log n).  Exponentials are
    stabilized by subtracting the maximum score first.  When the scores
    spread wider than ``EXP_SAFE_SPREAD``, where those exponentials would
    underflow, each candidate j's tail sum is taken in log space relative to
    the tail's own largest score, so no tail sum can vanish.

    Equal scores get equal exponentials (a zero score's sign does not reach
    its exponential either), so the sorted exponentials, the tail sums and
    j come out the same whatever order a sort leaves ties in.  That order
    reaches p only where equal scores fall on both sides of the j capped
    coordinates.  Exact arithmetic rules that out, but rounding does not:
    log-space tail sums of scores around 1e6 are off by far more than the
    1e-12 slack of the cap test.  There the scores are sorted again stably,
    so equal ones keep index order as one stable sort would leave them.
    Everywhere else numpy's default sort (unstable, and above about a
    thousand elements much faster) gives the same p.

    ``theta`` may also be a (B, n) block of score vectors; the result then
    holds the B maximizers as rows, each bit for bit what its row alone
    gives.  :func:`_entropic_block` picks the body by the block's size: a
    vector or a few rows go through :func:`_entropic_few`, more rows through
    :func:`_entropic_rows`, the same steps on every row at once.
    """
    theta = _check_finite(theta, "theta", rows=True)
    n = theta.shape[-1]
    _check_entropic_args(eta, k, n)
    if k == n:
        return np.ones(theta.shape)
    # an eta * theta past the float range reaches the bodies' named error
    with np.errstate(over="ignore", invalid="ignore"):
        if theta.ndim == 1:
            return _entropic_few(theta[None], eta, k)[0]
        return _entropic_block(theta, eta, k)


def _entropic_block(theta: np.ndarray, eta: float, k: int) -> np.ndarray:
    """:func:`entropic_ftrl_argmax` of a (B, n) block of float scores, for
    an ``eta`` and ``k < n`` checked already, through the body its size
    calls for.  The few-rows body shares a call's fixed cost among its rows
    but scans and caps them one by one; the row body does every step on
    all rows at once.  Per block (2-core VM, best of 5), the few-rows body
    takes 20 against 32 µs at B = 4 and 28 against 35 at B = 8, n = 20, and
    152 against 158 at B = 8, n = 1000; the row body wins from about
    B = 10.

    An eta * theta past the float range makes numpy warn of an overflow and
    of the invalid values it leads to before the bodies name it, so their
    callers enter ``np.errstate(over="ignore", invalid="ignore")``, once
    per block."""
    if len(theta) <= FEW_ROWS:
        return _entropic_few(theta, eta, k)
    return _entropic_rows(theta, eta, k)


def _check_entropic_args(eta: float, k: int, n: int) -> None:
    """The checks :func:`entropic_ftrl_argmax` makes of ``eta`` and ``k``."""
    if not (0.0 < eta < math.inf):
        raise ValueError(f"eta must be positive and finite, got {eta!r}")
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")


def _entropic_few(theta: np.ndarray, eta: float, k: int) -> np.ndarray:
    """:func:`entropic_ftrl_argmax` of each row of a (R, n) block of float
    scores, for an ``eta`` and ``k < n`` checked already: the body for one
    row or a few.  The sort, the exponentials and their reverse cumulative
    sums run on the whole block; the scan for each row's consistent j runs
    on Python floats (the same divides, multiplies and compares as on
    arrays), and capped rows and tie splits are fixed row by row, before
    one clip to [0, 1] of the whole block.  ``theta`` is checked to be
    finite only where a non-finite score must land: in the rare branch for
    scores spread wider than ``EXP_SAFE_SPREAD``, which NaN, +-inf and
    eta * theta overflowing all reach."""
    R, n = theta.shape
    neg = theta * -eta  # -(eta * theta): ascending order is descending score
    order = neg.argsort()
    if R > 1:  # indices into the flattened block, so one take and one store move all rows
        order += np.arange(0, R * n, n)[:, None]
    srt = neg.take(order)
    # a top score that is not finite goes to the rare branch before
    # infinities are subtracted, and that branch raises (a sum of finite
    # tops that overflows only sends them through this check)
    tops = srt[:, 0].tolist()
    if not math.isfinite(sum(tops)):
        for r, top in enumerate(tops):
            if not math.isfinite(top):
                _capped_in_log_space(theta[r], srt[r], k)
    # d: descending, stabilized, s[order] - s[order[0]]
    d = (tops[0] if R == 1 else srt[:, :1]) - srt
    e = np.exp(d)
    # tail[j] = sum of exp scores with sorted index >= j, for j < k (the
    # axis passed by position: as a keyword it costs a third more here)
    tails = np.add.accumulate(e[:, ::-1], 1)[:, :n - k - 1:-1].tolist()
    c, caps, rare = [], [], []
    for r, (tail, top, last) in enumerate(zip(tails, e[:, :k].tolist(),
                                              d[:, -1].tolist())):
        if not last >= -EXP_SAFE_SPREAD:  # NaN fails too
            c.append(1.0)
            rare.append(r)
            continue
        # j capped coordinates are consistent iff the largest uncapped one
        # stays <= 1: the smallest consistent j, or 0 if none is, as an
        # argmax of no True gives
        for j in range(k):
            cj = (k - j) / tail[j]
            if cj * top[j] <= 1.0 + 1e-12:
                break
        else:
            j, cj = 0, k / tail[0]
        c.append(cj)
        if j:
            caps.append((r, j))
    e *= c[0] if R == 1 else np.array(c)[:, None]
    for r, j in caps:
        e[r, :j] = 1.0
    for r in rare:
        e[r], j = _capped_in_log_space(theta[r], srt[r], k)
        if j:
            caps.append((r, j))
    for r, j in caps:
        if srt[r, j - 1] == srt[r, j]:  # equal scores on both sides of the caps
            order[r] = neg[r].argsort(kind="stable") + r * n
    p = np.empty(R * n)
    p[order] = e  # a fancy store: put checks each index, three times slower at n = 2000
    p = p.reshape(R, n)
    # the clip to [0, 1]: no entry is below 0 here
    return np.minimum(p, 1.0, out=p)


def _capped_in_log_space(theta: np.ndarray, srt: np.ndarray, k: int
                         ) -> tuple[np.ndarray, int]:
    """:func:`_capped_exponentials_in_log_space` of one row's sorted negated
    scores ``srt``, after checking that its scores ``theta`` are finite."""
    if not np.isfinite(theta).all():
        raise ValueError("theta contains non-finite entries")
    return _capped_exponentials_in_log_space(srt[0] - srt, k)


def _entropic_rows(theta: np.ndarray, eta: float, k: int) -> np.ndarray:
    """:func:`entropic_ftrl_argmax` of every row of a (B, n) block, k < n:
    the same sort, exponentials, tie rule and clip to [0, 1], row-wise."""
    B, n = theta.shape
    neg = theta * -eta
    every = np.arange(B)
    # indices into the flattened block, so one take and one store move all rows
    order = neg.argsort()
    order += every[:, None] * n
    srt = neg.take(order)
    d = srt[:, :1] - srt
    # rows spread wider than EXP_SAFE_SPREAD are clamped here, so that no
    # tail sum vanishes, and solved again in log space below (as are rows
    # where eta * theta overflowed)
    e = np.maximum(d, -EXP_SAFE_SPREAD)
    np.exp(e, out=e)
    rev = e[:, ::-1].cumsum(axis=1)
    c = np.arange(k, 0, -1) / rev[:, :n - k - 1:-1]
    j = (c * e[:, :k] <= 1.0 + 1e-12).argmax(axis=1)
    e *= c[every, j][:, None]
    e[np.arange(n) < j[:, None]] = 1.0
    for r in (~(d[:, -1] >= -EXP_SAFE_SPREAD)).nonzero()[0].tolist():
        e[r], j[r] = _capped_exponentials_in_log_space(d[r], k)
    split = ((j > 0) & (srt[every, j - 1] == srt[every, j])).nonzero()[0]
    if split.size:  # rows with equal scores on both sides of the caps
        order[split] = neg[split].argsort(kind="stable") + split[:, None] * n
    p = np.empty(B * n)
    p[order] = e
    p = p.reshape(B, n)
    # the clip to [0, 1]: no entry is below 0 here
    return np.minimum(p, 1.0, out=p)


def _capped_exponentials_in_log_space(d: np.ndarray, k: int
                                      ) -> tuple[np.ndarray, int]:
    """The maximizer, in sorted order, for stabilized scores ``d`` sorted in
    descending order and spread wider than ``EXP_SAFE_SPREAD``, and the
    number j of its coordinates capped at 1.  ``d[0]`` is NaN only where
    eta * theta overflowed at the top score, which is an error."""
    if math.isnan(d[0]):
        raise ValueError("eta * theta overflows the float range: eta too large "
                         "for the scores")
    n = d.size
    # log of sum_{i >= j} exp(d_i - d_j), the tail sum at its own maximum (>= 0)
    log_tail = np.logaddexp.accumulate(d[::-1])[::-1][:k] - d[:k]
    # with j capped, the largest uncapped coordinate is (k - j) / tail_j
    j = int(np.argmax((k - np.arange(k)) * np.exp(-log_tail) <= 1.0 + 1e-12))
    e = np.exp(d[j:] - d[j])
    p_sorted = np.ones(n)
    p_sorted[j:] = (k - j) / float(e.sum()) * e
    return p_sorted, j


def euclidean_project(y: np.ndarray, k: int) -> np.ndarray:
    """Exact Euclidean projection of y onto the capped simplex.

    The projection is p_i = clamp(y_i - tau, 0, 1) where tau solves
    S(tau) = sum_i clamp(y_i - tau, 0, 1) = k.  Let v be the k-th largest
    score.  At most k - 1 scores exceed v, so S(v) <= k - 1, and the k
    largest are all capped at v - 1, so S(v - 1) >= k: tau lies in
    [v - 1, v).  In u = y - v, a score with u >= 1 is therefore capped and
    one with u <= -1 is zero, and only the candidates u > -1, clamped to at
    most 1, enter the solve (about 150 of 1000 on the optimistic policy's
    inputs).  v comes from one O(n) partition, and only the m candidates
    are sorted.

    On the sorted candidates z, with breakpoints {z - 1} and {z}, the
    numbers of coordinates still positive and still capped at a breakpoint
    are positions in z and z - 1, found by ``searchsorted``; prefix sums of
    z give S at every breakpoint, and the first breakpoint where S reaches
    k ends the segment holding the root.  tau is then taken from that
    segment's own sum, so every score the solve touches lies in (-1, 1]:
    no scale of y can make it overflow or cancel, and spread-out scores
    give the top-k vertex.  The cost is O(n + m log m).

    Only the values of the sorted candidates enter, never the order a sort
    leaves ties in, so no tie needs a stable sort.
    """
    y = _check_finite(y, "y")
    n = y.size
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if k == n:
        return np.ones(n)

    # v as +0.0 when it is a zero, so that u does not depend on which zero
    # the partition returns
    v = float(np.partition(y, n - k)[n - k]) + 0.0
    if abs(v) < 1e291:  # under half an ulp of the largest float: no overflow
        u = y - v
    else:  # it may, to an infinity that the clamps below handle
        with np.errstate(over="ignore"):
            u = y - v
    cand = (u > -1.0).nonzero()[0]
    w = u[cand]
    np.minimum(w, 1.0, out=w)
    z = np.sort(w)
    m = z.size
    # at breakpoint b the candidates from z[pos] on are still positive and
    # those from z[cap] on still capped, so z[pos:cap] are the active ones
    bps = np.concatenate([z - 1.0, z])
    pos = z.searchsorted(bps)
    cap = bps[:m].searchsorted(bps)
    sums = np.zeros(m + 1)
    np.add.accumulate(z, out=sums[1:])
    # s = S(b) - m, from S(b) = (m - cap) + sum(z[pos:cap]) - (cap - pos) * b
    s = sums[cap]
    s -= sums[pos]
    s -= cap
    s -= (cap - pos) * bps
    i = int(np.where(s <= k - m, bps, np.inf).argmin())
    a, c = int(pos[i]), int(cap[i])
    # the threshold less v, on the segment that ends at bps[i]
    if c > a:  # m - c capped, z[a:c] active
        t = (float(np.add.reduce(z[a:c])) - (k - (m - c))) / (c - a)
    else:  # none active: S is flat at k there
        t = float(bps[i])
    p = np.zeros(n)
    p[cand] = (w - t).clip(0.0, 1.0)
    return p


def lmo(cost: np.ndarray, k: int) -> np.ndarray:
    """Vertex of the capped simplex minimizing <cost, .>.

    Returns the 0/1 indicator of the k smallest costs; ties break toward the
    lowest index so repeated runs give identical traces.  Only a tie between
    the k-th and (k+1)-th smallest costs leaves the set open, so the default
    sort decides it unless those two are equal, and then a stable sort does
    (:func:`_lmo_indices`, the body that Frank-Wolfe calls).

    ``cost`` may also be a (B, n) block of cost vectors; the result then
    holds their vertices as rows, each the one its row alone gives.  A row
    needs only its k-th smallest cost v and to know whether the (k+1)-th
    equals it.  One partition around column k puts the (k+1)-th there and
    the k smallest before it, so v is the largest of those, and a row with
    no tie at v has exactly k costs <= v: its vertex is that mask, which a
    signed zero cannot split, since -0.0 == 0.0.  Only rows with the tie are
    sorted, stably.  The partition takes one kth on purpose: numpy 2.4 sends
    a single kth to its SIMD select, and a list of them to a branchy
    introselect.  On (16, 1000) blocks of fresh data this takes about 25 µs
    against 134 for ``argpartition([k - 1, k])``.  Timed on one block again
    and again, the two read alike (about 22 µs), because the branch
    predictor learns the data.
    """
    cost = _check_finite(cost, "cost", rows=True)
    n = cost.shape[-1]
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if k == n:
        return np.ones(cost.shape)
    if cost.ndim == 1:
        v = np.zeros(n)
        v[_lmo_indices(cost, k)] = 1.0
        return v
    part = np.partition(cost, k, axis=1)
    kth = part[:, :k].max(axis=1)
    v = (cost <= kth[:, None]).astype(float)
    tie = (kth == part[:, k]).nonzero()[0]
    if tie.size:
        v[tie] = 0.0
        v[tie[:, None], cost[tie].argsort(kind="stable")[:, :k]] = 1.0
    return v


def _lmo_indices(cost: np.ndarray, k: int) -> np.ndarray:
    """The increasing indices of the vertex :func:`lmo` gives for one finite
    float cost vector and ``1 <= k <= n``, checked already."""
    order = cost.argsort()
    if k < cost.size and cost[order[k - 1]] == cost[order[k]]:
        order = cost.argsort(kind="stable")
    top = order[:k]
    top.sort()
    return top


class QuadraticObjective:
    """F(p) = (sigma / 2) * ||p||^2 - <p, b> over the capped simplex for
    ``k``, with n the length of the vector b.

    A sum of quadratic regularizers sum_t (sigma_t / 2) * ||p - c_t||^2
    less a linear score <p, l> is this F, up to a constant, with sigma the
    summed weights and b = l + sum_t sigma_t * c_t.  The weight must be
    nonnegative and finite, and b one finite vector."""

    def __init__(self, k: int, sigma: float, b: np.ndarray):
        if not 0.0 <= sigma < math.inf:  # NaN fails too
            raise ValueError(f"the weight sigma must be nonnegative and finite, got {sigma!r}")
        self.k, self.sigma = k, float(sigma)
        self.b = _check_finite(b, "the objective's vector b")
        self.n = self.b.size

    def value(self, x: np.ndarray) -> float:
        """F(x) (enough for gaps and line search)."""
        return 0.5 * self.sigma * float(x @ x) - float(x @ self.b)

    def exact_minimizer(self) -> np.ndarray:
        """Closed-form route: the minimizer is the projection of b / sigma."""
        if self.sigma <= 0.0:
            raise ValueError("exact route needs a strictly convex objective")
        return euclidean_project(self.b / self.sigma, self.k)


@dataclass
class AfwResult:
    """An away-steps Frank-Wolfe solve: the iterate ``p``, its Frank-Wolfe
    ``gap``, the ``iterations`` taken, whether the gap reached the tolerance
    (``converged``), and the ``active`` set for a warm start: the (m, k)
    index array of its vertices, in the order they entered, and their (m,)
    weights."""

    p: np.ndarray
    gap: float
    iterations: int
    converged: bool
    active: tuple[np.ndarray, np.ndarray]


def afw_minimize(
    obj: QuadraticObjective,
    eps: float,
    max_iters: int,
    active: tuple[np.ndarray, np.ndarray] | None = None,
) -> AfwResult:
    """Away-steps Frank-Wolfe over the capped simplex, for the quadratic
    ``obj``: (sigma / 2) * ||p||^2 - <p, b>, with sigma > 0.

    Maintains the iterate as a convex combination of vertices; each round
    picks the better of the Frank-Wolfe direction (toward the LMO vertex)
    and the away direction (from the worst active vertex), with exact line
    search.  Stops when the Frank-Wolfe gap drops below ``eps`` or after
    ``max_iters`` iterations; hitting the cap is reported via ``converged``
    rather than raised.

    The active set is an (m, k) array of vertices (the increasing indices
    of their k elements) in the order they entered, and their weights.  The
    away vertex is the first of largest gradient sum, from one gather-sum.
    ``active`` may carry the (vertices, weights) of a previous solve for
    warm starting; without it the solve starts at the vertex maximizing
    <p, b>.

    The objective's weight and b are checked to be finite when it is
    built, not per solve or iteration: each iteration calls the LMO body
    :func:`_lmo_indices`, whose indices are the new vertex's key as they
    stand, and finds the vertex's row among the active ones by the key's
    bytes.  A gradient that is not finite makes the Frank-Wolfe gap
    non-finite too, so a finite objective whose gradient overflows is
    named there.  The iterate is updated in place, and the active set is
    filtered only when a weight falls to 1e-15 or below.  At n = 12, k = 4
    an iteration takes about 8 µs against 12.5 with a checked ``lmo`` per
    iteration (criterion 5's solves, 2-core VM).
    """
    n, k, sigma = obj.n, obj.k, obj.sigma
    if sigma <= 0.0:
        raise ValueError("afw_minimize needs a positive weight sigma; use lmo for the linear case")
    if eps <= 0.0:
        raise ValueError("eps must be positive")

    # The iterate is confined to the sum(p) = k hyperplane, so shifting b by
    # a constant vector changes nothing; centering it keeps the gradient
    # entries small and the gap computation well conditioned.
    drift = obj.b - float(np.mean(obj.b))

    x = np.zeros(n)
    if active is not None and len(active[0]):
        keys, weights = active
        keep = weights > 0.0
        keys, weights = keys[keep], weights[keep]
        total = sum(weights.tolist())  # left to right, as Python adds
        if not total < math.inf:
            raise ValueError("the warm start's weights must be finite")
        weights = weights / total
        # each coordinate adds its vertices' weights in their order
        np.add.at(x, keys, weights[:, None])
    else:
        keys = _lmo_indices(-drift, k)[None]
        weights = np.ones(1)
        x[keys[0]] = 1.0
    # each active vertex's key as bytes, to find a Frank-Wolfe vertex's row
    tags = [key.tobytes() for key in keys]

    steps = 0
    while True:
        g = sigma * x
        g -= drift  # the gradient, sigma * x - drift
        step = _lmo_indices(g, k)
        d_fw = np.zeros(n)
        d_fw[step] = 1.0
        d_fw -= x
        up = -g
        gap = float(up.dot(d_fw))
        if not math.isfinite(gap):
            raise ValueError("the objective's gradient overflows the float range")
        if gap <= eps or steps >= max_iters:
            break
        steps += 1

        away = int(np.add.reduce(g[keys], axis=1).argmax())
        d_away = x.copy()
        d_away[keys[away]] -= 1.0
        away_gap = float(up.dot(d_away))

        if gap >= away_gap:
            d = d_fw
            gamma_max = 1.0
        else:
            d = d_away
            a = float(weights[away])
            gamma_max = a / (1.0 - a) if a < 1.0 else math.inf

        dd = float(d.dot(d))
        if dd <= 0.0:
            break
        gamma = float(-g.dot(d) / (sigma * dd))
        gamma = min(max(gamma, 0.0), gamma_max)
        if gamma <= 0.0 or not math.isfinite(gamma):
            break  # stalled at numerical precision

        d *= gamma
        x += d
        if d is d_fw:
            weights *= 1.0 - gamma
            tag = step.tobytes()
            if tag in tags:
                weights[tags.index(tag)] += gamma
            else:
                keys = np.vstack([keys, step])
                weights = np.append(weights, gamma)
                tags.append(tag)
        else:
            weights *= 1.0 + gamma
            weights[away] -= gamma
        if np.minimum.reduce(weights) <= 1e-15:
            keep = weights > 1e-15
            keys, weights = keys[keep], weights[keep]
            tags = [tag for tag, kept in zip(tags, keep.tolist()) if kept]

    return AfwResult(x.clip(0.0, 1.0), gap, steps, gap <= eps, (keys, weights))


def default_afw_budget(horizon: int) -> int:
    """Default iteration cap for one Frank-Wolfe solve inside a T-round run."""
    return int(np.ceil(20.0 * np.log(horizon + 2.0)))
