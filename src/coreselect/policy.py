"""Online subset-selection policies and their regret accounting.

Every policy plays a block of B rounds per ``step``: draw a Madow sample
from each round's proposed inclusion probabilities, feed the learner the
round's proxy vector, which the caller passes in as a row, and return the
block's columns as one ``RoundRecord``: the proposals, the (B, k) drawn
sets, what was observed and paid.  A policy sees only these vectors, never
the rewards: the caller values the drawn sets.  The policies differ only in
the proposal (entropic argmax of the cumulative score, or an optimistic
quadratic step against a hint) and in the feed (the admissible vector
itself, an inverse-propensity estimate, or a Bernoulli-gated estimate with
a per-peek price).

The policies play a block in one pass over (B, n) arrays, except the
semi-bandit one, whose feed depends on the drawn set and which plays it one
row at a time; the optimistic proposals, each centered at those before it,
are the one step made row by row.  ``RegretLedger`` keeps the regret
accounting as running sums, folded in a block at a time.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import hypersimplex
from .blocks import row_dots, running_sums
from .hypersimplex import (
    QuadraticObjective,
    _check_entropic_args,
    _entropic_vector,
    afw_minimize,
    default_afw_budget,
    entropic_ftrl_argmax,
    lmo,
)
from .sampling import _check_uniforms, _madow_vector, draw


def norm_bound(alpha: float, value_bound: float) -> float:
    """Default l2 bound on admissible vectors: every alpha-core of a reward
    bounded by M sits inside the ball of radius alpha * M * sqrt(2)."""
    return alpha * value_bound * math.sqrt(2.0)


@dataclass
class ScoreConfig:
    """Shared run parameters for the policies.

    ``G`` bounds the l2 norm of the fed vectors (defaults to the admissible
    ball radius; pass G = M for monotone rewards fed nonnegative marginal
    vectors).  ``eta`` is the learning rate, defaulting to the horizon-tuned
    sqrt(k * ln(n/k) / (2 G^2 T)).
    """

    n: int
    k: int
    T: int
    alpha: float = 1.0
    M: float = 1.0
    G: float | None = None
    eta: float | None = None

    def __post_init__(self) -> None:
        if not (1 <= self.k <= self.n):
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if self.T < 1:
            raise ValueError("horizon T must be positive")
        if not self.alpha >= 1.0:  # NaN fails too
            raise ValueError("alpha must be >= 1")
        if not self.M >= 0.0:
            raise ValueError("value bound M must be nonnegative")
        if self.G is None:
            self.G = norm_bound(self.alpha, self.M)
        if self.eta is None:
            if self.k == self.n:
                self.eta = 0.0  # degenerate: the policy plays the full set
            else:
                self.eta = math.sqrt(
                    self.k * math.log(self.n / self.k) / (2.0 * self.G**2 * self.T)
                )
        if not math.isfinite(self.eta):
            raise ValueError(f"eta must be finite, got {self.eta!r}")
        if self.k < self.n and self.eta <= 0.0:
            raise ValueError("eta must be positive when k < n")


@dataclass
class RoundRecord:
    """The columns of a played block of B rounds.

    ``t`` is the range of the rounds' numbers, ``p`` the proposals and
    ``gvec`` the proxy vectors as (B, n) rows, ``selected`` the drawn sets
    as a (B, k) index array, ``cost`` a (B,) array, and ``observed`` a list
    of B flags.
    """

    t: range
    p: np.ndarray
    selected: np.ndarray
    gvec: np.ndarray
    observed: list[bool]
    cost: np.ndarray


class _Policy:
    """A policy: ``step`` checks a block of rounds and ``_play`` plays it.
    ``theta`` sums what the learner was fed.  At k == n every round plays
    the full set with p all ones, and nothing is proposed or drawn."""

    # the optimistic proposal is made against the round's hint
    needs_hint = False

    def __init__(self, config: ScoreConfig, rng: np.random.Generator):
        self.config = config
        self.rng = rng
        self.theta = np.zeros(config.n)
        self.t = 0

    def step(self, G: np.ndarray, H: np.ndarray | None = None) -> RoundRecord:
        """Play a block of B rounds and log it.

        ``G`` holds the rounds' proxy vectors as (B, n) rows, B >= 1, and
        ``H`` their hints (which the optimistic policy needs) as rows of the
        same shape.
        Returns the block's columns.
        """
        if H is None and self.needs_hint:
            raise ValueError("the optimistic policy needs a hint every round")
        G, n = np.asarray(G), self.config.n
        if G.ndim != 2 or G.shape[1] != n:
            raise ValueError(f"proxy vectors must be (B, {n}) rows, got shape {G.shape}")
        if not len(G):
            raise ValueError(f"a block needs at least one round, got shape {G.shape}")
        if H is not None and np.shape(H) != G.shape:
            raise ValueError(f"hints must be of shape {G.shape}, got {np.shape(H)}")
        return self._play(G, H)

    def _thetas(self, fed: np.ndarray) -> np.ndarray:
        """theta before each round of a block and, becoming ``theta``, after
        it: the (B + 1, n) rows of one running sum of the block's feeds."""
        theta = np.empty((len(fed) + 1, self.config.n))
        theta[0] = self.theta
        theta[1:] = fed
        running_sums(theta)
        self.theta = theta[-1]
        return theta

    def _draw(self, p: np.ndarray, u: np.ndarray | None = None) -> np.ndarray:
        """The (B, k) sets drawn at the proposals ``p`` (with the uniforms
        ``u`` if drawn already), or the full set in every row at k == n."""
        cfg = self.config
        if cfg.k == cfg.n:
            return np.broadcast_to(np.arange(cfg.n), p.shape)
        return draw(p, cfg.k, self.rng, u)

    def _record(self, G, p, selected, observed=None, cost=None) -> RoundRecord:
        """The block's columns.  Every round is observed and free unless
        ``observed`` and ``cost`` say otherwise."""
        t = range(self.t + 1, self.t + len(G) + 1)
        if observed is None:
            observed, cost = [True] * len(G), np.zeros(len(G))
        self.t += len(G)
        return RoundRecord(t, p, selected, G, observed, cost)


class ScorePolicy(_Policy):
    """Entropic follow-the-regularized-leader on cumulative core vectors.

    The feed does not depend on the drawn set, so a block is played in one
    pass: theta before every round is one cumulative sum over a (B + 1, n)
    array, then one row-wise entropic argmax gives every proposal and one
    row-wise Madow draw every set, each row bit for bit what one round
    alone gives.
    """

    def _play(self, G, H):
        cfg = self.config
        fed, observed, cost, u = self._feed_block(G)
        theta = self._thetas(fed)
        if cfg.k == cfg.n:
            p = np.ones(G.shape)
        else:
            p = entropic_ftrl_argmax(theta[:-1], cfg.eta, cfg.k)
        return self._record(G, p, self._draw(p, u), observed, cost)

    def _feed_block(self, G):
        """(fed, observed, cost, u) of a block of rounds: what each round
        feeds, observes and pays (None: all, nothing), and the uniforms of
        its Madow draws if the feeds had to draw first (else None)."""
        return G, None, None, None


class SemiBanditPolicy(ScorePolicy):
    """Score variant that only sees the selected coordinates of the core
    vector and feeds inverse-propensity estimates for them.  The feed
    depends on the drawn set, so a block is played one row at a time:
    propose from theta, draw, and feed the row.

    What is constant over a block is checked once: ``eta`` and ``k``, and
    the block's uniforms, drawn with one ``rng.random(B)`` (the stream and
    generator state of B single draws).  Each row then runs the bodies of
    the 1-d :func:`entropic_ftrl_argmax` and Madow sample, which keep
    their checks of the row's own data, on a proposal clipped already.
    At k == n every row feeds its whole vector, as the score policy plays.
    """

    def _play(self, G, H):
        cfg = self.config
        if cfg.k == cfg.n:
            return super()._play(G, H)
        eta, k = cfg.eta, cfg.k
        _check_entropic_args(eta, k, cfg.n)
        u = self.rng.random(len(G))
        _check_uniforms(u)
        theta = self.theta
        p = np.empty(G.shape)
        selected = np.empty((len(G), k), dtype=np.intp)
        for i, ui in enumerate(u.tolist()):
            p[i] = q = _entropic_vector(theta, eta, k)
            selected[i] = chosen = _madow_vector(q, k, ui, q)
            probs = q[chosen]
            if (probs <= 0.0).any():
                raise RuntimeError("selected an element with zero inclusion probability")
            # theta starts at +0.0 and a sum is -0.0 only if both terms are, so
            # adding 0.0 off the selected coordinates would change no bit
            theta[chosen] += G[i, chosen] / probs
        return self._record(G, p, selected)


def priced_epsilon(n: int, k: int, T: int, G: float, cost: float) -> float:
    """Observation rate balancing estimation variance against total price."""
    if k == n:
        return 1.0
    eps = (2.0 * G * G * k * math.log(n / k) / (T * cost * cost)) ** (1.0 / 3.0)
    if not (0.0 < eps <= 1.0):
        warnings.warn(
            f"priced observation rate {eps:.4g} outside (0, 1]; clamping to 1 "
            "(horizon too short for the tuned rate)"
        )
        eps = 1.0
    return eps


class PricedPolicy(ScorePolicy):
    """Score variant that pays a fixed cost to observe the reward.

    Each round it plays a sample from the current probabilities; with
    probability epsilon it pays the peek cost, observes the core vector, and
    feeds it scaled by 1/epsilon, otherwise it feeds zero (a pure
    regularizer step).  The coins do not depend on the drawn set, so a block
    is played in one pass as the score policy plays it.
    """

    def __init__(self, config: ScoreConfig, rng: np.random.Generator,
                 cost: float, epsilon: float):
        if not (0.0 < epsilon <= 1.0):
            raise ValueError("epsilon must lie in (0, 1]")
        self.epsilon = epsilon
        self.cost = float(cost)
        super().__init__(config, rng)

    @staticmethod
    def tuned_config(n: int, k: int, T: int, G: float, cost: float,
                     alpha: float = 1.0, M: float = 1.0,
                     epsilon: float | None = None) -> "ScoreConfig":
        """Config with the observation-rate-aware learning rate.

        The learning rate scales with the observation rate actually in use,
        so an explicit epsilon override retunes eta with it.
        """
        eps = priced_epsilon(n, k, T, G, cost) if epsilon is None else epsilon
        if k == n:
            eta = 0.0
        else:
            eta = math.sqrt(eps * k * math.log(n / k) / (2.0 * T * G * G))
        return ScoreConfig(n=n, k=k, T=T, alpha=alpha, M=M, G=G, eta=eta)

    def _feed_block(self, G):
        # a round draws its Madow uniform, then its coin; k == n draws no set
        full = self.config.k == self.config.n
        draws = self.rng.random(len(G) if full else 2 * len(G))
        seen = (draws if full else draws[1::2]) < self.epsilon
        fed = G / self.epsilon
        fed[~seen] = 0.0
        return fed, seen.tolist(), np.where(seen, self.cost, 0.0), None if full else draws[::2]


@dataclass
class OftrlState:
    """Mutable optimistic-learner state, kept separate for inspection."""

    weighted_center: np.ndarray
    sigma_sum: float = 0.0
    delta_sum: float = 0.0
    eps: float | None = None
    first_delta: float | None = None  # earliest positive hint error


class OftrlPolicy(_Policy):
    """Optimistic follow-the-regularized-leader with modular hints.

    The proposal maximizes the hinted linear score minus adaptive quadratic
    regularizers centered at past proposals.  ``mode='exact'`` solves the
    equivalent Euclidean projection; ``mode='afw'`` runs away-steps
    Frank-Wolfe to the tuned tolerance, warm-started from the previous
    round's active set.  While no hint error has been seen the objective is
    linear and the proposal is the plain top-k vertex.

    A block is played in one pass, as the score policy plays it, except
    that the proposals and the regularizer schedule go row by row.
    """

    needs_hint = True

    def __init__(self, config: ScoreConfig, rng: np.random.Generator,
                 mode: str = "exact", sigma_scale: float | None = None):
        if mode not in ("exact", "afw"):
            raise ValueError("mode must be 'exact' or 'afw'")
        super().__init__(config, rng)
        self.mode = mode
        self.sigma_scale = 1.0 / config.k if sigma_scale is None else float(sigma_scale)
        self.afw_budget = default_afw_budget(config.T)
        self.state = OftrlState(weighted_center=np.zeros(config.n))
        self._afw_active: tuple[np.ndarray, np.ndarray] | None = None

    def _quadratic(self, linear: np.ndarray) -> QuadraticObjective | None:
        """What the proposal minimizes, from its linear part (theta plus the
        hint); None while no hint error has been seen, as it is then linear."""
        st = self.state
        if st.sigma_sum <= 0.0:
            return None
        return QuadraticObjective(
            self.config.n, self.config.k,
            centers=[(st.sigma_sum, st.weighted_center / st.sigma_sum)],
            linear=linear,
        )

    def _play(self, G, H):
        cfg = self.config
        # each round's linear part, theta before the round plus its hint
        linear = self._thetas(G)[:-1] + H
        # one round's ((g - h) ** 2).sum() is its row's sum here, bit for bit
        deltas = ((G - H) ** 2).sum(axis=1).tolist()
        p = np.ones(G.shape)
        for i, delta in enumerate(deltas):
            t = self.t + i + 1
            if cfg.k < cfg.n:
                p[i] = self._propose(linear[i], t)
            self._update(delta, p[i], t)
        return self._record(G, p, self._draw(p))

    def _propose(self, linear: np.ndarray, t: int) -> np.ndarray:
        """Round t's proposal, from its linear part ``linear``."""
        st, k = self.state, self.config.k
        if st.sigma_sum <= 0.0:
            self._afw_active = None
            return lmo(-linear, k)
        if self.mode == "afw":
            res = afw_minimize(self._quadratic(linear), eps=st.eps,
                               max_iters=self.afw_budget, active=self._afw_active)
            self._afw_active = res.active
            return res.p
        # _quadratic(linear).exact_minimizer(), with its bits and no objective
        s = st.sigma_sum
        # at a subnormal weight the scores overflow; the projection's finite
        # check names that, so numpy's warning would only repeat it
        with np.errstate(over="ignore"):
            y = (linear + (0.0 + s * (st.weighted_center / s))) / s
        try:  # looked up on the module, where perfbench/spans.py wraps it
            return hypersimplex.euclidean_project(y, k)
        except ValueError as exc:
            # the point projected is the scores over the weight, which the
            # projection solves at any scale; a weight so small that they
            # overflow the float range leaves it non-finite entries
            raise ValueError(
                f"round {t}: the exact proposal failed at regularizer weight "
                f"{s:.3g} (policy sigma {self.sigma_scale:g} times "
                f"the hint errors, which hints noise_l2 sets): {exc}") from exc

    def _update(self, delta: float, p: np.ndarray, t: int) -> None:
        """The regularizer schedule after round t, whose proposal was p and
        whose squared hint error was ``delta``."""
        cfg = self.config
        st = self.state
        new_sum = st.delta_sum + delta
        if not new_sum < math.inf:
            raise ValueError(f"round {t}: the summed squared hint errors "
                             "overflow the float range (hints noise_l2 too large)")
        sigma_t = self.sigma_scale * (math.sqrt(new_sum) - math.sqrt(st.delta_sum))
        st.delta_sum = new_sum
        st.sigma_sum += sigma_t
        st.weighted_center += sigma_t * p
        if st.eps is None and delta > 0.0:
            st.first_delta = delta
            st.eps = self.sigma_scale * math.sqrt(delta) / (200.0 * cfg.G**2 * cfg.T**2)


# ---------------------------------------------------------------------------
# Regret accounting.

class _Regrets:
    """The regrets, read off the running sums ``cum_reward``, ``cum_full``,
    ``cum_dot`` and ``total_g`` with ``k`` and ``scale``.  A ledger's sums are
    numbers and one vector; those of a folded block hold one entry, and one
    row of ``total_g``, per round, and then so does each regret."""

    def benchmark(self):
        """k/(n*alpha) of the cumulative full-set reward."""
        return self.scale * self.cum_full

    def aug_regret(self):
        """The benchmark minus the rewards the policy collected."""
        return self.benchmark() - self.cum_reward

    def static_regret(self):
        """Best fixed point in hindsight against the true proxy vectors, minus
        what the proposals earned.  The linear oracle resolves the benchmark
        as a top-k sum of the summed vectors."""
        total = self.total_g
        return row_dots(total, lmo(-total, self.k)) - self.cum_dot


@dataclass
class LedgerRows(_Regrets):
    """A ledger's sums after each round of a folded block, one entry per
    round."""

    k: int
    scale: float
    cum_reward: np.ndarray
    cum_full: np.ndarray
    cum_cost: np.ndarray
    cum_dot: np.ndarray
    total_g: np.ndarray  # (B, n)


class RegretLedger(_Regrets):
    """Regret accounting of one run, folded in a block of rounds at a time.

    It keeps running sums only: realized and full-set reward, the price
    paid, the summed proxy vectors and their summed inner products with the
    proposals.  The regrets can be read after any block, and
    :meth:`fold` gives them after each round of the block.  The rewards
    come from the caller, who values the drawn sets; the policies never
    see them.
    """

    def __init__(self, n: int, k: int, alpha: float = 1.0):
        self.k = k
        self.scale = k / (n * alpha)
        self.cum_reward = self.cum_full = self.cum_cost = self.cum_dot = 0.0
        self.total_g = np.zeros(n)

    def fold(self, r: RoundRecord, reward: np.ndarray,
             full_reward: np.ndarray) -> LedgerRows:
        """Fold in a block of rounds from its columns and each round's
        reward and full-set reward, with the bits of adding the rounds one
        at a time: every sum after every round is a cumulative sum seeded
        with its value before the block, and each round's ``gvec @ p`` comes
        from :func:`row_dots`.  Returns the sums after each round."""
        G = r.gvec
        sums = np.empty((len(G) + 1, 4))
        sums[0] = self.cum_reward, self.cum_full, self.cum_cost, self.cum_dot
        sums[1:, 0] = reward
        sums[1:, 1] = full_reward
        sums[1:, 2] = r.cost
        sums[1:, 3] = row_dots(G, r.p)
        np.add.accumulate(sums, axis=0, out=sums)  # cumsum, with less overhead
        total = np.empty((len(G) + 1, G.shape[1]))
        total[0] = self.total_g
        total[1:] = G
        running_sums(total)
        self.cum_reward, self.cum_full, self.cum_cost, self.cum_dot = sums[-1].tolist()
        self.total_g = total[-1]
        return LedgerRows(self.k, self.scale, sums[1:, 0], sums[1:, 1], sums[1:, 2],
                          sums[1:, 3], total[1:])


def static_regret_bound(n: int, k: int, T: int, G: float) -> float:
    """Closed-form guarantee for the linear-reward learner."""
    if k == n:
        return 0.0
    return 2.0 * G * math.sqrt(2.0 * k * T * math.log(n / k))


def augmented_regret_bound(n: int, k: int, T: int, M: float) -> float:
    """Closed-form guarantee for admissible rewards."""
    if k == n:
        return 0.0
    return 4.0 * M * math.sqrt(k * T * math.log(n / k))


def optimistic_regret_bound(k: int, sq_distances: list[float]) -> float:
    """Hint-quality guarantee: 12 k sqrt(sum of squared sup-distances)."""
    return 12.0 * k * math.sqrt(float(np.sum(sq_distances)))


def priced_regret_bound(n: int, k: int, T: int, G: float) -> float:
    """Guarantee on regret plus observation spend under priced feedback."""
    if k == n:
        return 0.0
    return 4.0 * G ** (2.0 / 3.0) * (k * math.log(n / k)) ** (1.0 / 3.0) * T ** (2.0 / 3.0)
