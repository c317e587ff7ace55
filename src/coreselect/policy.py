"""Online subset-selection policies and their regret accounting.

Every policy plays a block of B rounds on each lane of a group of
independent runs with one ``play_lanes``, and ``step`` is a group of one:
draw a Madow sample from each round's proposed inclusion probabilities,
feed the learner the round's proxy vector, which the caller passes in as a
row, and return the block's columns as one ``RoundRecord``: the proposals,
the (B, k) drawn sets, what was observed and paid.  A policy sees only
these vectors, never the rewards: the caller values the drawn sets.  The
policies differ only in the proposal (entropic argmax of the cumulative
score, or an optimistic quadratic step against a hint) and in the feed (the
admissible vector itself, an inverse-propensity estimate, or a
Bernoulli-gated estimate with a per-peek price).  At k == n there is
nothing to propose or draw, and ``play_lanes`` plays the full set.

The policies play a block in one pass over (B, n) arrays, except the
semi-bandit one, whose feed depends on the drawn set and which plays it one
round at a time; the optimistic proposals, each centered at those before
it, are the one step made row by row.  The semi-bandit's lanes play each
round together, and the score and priced lanes stack their blocks, so that
one argmax and one Madow draw serve them all; the optimistic lanes play one
after another.  ``RegretLedger`` keeps the regret accounting as running
sums, folded in a block at a time.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .adversary import _check_real
from .blocks import row_dots, running_sums
from .hypersimplex import (
    QuadraticObjective,
    _check_entropic_args,
    _entropic_block,
    afw_minimize,
    default_afw_budget,
    entropic_ftrl_argmax,
    lmo,
)
from .sampling import _check_uniforms, _madow_rows, draw


def norm_bound(alpha: float, M: float) -> float:
    """Default l2 bound on admissible vectors: every alpha-core of a reward
    bounded by M sits inside the ball of radius alpha * M * sqrt(2)."""
    return alpha * M * math.sqrt(2.0)


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
                _check_tuning(self.G, self.T)
                self.eta = math.sqrt(
                    self.k * math.log(self.n / self.k) / (2.0 * self.G**2 * self.T)
                )
        if not math.isfinite(self.eta):
            raise ValueError(f"eta must be finite, got {self.eta!r}")
        if self.k < self.n and self.eta <= 0.0:
            raise ValueError("eta must be positive when k < n")


def _check_tuning(G: float, T: int) -> None:
    """The tuned learning rates divide by 2 G^2 T: an error names G and T
    where that or its reciprocal is zero or past the float range."""
    denominator = 2.0 * G * G * T
    if denominator in (0.0, math.inf) or 1.0 / denominator == math.inf:
        raise ValueError(f"G = {G!r} and T = {T} make 2 * G**2 * T = {denominator!r}, "
                         "so no learning rate can be tuned from them; set eta")


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
    """A policy: ``play_lanes`` plays one block of rounds on each lane of a
    group, and ``step`` is a group of one.  ``play_lanes`` checks the
    blocks and decides k == n once: there the capped simplex is the single
    point of all ones, so each lane feeds its rounds and plays the full set,
    and nothing is proposed or drawn.  Otherwise it hands the lanes to the
    class's ``_play``.  ``theta`` sums what the learner was fed."""

    # the optimistic proposal is made against the round's hint
    needs_hint = False

    def __init__(self, config: ScoreConfig, rng: np.random.Generator):
        self.config = config
        self.rng = rng
        self.theta = np.zeros(config.n)
        self.t = 0

    def step(self, G: np.ndarray, H: np.ndarray | None = None) -> RoundRecord:
        """Play a block of B rounds and log it: a group of one lane.

        ``G`` holds the rounds' proxy vectors as (B, n) rows, B >= 1, and
        ``H`` their hints (which the optimistic policy needs) as rows of the
        same shape.
        Returns the block's columns.
        """
        return self.play_lanes([self], [G], [H])[0]

    @classmethod
    def play_lanes(cls, lanes: list["_Policy"], G: list[np.ndarray],
                   H: list[np.ndarray | None] | None = None) -> list[RoundRecord]:
        """Play one block on each lane of a group: policies of this class on
        one config, each with its own generator and state.  Lane r plays
        the rows ``G[r]`` with the hints ``H[r]`` (which only the optimistic
        policy reads), and gets the record its own ``step`` gives.  The
        blocks must share one shape."""
        n = lanes[0].config.n
        G = [np.asarray(g) for g in G]
        H = [None] * len(lanes) if H is None else H
        for g, h in zip(G, H):
            if h is None and cls.needs_hint:
                raise ValueError("the optimistic policy needs a hint every round")
            if g.ndim != 2 or g.shape[1] != n:
                raise ValueError(f"proxy vectors must be (B, {n}) rows, got shape {g.shape}")
            if not len(g):
                raise ValueError(f"a block needs at least one round, got shape {g.shape}")
            if h is not None and np.shape(h) != g.shape:
                raise ValueError(f"hints must be of shape {g.shape}, got {np.shape(h)}")
        if len({g.shape for g in G}) > 1:
            raise ValueError(f"the lanes' blocks differ in shape: {[g.shape for g in G]}")
        if lanes[0].config.k < n:
            return cls._play(lanes, G, H)
        records = []
        for lane, g in zip(lanes, G):
            fed, observed, cost, _ = lane._feed_block(g)
            lane._thetas(fed)
            records.append(lane._record(g, np.ones(g.shape),
                                        np.broadcast_to(np.arange(n), g.shape), observed, cost))
        return records

    def _feed_block(self, G):
        """(fed, observed, cost, u) of a block of rounds: what each round
        feeds, observes and pays (None: all, nothing), and the uniforms of
        its Madow draws if the feeds had to draw first (else None)."""
        return G, None, None, None

    def _thetas(self, fed: np.ndarray) -> np.ndarray:
        """theta before each round of a block and, becoming ``theta``, after
        it: the (B + 1, n) rows of one running sum of the block's feeds."""
        theta = np.empty((len(fed) + 1, self.config.n))
        theta[0] = self.theta
        theta[1:] = fed
        running_sums(theta)
        self.theta = theta[-1]
        return theta

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
    alone gives.  The lanes of a group each feed and sum their own thetas,
    then one argmax takes their theta rows stacked as (R * B, n), and one
    Madow draw the stacked proposals with each lane's own uniforms.
    """

    @classmethod
    def _play(cls, lanes, G, H):
        cfg = lanes[0].config
        R, (B, n) = len(lanes), G[0].shape
        fed, observed, cost, drawn = zip(*[lane._feed_block(g) for lane, g in zip(lanes, G)])
        theta = [lane._thetas(f)[:-1] for lane, f in zip(lanes, fed)]
        p = entropic_ftrl_argmax(theta[0] if R == 1 else np.concatenate(theta), cfg.eta, cfg.k)
        # the uniforms a lane's feed drew, or one rng.random(B) from its own
        # generator after its feed, as the lane alone draws them
        u = [lane.rng.random(B) if ui is None else ui for lane, ui in zip(lanes, drawn)]
        selected = draw(p, cfg.k, lanes[0].rng, u[0] if R == 1 else np.concatenate(u))
        return [lane._record(*rows) for lane, *rows in zip(
            lanes, G, p.reshape(R, B, n), selected.reshape(R, B, -1), observed, cost)]


class SemiBanditPolicy(ScorePolicy):
    """Score variant that only sees the selected coordinates of the core
    vector and feeds inverse-propensity estimates for them.  The feed
    depends on the drawn set, so a block is played one round at a time:
    propose from theta, draw, and feed the round.

    The lanes of a group play in lockstep: their thetas are the rows of one
    (R, n) array, and each round is one row-wise entropic argmax, one
    row-wise Madow draw and one inverse-propensity feed into the flattened
    thetas, each lane's row bit for bit what the lane alone gives.

    What is constant over a block is checked once: ``eta`` and ``k``, and
    the block's uniforms, drawn for each lane from its own generator with
    one ``rng.random(B)`` (the stream and generator state of B single
    draws).  The kernels' bodies then keep their checks of the rounds' own
    data.  At k == n, ``play_lanes`` feeds every round its whole vector.
    """

    @classmethod
    def _play(cls, lanes, G, H):
        cfg = lanes[0].config
        eta, k, n = cfg.eta, cfg.k, cfg.n
        _check_entropic_args(eta, k, n)
        R, B = len(lanes), len(G[0])
        u = np.array([lane.rng.random(B) for lane in lanes])
        _check_uniforms(u)
        theta = np.array([lane.theta for lane in lanes])
        fed = theta.reshape(-1)
        g = np.concatenate(G, axis=1)  # each round's rows, flattened
        p, selected = [], []
        try:
            # once per block: see _entropic_block
            with np.errstate(over="ignore", invalid="ignore"):
                for i, ui in enumerate(u.T):
                    q = _entropic_block(theta, eta, k)
                    at = _madow_rows(q, k, ui)  # into the flattened rows
                    p.append(q)
                    selected.append(at)
                    probs = q.take(at)
                    if np.minimum.reduce(probs, None) <= 0.0:
                        raise RuntimeError(
                            "selected an element with zero inclusion probability")
                    # theta starts at +0.0 and a sum is -0.0 only if both
                    # terms are, so adding 0.0 off the selected coordinates
                    # would change no bit
                    fed[at] = fed.take(at) + g[i].take(at) / probs
        finally:  # an error leaves each lane its theta fed so far
            for lane, row in zip(lanes, theta):
                lane.theta = row
        # each lane's rows, one after another
        p = np.concatenate(p, axis=1).reshape(R, B, n)
        selected = np.concatenate(selected, axis=1).reshape(R, B, k)
        selected -= np.arange(0, R * n, n)[:, None, None]  # less each lane's offset
        return [lane._record(gr, pr, sr) for lane, gr, pr, sr in zip(lanes, G, p, selected)]


def priced_epsilon(n: int, k: int, T: int, G: float, cost: float) -> float:
    """Observation rate balancing estimation variance against total price.
    It divides by 2 G^2 T and by cost**2, so an error names G and T, or a
    cost that is not finite and positive with a positive square."""
    if k == n:
        return 1.0
    _check_tuning(G, T)
    _check_real("cost", cost, "positive with a positive square",
                lambda x: x > 0.0 and x * x > 0.0)
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
        _check_tuning(G, T)
        eps = priced_epsilon(n, k, T, G, cost) if epsilon is None else epsilon
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


class OftrlPolicy(_Policy):
    """Optimistic follow-the-regularized-leader with modular hints.

    The proposal maximizes the hinted linear score minus adaptive quadratic
    regularizers centered at past proposals.  ``mode='exact'`` solves the
    equivalent Euclidean projection; ``mode='afw'`` runs away-steps
    Frank-Wolfe to the tuned tolerance, warm-started from the previous
    round's active set.  While no hint error has been seen the objective is
    linear and the proposal is the plain top-k vertex.

    The regularizers are kept as their summed weights ``sigma_sum``, the
    weights times their centers summed in ``weighted_center``, and the
    summed squared hint errors ``delta_sum``; a proposal minimizes one
    quadratic, of weight ``sigma_sum`` and vector theta + hint +
    ``weighted_center``.  AFW's tolerance ``eps`` is set by the first
    positive hint error.  A block is played in one pass, as the score
    policy plays it, except that the proposals and the regularizer
    schedule go row by row.  The lanes of a group play one after another.
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
        self.sigma_sum = self.delta_sum = 0.0
        self.weighted_center = np.zeros(config.n)
        self.eps: float | None = None
        self._afw_active: tuple[np.ndarray, np.ndarray] | None = None

    def _quadratic(self, linear: np.ndarray) -> QuadraticObjective | None:
        """What the proposal minimizes, from its linear part (theta plus the
        hint); None while no hint error has been seen, as it is then linear."""
        if self.sigma_sum <= 0.0:
            return None
        return QuadraticObjective(self.config.k, self.sigma_sum, linear + self.weighted_center)

    @classmethod
    def _play(cls, lanes, G, H):
        cfg, records = lanes[0].config, []
        # scores over a subnormal weight overflow, as may hint errors near the
        # float limit: the errors below name both, which numpy's warnings repeat
        with np.errstate(over="ignore"):
            for lane, g, h in zip(lanes, G, H):
                # each round's linear part, theta before the round plus its hint
                linear = lane._thetas(g)[:-1] + h
                p = np.empty(g.shape)
                # one round's ((g - h) ** 2).sum() is its row's sum here, bit for bit
                deltas = ((g - h) ** 2).sum(axis=1).tolist()
                for i, delta in enumerate(deltas):
                    try:
                        if (obj := lane._quadratic(linear[i])) is None:
                            lane._afw_active = None
                            p[i] = lmo(-linear[i], cfg.k)
                        elif lane.mode == "afw":
                            res = afw_minimize(obj, eps=lane.eps, max_iters=lane.afw_budget,
                                               active=lane._afw_active)
                            lane._afw_active = res.active
                            p[i] = res.p
                        else:
                            p[i] = obj.exact_minimizer()
                    except ValueError as exc:
                        # scores over a subnormal weight overflow in the exact
                        # route, and a weight past the float range is no weight
                        raise ValueError(
                            f"round {lane.t + i + 1}: the {lane.mode} proposal failed at "
                            f"regularizer weight {lane.sigma_sum:.3g} (policy sigma "
                            f"{lane.sigma_scale:g} times the hint errors, which "
                            f"hints noise_l2 sets): {exc}") from exc
                    # the regularizer schedule after the round
                    new_sum = lane.delta_sum + delta
                    if not new_sum < math.inf:
                        raise ValueError(f"round {lane.t + i + 1}: the summed squared hint "
                                         "errors overflow the float range (hints noise_l2 "
                                         "too large)")
                    sigma_t = lane.sigma_scale * (math.sqrt(new_sum) - math.sqrt(lane.delta_sum))
                    lane.delta_sum = new_sum
                    lane.sigma_sum += sigma_t
                    if not lane.sigma_sum < math.inf:
                        raise ValueError(f"round {lane.t + i + 1}: the regularizer weight "
                                         "overflows the float range (policy sigma "
                                         f"{lane.sigma_scale:g} times the hint errors, which "
                                         "hints noise_l2 sets)")
                    lane.weighted_center += sigma_t * p[i]
                    if lane.eps is None and delta > 0.0:
                        lane.eps = (lane.sigma_scale * math.sqrt(delta)
                                   / (200.0 * cfg.G**2 * cfg.T**2))
                        if lane.mode == "afw" and not 0.0 < lane.eps < math.inf:
                            raise ValueError(
                                f"round {lane.t + i + 1}: AFW's tolerance (policy sigma "
                                f"{lane.sigma_scale:g} times the hint error over 200 * G**2 "
                                f"* T**2, G = {cfg.G:g}, T = {cfg.T}) leaves the float "
                                f"range: got {lane.eps!r}")
                records.append(lane._record(g, p, draw(p, cfg.k, lane.rng)))
        return records


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
        with np.errstate(over="ignore"):  # a sum past the float range is named below
            np.add.accumulate(sums, axis=0, out=sums)  # cumsum, with less overhead
        last = sums[-1].tolist()
        if any(map(math.isinf, last)):
            i, j = np.argwhere(np.isinf(sums[1:]))[0].tolist()
            what = ("reward", "full-set reward", "price paid (policy cost too large)",
                    "inner product of proxy vectors and proposals")[j]
            raise ValueError(f"round {r.t[i]}: the summed {what} overflows the float range")
        total = np.empty((len(G) + 1, G.shape[1]))
        total[0] = self.total_g
        total[1:] = G
        running_sums(total)
        self.cum_reward, self.cum_full, self.cum_cost, self.cum_dot = last
        self.total_g = total[-1]
        return LedgerRows(self.k, self.scale, sums[1:, 0], sums[1:, 1], sums[1:, 2],
                          sums[1:, 3], total[1:])


def static_regret_bound(n: int, k: int, T: int, G: float) -> float:
    """Closed-form guarantee for the linear-reward learner."""
    return 2.0 * G * math.sqrt(2.0 * k * T * math.log(n / k))


def augmented_regret_bound(n: int, k: int, T: int, M: float) -> float:
    """Closed-form guarantee for admissible rewards."""
    return 4.0 * M * math.sqrt(k * T * math.log(n / k))


def optimistic_regret_bound(k: int, sq_sum: float) -> float:
    """Hint-quality guarantee: 12 k sqrt(sq_sum), where ``sq_sum`` is the sum
    of the hints' squared sup-distances from the rewards over the rounds."""
    return 12.0 * k * math.sqrt(sq_sum)


def priced_regret_bound(n: int, k: int, T: int, G: float) -> float:
    """Guarantee on regret plus observation spend under priced feedback."""
    return 4.0 * G ** (2.0 / 3.0) * (k * math.log(n / k)) ** (1.0 / 3.0) * T ** (2.0 / 3.0)
