"""Online subset-selection policies and their regret accounting.

Every policy plays the same round (``_Policy.step``): draw a Madow sample
from the proposed inclusion probabilities, reveal the reward, feed the learner
the reward's proxy vector, which the caller passes in with the reward, and
log a ``RoundRecord``.  The policies differ only in the proposal (entropic
argmax of the cumulative score, or an optimistic quadratic step against a
hint) and in the feed and update (the admissible vector itself, an
inverse-propensity estimate, or a Bernoulli-gated estimate with a per-peek
price).  ``RegretLedger`` keeps the regret accounting as running sums, folded
in a block of rounds at a time with the bits of one round at a time.

The full-information and priced feeds do not depend on the set a round
draws, so once a block of proxy vectors is known, ``ScorePolicy.plan`` and
``PricedPolicy.plan`` compute every round of the block in one pass over
(B, n) arrays: the score before each round is one cumulative sum, then one
row-wise entropic argmax and one row-wise Madow draw.  ``step`` still plays
one round per call and takes its planned row, bit for bit what the unplanned
round gives.  The semi-bandit feed depends on the drawn set and the
optimistic proposal on past proposals, so those policies plan nothing.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .blocks import PLAN_CELLS  # noqa: F401  re-exported: callers read policy.PLAN_CELLS
from .blocks import block_rounds, row_dots, running_sums
from .hypersimplex import (
    HypersimplexPoint,
    QuadraticObjective,
    afw_minimize,
    default_afw_budget,
    entropic_ftrl_argmax,
    lmo,
)
from .sampling import draw
from .setfn import SetFunction


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
    """One logged round: what was proposed, played, revealed, and fed."""

    t: int
    p: np.ndarray
    u: float | None
    selected: tuple[int, ...]
    reward: float
    full_reward: float
    gvec: np.ndarray
    fed: np.ndarray
    observed: bool
    cost: float
    p_ref: np.ndarray | None = None


@dataclass
class _Plan:
    """Rounds computed ahead for known proxy vectors, played in order."""

    gvecs: list[np.ndarray]
    theta: np.ndarray  # (B + 1, n): theta before each round and after the last
    p: np.ndarray  # (B, n)
    selected: list[tuple[int, ...]]
    u: list[float]
    fed: list[np.ndarray] | np.ndarray
    observed: list[bool]
    cost: list[float]
    rng_state: dict  # the generator before the block drew
    next: int = 0


class _Policy:
    """The round every policy plays, given its proposal.

    ``theta`` sums what the learner was fed.  Subclasses supply
    ``_propose`` (the marginals, and optionally an exact reference for them),
    ``_feed`` (what is fed, and whether and at what price the reward was
    observed) and ``_update`` (any state beyond ``theta``).
    """

    # the optimistic proposal is made against the round's hint
    needs_hint = False
    # rounds that plan() takes at once; 1 where nothing can be planned
    plan_rounds = 1
    # uniforms a planned round draws from the generator: its Madow draw
    _draws = 1

    def __init__(self, config: ScoreConfig, rng: np.random.Generator):
        self.config = config
        self.rng = rng
        self.theta = np.zeros(config.n)
        self.t = 0
        self._plan: _Plan | None = None

    def plan(self, gvecs: list[np.ndarray]) -> None:
        """Compute the next ``len(gvecs)`` rounds ahead, to be fed these
        proxy vectors in order.  This policy's rounds cannot be planned, so
        it only drops a pending plan."""
        self._drop_plan()

    def _drop_plan(self) -> None:
        """Forget the planned rounds not yet played, and put the generator
        where the first of them would have started drawing."""
        plan, self._plan = self._plan, None
        if plan is not None:
            self.rng.bit_generator.state = plan.rng_state
            self.rng.random(plan.next * self._draws)

    def _propose(self, hint: np.ndarray | None
                 ) -> tuple[HypersimplexPoint, np.ndarray | None]:
        raise NotImplementedError

    def _feed(self, gvec: np.ndarray, point: HypersimplexPoint,
              selected: tuple[int, ...]) -> tuple[np.ndarray, bool, float]:
        return gvec, True, 0.0

    def _update(self, fed: np.ndarray, point: HypersimplexPoint,
                hint: np.ndarray | None) -> None:
        pass

    def step(self, f: SetFunction, gvec: np.ndarray,
             hint: np.ndarray | None = None) -> RoundRecord:
        """Play one round: propose (against ``hint``, which the optimistic
        policy needs every round), sample, reveal f, feed ``gvec``, the proxy
        vector of f, and log the round.  A planned round is taken from the
        plan; a ``gvec`` other than the planned one drops the plan."""
        if hint is None and self.needs_hint:
            raise ValueError("the optimistic policy needs a hint every round")
        plan = self._plan
        if plan is not None and gvec is not plan.gvecs[plan.next]:
            self._drop_plan()
            plan = None
        cfg = self.config
        self.t += 1
        if plan is not None:
            i = plan.next
            plan.next += 1
            if plan.next == len(plan.gvecs):
                self._plan = None
            self.theta = plan.theta[i + 1]
            return RoundRecord(
                t=self.t, p=plan.p[i], u=plan.u[i], selected=plan.selected[i],
                reward=f.value(plan.selected[i]), full_reward=f.full_value(),
                gvec=gvec, fed=plan.fed[i], observed=plan.observed[i],
                cost=plan.cost[i],
            )
        if cfg.k == cfg.n:
            point, p_ref = HypersimplexPoint(cfg.n, cfg.k, np.ones(cfg.n)), None
            selected, u = tuple(range(cfg.n)), None
        else:
            point, p_ref = self._propose(hint)
            selected, u = draw(point, self.rng)
        fed, observed, cost = self._feed(gvec, point, selected)
        self.theta += fed
        self._update(fed, point, hint)
        return RoundRecord(
            t=self.t, p=point.p, u=u, selected=selected,
            reward=f.value(selected), full_reward=f.full_value(),
            gvec=gvec, fed=fed, observed=observed, cost=cost, p_ref=p_ref,
        )


class ScorePolicy(_Policy):
    """Entropic follow-the-regularized-leader on cumulative core vectors."""

    @property
    def plan_rounds(self) -> int:
        return block_rounds(self.config.n)

    def _propose(self, hint):
        return entropic_ftrl_argmax(self.theta, self.config.eta, self.config.k), None

    def plan(self, gvecs):
        """Compute the next ``len(gvecs)`` rounds (at most ``plan_rounds``)
        ahead, to be fed these proxy vectors in order: theta before each
        round, every proposal, every draw and every feed, row by row.
        ``step`` then plays them one at a time.  The generator draws in the
        order the rounds would; a plan that is dropped puts it back."""
        self._drop_plan()
        cfg = self.config
        if cfg.k == cfg.n or not gvecs:
            return
        if len(gvecs) > self.plan_rounds:
            raise ValueError(f"a plan takes at most {self.plan_rounds} rounds, "
                             f"got {len(gvecs)}")
        state = self.rng.bit_generator.state
        fed, observed, cost, u = self._feed_block(gvecs)
        theta = np.empty((len(gvecs) + 1, cfg.n))
        theta[0] = self.theta
        theta[1:] = fed
        running_sums(theta)
        point = entropic_ftrl_argmax(theta[:-1], cfg.eta, cfg.k)
        selected, u = draw(point, self.rng, u)
        self._plan = _Plan(gvecs, theta, point.p, selected, u.tolist(), fed,
                           observed, cost, state)

    def _feed_block(self, gvecs):
        """(fed, observed, cost, u) of a block of rounds: what each round
        feeds, observes and pays, and the uniforms of its Madow draws if
        the feeds had to draw first (else None)."""
        B = len(gvecs)
        return gvecs, [True] * B, [0.0] * B, None


class SemiBanditPolicy(ScorePolicy):
    """Score variant that only sees the selected coordinates of the core
    vector and feeds inverse-propensity estimates for the rest.  The feed
    depends on the drawn set, so no round can be planned."""

    plan_rounds = 1
    plan = _Policy.plan

    def _feed(self, gvec, point, selected):
        fed = np.zeros(self.config.n)
        idx = list(selected)
        probs = point.p[idx]
        if (probs <= 0.0).any():
            raise RuntimeError("selected an element with zero inclusion probability")
        fed[idx] = gvec[idx] / probs
        return fed, True, 0.0


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
    regularizer step).  A zero feed leaves ``theta`` where it was, so the
    proposal is computed again only after an observed round.
    """

    _draws = 2  # its Madow draw, then its observation coin

    def __init__(self, config: ScoreConfig, rng: np.random.Generator,
                 cost: float, epsilon: float):
        if not (0.0 < epsilon <= 1.0):
            raise ValueError("epsilon must lie in (0, 1]")
        self.epsilon = epsilon
        self.cost = float(cost)
        self._point: HypersimplexPoint | None = None  # the proposal for theta
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

    def _propose(self, hint):
        if self._point is None:
            self._point = super()._propose(hint)[0]
        return self._point, None

    def _feed(self, gvec, point, selected):
        if self.rng.random() < self.epsilon:
            self._point = None  # theta moves
            return gvec / self.epsilon, True, self.cost
        return np.zeros(self.config.n), False, 0.0

    def plan(self, gvecs):
        self._point = None  # theta moves with the plan
        super().plan(gvecs)

    def _feed_block(self, gvecs):
        draws = self.rng.random(self._draws * len(gvecs))
        seen = draws[1::2] < self.epsilon
        fed = np.array(gvecs) / self.epsilon
        fed[~seen] = 0.0
        observed = seen.tolist()
        cost = [self.cost if o else 0.0 for o in observed]
        return fed, observed, cost, draws[0::2]


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
    """

    needs_hint = True

    def __init__(self, config: ScoreConfig, rng: np.random.Generator,
                 mode: str = "exact", sigma_scale: float | None = None,
                 track_exact_reference: bool = False):
        if mode not in ("exact", "afw"):
            raise ValueError("mode must be 'exact' or 'afw'")
        super().__init__(config, rng)
        self.mode = mode
        self.sigma_scale = 1.0 / config.k if sigma_scale is None else float(sigma_scale)
        self.afw_budget = default_afw_budget(config.T)
        self.track_exact_reference = track_exact_reference
        self.state = OftrlState(weighted_center=np.zeros(config.n))
        self._afw_active: dict | None = None

    def _propose(self, hvec: np.ndarray | None
                 ) -> tuple[HypersimplexPoint, np.ndarray | None]:
        cfg = self.config
        st = self.state
        drift = self.theta + hvec
        if st.sigma_sum <= 0.0:
            v = lmo(-drift, cfg.k)
            self._afw_active = None
            return HypersimplexPoint(cfg.n, cfg.k, v), None
        obj = QuadraticObjective(
            cfg.n, cfg.k,
            centers=[(st.sigma_sum, st.weighted_center / st.sigma_sum)],
            linear=drift,
        )
        if self.mode == "exact":
            return obj.exact_minimizer(), None
        res = afw_minimize(obj, eps=st.eps, max_iters=self.afw_budget,
                           active=self._afw_active)
        self._afw_active = res.active
        ref = obj.exact_minimizer().p if self.track_exact_reference else None
        return res.point, ref

    def _update(self, fvec, point, hvec):
        cfg = self.config
        st = self.state
        delta = float(((fvec - hvec) ** 2).sum())
        new_sum = st.delta_sum + delta
        sigma_t = self.sigma_scale * (math.sqrt(new_sum) - math.sqrt(st.delta_sum))
        st.delta_sum = new_sum
        st.sigma_sum += sigma_t
        st.weighted_center += sigma_t * point.p
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
    round, with each round's own reward and full-set reward."""

    k: int
    scale: float
    reward: np.ndarray
    full_reward: np.ndarray
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
    :meth:`fold` gives them after each round of the block.
    """

    def __init__(self, n: int, k: int, alpha: float = 1.0):
        self.k = k
        self.scale = k / (n * alpha)
        self.rounds = 0
        self.cum_reward = 0.0
        self.cum_full = 0.0
        self.cum_cost = 0.0
        self.cum_dot = 0.0
        self.total_g = np.zeros(n)

    def add_rewards(self, r: RoundRecord) -> None:
        """Fold in the reward columns only, which the augmented regret reads."""
        self.rounds += 1
        self.cum_reward += r.reward
        self.cum_full += r.full_reward

    def fold(self, records: list[RoundRecord]) -> LedgerRows:
        """Fold in a block of rounds, in order, with the bits of adding them
        one at a time: every sum after every round is a cumulative sum
        seeded with its value before the block, and each round's
        ``gvec @ p`` comes from :func:`row_dots`.  Returns the sums after
        each round."""
        B = len(records)
        sums = np.empty((4, B + 1))
        sums[:, 0] = self.cum_reward, self.cum_full, self.cum_cost, self.cum_dot
        sums[0, 1:] = [r.reward for r in records]
        sums[1, 1:] = [r.full_reward for r in records]
        sums[2, 1:] = [r.cost for r in records]
        total = np.empty((B + 1, self.total_g.size))
        total[0] = self.total_g
        total[1:] = [r.gvec for r in records]
        sums[3, 1:] = row_dots(total[1:], np.array([r.p for r in records]))
        cum = sums.cumsum(axis=1)
        running_sums(total)
        self.rounds += B
        self.cum_reward, self.cum_full, self.cum_cost, self.cum_dot = cum[:, -1].tolist()
        self.total_g = total[-1]
        return LedgerRows(self.k, self.scale, sums[0, 1:], sums[1, 1:], *cum[:, 1:],
                          total[1:])


def augmented_regret(records: list[RoundRecord], alpha: float, k: int, n: int) -> float:
    """:meth:`RegretLedger.aug_regret` over logged rounds."""
    ledger = RegretLedger(n, k, alpha)
    for r in records:
        ledger.add_rewards(r)
    return ledger.aug_regret()


def static_linear_regret(records: list[RoundRecord]) -> float:
    """:meth:`RegretLedger.static_regret` over logged rounds."""
    if not records:
        return 0.0
    ledger = RegretLedger(records[0].gvec.size, len(records[0].selected))
    ledger.fold(records)
    return float(ledger.static_regret())


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
