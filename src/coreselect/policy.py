"""Online subset-selection policies and their regret accounting.

Every policy plays the same round (``_Policy._play``): draw a Madow sample
from the proposed inclusion probabilities, reveal the reward, ask the core
strategy for its proxy vector, feed the learner, and log a ``RoundRecord``.
The policies differ only in the proposal (entropic argmax of the cumulative
score, or an optimistic quadratic step against a hint) and in the feed and
update (the admissible vector itself, an inverse-propensity estimate, or a
Bernoulli-gated estimate with a per-peek price).  ``RegretLedger`` keeps the
regret accounting as running sums, one round at a time.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .corevec import AdmissibleVector
from .hypersimplex import (
    HypersimplexPoint,
    QuadraticObjective,
    afw_minimize,
    default_afw_budget,
    entropic_ftrl_argmax,
    lmo,
)
from .sampling import draw, expected_set_value
from .setfn import ModularFunction, SetFunction


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
    expected_reward: float
    gvec: np.ndarray
    fed: np.ndarray
    observed: bool
    cost: float
    p_ref: np.ndarray | None = None


def _as_vector(g: AdmissibleVector | np.ndarray) -> np.ndarray:
    if isinstance(g, AdmissibleVector):
        return g.g
    return np.asarray(g, dtype=float)


def _core_vector(core_strategy, f: SetFunction, t: int) -> np.ndarray:
    """The strategy's proxy vector for f; a failure names round t."""
    try:
        return _as_vector(core_strategy(f))
    except Exception as exc:
        raise RuntimeError(f"core strategy failed on round {t}: {exc}") from exc


def _expected_reward(f: SetFunction, point: HypersimplexPoint) -> float:
    """Exact conditional expected reward E[f(S) | p] under the sampler."""
    if isinstance(f, ModularFunction):
        return float(f.w @ point.p)
    return expected_set_value(point, f.value)


class _Policy:
    """The round every policy plays, given its proposal.

    ``theta`` sums what the learner was fed.  Subclasses supply
    ``_propose`` (the marginals, and optionally an exact reference for them),
    ``_feed`` (what is fed, and whether and at what price the reward was
    observed) and ``_update`` (any state beyond ``theta``).
    """

    def __init__(self, config: ScoreConfig, rng: np.random.Generator,
                 track_expected: bool = True):
        self.config = config
        self.rng = rng
        self.track_expected = track_expected
        self.theta = np.zeros(config.n)
        self.t = 0

    def _propose(self, hint: np.ndarray | None
                 ) -> tuple[HypersimplexPoint, np.ndarray | None]:
        raise NotImplementedError

    def _feed(self, gvec: np.ndarray, point: HypersimplexPoint,
              selected: tuple[int, ...]) -> tuple[np.ndarray, bool, float]:
        return gvec, True, 0.0

    def _update(self, fed: np.ndarray, point: HypersimplexPoint,
                hint: np.ndarray | None) -> None:
        pass

    def _play(self, f: SetFunction, core_strategy,
              hint: np.ndarray | None = None) -> RoundRecord:
        """Propose, sample, reveal f, feed its core vector, log the round."""
        cfg = self.config
        self.t += 1
        if cfg.k == cfg.n:
            point, p_ref = HypersimplexPoint(cfg.n, cfg.k, np.ones(cfg.n)), None
            selected, u = tuple(range(cfg.n)), None
        else:
            point, p_ref = self._propose(hint)
            selected, u = draw(point, self.rng)
        gvec = _core_vector(core_strategy, f, self.t)
        fed, observed, cost = self._feed(gvec, point, selected)
        self.theta += fed
        self._update(fed, point, hint)
        reward = f.value(selected)
        expected = _expected_reward(f, point) if self.track_expected else float("nan")
        return RoundRecord(
            t=self.t, p=point.p, u=u, selected=selected,
            reward=reward, full_reward=f.full_value(), expected_reward=expected,
            gvec=gvec, fed=fed, observed=observed, cost=cost, p_ref=p_ref,
        )


class ScorePolicy(_Policy):
    """Entropic follow-the-regularized-leader on cumulative core vectors."""

    def _propose(self, hint):
        return entropic_ftrl_argmax(self.theta, self.config.eta, self.config.k), None

    def step(self, f: SetFunction, core_strategy) -> RoundRecord:
        """Run one full round against the revealed reward f."""
        return self._play(f, core_strategy)


class SemiBanditPolicy(ScorePolicy):
    """Score variant that only sees the selected coordinates of the core
    vector and feeds inverse-propensity estimates for the rest."""

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
    regularizer step).
    """

    def __init__(self, config: ScoreConfig, rng: np.random.Generator,
                 cost: float = 1.0, epsilon: float | None = None,
                 track_expected: bool = True):
        if epsilon is None:
            epsilon = priced_epsilon(config.n, config.k, config.T, config.G, cost)
        if not (0.0 < epsilon <= 1.0):
            raise ValueError("epsilon must lie in (0, 1]")
        self.epsilon = epsilon
        self.cost = float(cost)
        super().__init__(config, rng, track_expected=track_expected)

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

    def _feed(self, gvec, point, selected):
        if self.rng.random() < self.epsilon:
            return gvec / self.epsilon, True, self.cost
        return np.zeros(self.config.n), False, 0.0


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

    def __init__(self, config: ScoreConfig, rng: np.random.Generator,
                 mode: str = "exact", sigma_scale: float | None = None,
                 track_expected: bool = True,
                 track_exact_reference: bool = False):
        if mode not in ("exact", "afw"):
            raise ValueError("mode must be 'exact' or 'afw'")
        super().__init__(config, rng, track_expected)
        self.mode = mode
        self.sigma_scale = 1.0 / config.k if sigma_scale is None else float(sigma_scale)
        self.afw_budget = default_afw_budget(config.T)
        self.track_exact_reference = track_exact_reference
        self.state = OftrlState(weighted_center=np.zeros(config.n))
        self._afw_active: dict | None = None

    def _propose(self, hvec: np.ndarray) -> tuple[HypersimplexPoint, np.ndarray | None]:
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

    def step(self, f: SetFunction, hvec: np.ndarray, fvec_strategy) -> RoundRecord:
        """Run one full round: propose against the hint, play against f."""
        return self._play(f, fvec_strategy, hint=np.asarray(hvec, dtype=float))


# ---------------------------------------------------------------------------
# Regret accounting.

class RegretLedger:
    """Regret accounting of one run, folded in one round at a time.

    It keeps running sums only: realized, expected and full-set reward, the
    price paid, the summed proxy vectors and their summed inner products
    with the proposals.  The regrets can be read after any round.
    """

    def __init__(self, n: int, k: int, alpha: float = 1.0):
        self.k = k
        self.scale = k / (n * alpha)
        self.rounds = 0
        self.cum_reward = 0.0
        self.cum_full = 0.0
        self.cum_expected = 0.0
        self.cum_cost = 0.0
        self.cum_dot = 0.0
        self.total_g = np.zeros(n)

    def add_rewards(self, r: RoundRecord) -> None:
        """Fold in the reward columns only, which the augmented regret reads."""
        self.rounds += 1
        self.cum_reward += r.reward
        self.cum_full += r.full_reward
        self.cum_expected += r.expected_reward

    def add(self, r: RoundRecord) -> None:
        self.add_rewards(r)
        self.cum_cost += r.cost
        self.total_g += r.gvec
        self.cum_dot += float(r.gvec @ r.p)

    def benchmark(self) -> float:
        """k/(n*alpha) of the cumulative full-set reward."""
        return self.scale * self.cum_full

    def aug_regret(self, expected: bool = False) -> float:
        """The benchmark minus what the policy collected (realized rewards, or
        exact conditional expectations when ``expected`` is set)."""
        return self.benchmark() - (self.cum_expected if expected else self.cum_reward)

    def static_regret(self) -> float:
        """Best fixed point in hindsight against the true proxy vectors, minus
        what the proposals earned.  The linear oracle resolves the benchmark
        as a top-k sum of the summed vectors."""
        return float(self.total_g @ lmo(-self.total_g, self.k)) - self.cum_dot


def augmented_regret(records: list[RoundRecord], alpha: float, k: int, n: int,
                     expected: bool = False) -> float:
    """:meth:`RegretLedger.aug_regret` over logged rounds."""
    ledger = RegretLedger(n, k, alpha)
    for r in records:
        ledger.add_rewards(r)
    return ledger.aug_regret(expected)


def static_linear_regret(records: list[RoundRecord]) -> float:
    """:meth:`RegretLedger.static_regret` over logged rounds."""
    if not records:
        return 0.0
    ledger = RegretLedger(records[0].gvec.size, len(records[0].selected))
    for r in records:
        ledger.add(r)
    return ledger.static_regret()


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
