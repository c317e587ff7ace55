"""The proxy vectors the online policies learn from, one construction per
reward family.

A vector g is alpha-admissible for a normalized reward f when its entries sum
to f(full set) and every subset S satisfies sum_{i in S} g_i <= alpha * f(S).
Feeding such vectors to a linear-reward learner is what lets the policies
handle nonlinear rewards.  ``core_vectors`` picks the construction (a
modular reward's coefficients, matching duals, greedy marginals); their
membership is checked by the exhaustive oracles of ``coreselect.oracles``.
"""

from __future__ import annotations

import numpy as np

from .setfn import (
    MatchingRewardFunction,
    ModularFunction,
    SetFunction,
    linear_sum_assignment,
)


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


def core_vectors(f: SetFunction, b: int, rng: np.random.Generator) -> np.ndarray:
    """The proxy vectors of a run of b rounds whose reward is f, as (b, n)
    rows, one core vector per round, chosen by the reward's family:

    - a modular reward: its coefficient rows ``f.w`` for a block, or its
      one vector repeated b times, the exact 1-core choice.  Nothing is
      drawn.
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
        return f.w if f.rounds is not None else np.tile(f.w, (b, 1))
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
