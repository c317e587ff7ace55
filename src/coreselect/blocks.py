"""Blocks of rounds: their size, and the row-wise sums and dots that work on
them with the bits of one round at a time.

A block is one ``(f, b)`` run of an adversary, b rounds of one reward f,
which the harness reveals and accounts, and the policies play, at once; it
has at most ``block_rounds(n)`` rounds, so its (B, n) arrays hold at most
``PLAN_CELLS`` entries.  The lane groups of every policy but the
semi-bandit hold the blocks of as many replicas as keep their (R * B, n)
rows within ``PLAN_CELLS`` entries too (one replica at least), a lane group
joins the modular or matching rewards of as many lanes as keep the joined
reward's arrays within ``PLAN_CELLS`` entries (one lane's own at least),
and a coverage reward tabulates its hints over all 2^n subsets as rows of
at most ``PLAN_CELLS`` entries (one hint at least).
The output bytes do not depend on the block size.
"""

from __future__ import annotations

import numpy as np

# B * n stays at most this many entries: 16 rounds at n = 1000, where each
# block pays the harness's per-block costs once; B stays at most 204 rounds
PLAN_CELLS = 16384


def block_rounds(n: int) -> int:
    """The most rounds in one block of rewards on n elements."""
    return max(1, min(204, PLAN_CELLS // n))


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The inner product of each row of ``a`` with the same row of ``b``.

    A stacked ``(B, 1, n) @ (B, n, 1)`` product computes each one with the
    dot that a 1-d ``a[i] @ b[i]`` (and so ``np.linalg.norm``) uses, so every
    entry has those bits; ``einsum`` and ``(a * b).sum(1)`` add in another
    order.  For two vectors it returns their product as a 0-d array.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _few_long_rows(rows: int, n: int) -> bool:
    """Whether a block of ``rows`` rows of length n is summed faster one row
    add at a time than by one ``cumsum(axis=0)``.  That ``cumsum`` steps
    through the columns one at a time, which costs about 20 µs plus 0.02 µs
    per column, while one row add costs about 1.7 µs: so yes for 17 rows of
    1000, no for 205 rows of 20."""
    return rows <= 12 + n // 64


def running_sums(a: np.ndarray) -> np.ndarray:
    """Replace each row of the (B, n) array ``a`` by the sum of the rows up to
    it, in place, as ``a.cumsum(axis=0)`` does and as adding the rows one by
    one into a running vector does: the same additions in the same order,
    so either way, whichever is faster for the shape, gives the same bits."""
    if _few_long_rows(*a.shape):
        for i in range(1, len(a)):
            a[i] += a[i - 1]
    else:
        a.cumsum(axis=0, out=a)
    return a
