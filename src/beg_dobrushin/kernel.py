"""Vectorized single-site kernel: the (k, #plus) classes of neighbor tails and,
for every inverse temperature of a grid at once, the exact TV distances and
the Lemma 1 bounds over (beta, class, boundary pair).

Tables have shape (len(betas), len(classes(d).tails), len(PAIR_ORDER)).  Each
beta slice is computed with the same floating-point operations, in the same
order, as a single-beta evaluation, so batching never changes a value.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

# Unordered boundary pairs (sigma_1, sigma_1~) with sigma_1 != sigma_1~,
# normalized so |sigma_1~| >= |sigma_1| and (-1, +1) when magnitudes tie.
PAIR_ORDER = ((-1, 1), (0, 1), (0, -1))

# Upper bound on the beta x class cells that max_tv evaluates at once: each
# temporary of a block then holds at most 12 KiB, so a long beta grid, or a
# large d, costs memory for one small block only.
_BLOCK_CELLS = 512


class ClassTable(NamedTuple):
    """One representative tail per (k, #plus) class and the class sizes."""

    tails: np.ndarray  # int8, shape (d(2d+1), 2d-1)
    mult: tuple[int, ...]  # exact multiplicities, summing to 3^(2d-1)


@lru_cache(maxsize=None)
def classes(d: int) -> ClassTable:
    """The d(2d+1) classes of tails (assignments of the 2d-1 non-distinguished
    neighbors) with k nonzero spins of which `plus` are +1.

    The conditional depends on a tail only through k and its spin sum, so a
    class representative carries the whole class.  Each class is represented by
    its first member in balanced-ternary order (the -1s, then the 0s, then the
    +1s), and the classes are sorted by that member, so the first maximizer over
    (class, pair) is the first maximizer over (tail, pair) of the full
    enumeration.  Multiplicities C(2d-1, k) C(k, plus) are exact Python ints.
    """
    m = 2 * d - 1
    reps = sorted(
        ((-1,) * (k - plus) + (0,) * (m - k) + (1,) * plus, math.comb(m, k) * math.comb(k, plus))
        for k in range(m + 1)
        for plus in range(k + 1)
    )
    tails = np.array([t for t, _ in reps], dtype=np.int8).reshape(len(reps), m)
    return ClassTable(tails, tuple(c for _, c in reps))


@lru_cache(maxsize=None)
def _tail_stats(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Number of nonzero spins and spin sum of each class representative
    (read-only, shared by every caller)."""
    tails = classes(d).tails
    stats = (tails != 0).sum(axis=1).astype(np.float64), tails.sum(axis=1).astype(np.float64)
    for a in stats:
        a.flags.writeable = False
    return stats


def tv_table(d: int, x: float, y: float, betas: np.ndarray) -> np.ndarray:
    """TV distances between the origin conditionals for each boundary pair,
    per beta and tail class."""
    k, n = _tail_stats(d)
    b = np.asarray(betas, dtype=np.float64)[:, None]
    dists = {}
    for s1 in (-1, 0, 1):
        coef = 2 * d * x + y * (k + s1 * s1)
        s = n + s1
        exps = np.stack([b * (coef - s), np.zeros((len(b), len(k))), b * (coef + s)], axis=-1)
        exps -= exps.max(axis=-1, keepdims=True)
        w = np.exp(exps)
        dists[s1] = w / w.sum(axis=-1, keepdims=True)
    return np.stack(
        [0.5 * np.abs(dists[p] - dists[q]).sum(axis=-1) for p, q in PAIR_ORDER], axis=-1
    )


def lemma1_table(d: int, x: float, y: float, betas: np.ndarray) -> np.ndarray:
    """|theta_+1| + |theta_-1| + |psi| per beta, tail class and normalized
    pair; vectorized mirror of bounds.lemma1_bound.

    The factors 1 - exp(-|g|) depend on beta alone and are taken per beta with
    math.expm1, as the scalar bound does.
    """
    k, n = _tail_stats(d)
    b = np.asarray(betas, dtype=np.float64)[:, None]
    out = np.empty((len(b), len(k), len(PAIR_ORDER)))
    for j, (s1, st) in enumerate(PAIR_ORDER):
        sig2 = k + s1 * s1
        e_prefix = b * (2 * d * x + y * sig2)
        e_psi = b * (4 * d * x + 2 * y * sig2) + b * y * (st * st - s1 * s1)
        g = np.abs(b * (st - s1))
        total = np.exp(e_psi + g) * _neg_expm1(-2 * g)
        for s in (-1, 1):
            e_inner = b * y * (st * st - s1 * s1) + b * s * (st - s1)
            e_suffix = b * s * (s1 + n)
            # |exp(e_inner) - 1| = exp(max(e_inner, 0)) * (1 - exp(-|e_inner|))
            total = total + np.exp(e_prefix + e_suffix + np.maximum(e_inner, 0.0)) * _neg_expm1(
                -np.abs(e_inner)
            )
        out[:, :, j] = total
    return out


def _neg_expm1(column: np.ndarray) -> np.ndarray:
    """-expm1 of each entry of a (betas, 1) column, by math.expm1."""
    return np.array([[-math.expm1(v)] for v in column[:, 0].tolist()]).reshape(column.shape)


def first_max(table: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per beta: the largest entry of a (betas, classes, pairs) table and the
    class and pair indices of its first occurrence in (class, pair) order."""
    flat = table.reshape(table.shape[0], table.shape[1] * table.shape[2])
    at = flat.argmax(axis=1)
    return flat[np.arange(len(flat)), at], at // table.shape[2], at % table.shape[2]


def max_tv(d: int, x: float, y: float, betas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """first_max of tv_table over the whole beta grid, evaluated in blocks of
    at most _BLOCK_CELLS (beta, class) cells."""
    betas = np.asarray(betas, dtype=np.float64)
    step = max(1, _BLOCK_CELLS // len(classes(d).tails))
    blocks = [betas[i : i + step] for i in range(0, len(betas), step)] or [betas]
    parts = [first_max(tv_table(d, x, y, block)) for block in blocks]
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))
