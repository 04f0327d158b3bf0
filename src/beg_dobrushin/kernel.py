"""Vectorized single-site kernel: the (k, #plus) classes of neighbor tails and,
for every inverse temperature of a grid at once, the exact TV distances and
the Lemma 1 bounds over (beta, class, boundary pair), and the per-beta case
bounds of a strip point.

Tables have shape (len(betas), len(classes(d).tails), len(PAIR_ORDER)).  Each
beta slice is computed with the same floating-point operations, in the same
order, as a single-beta evaluation, so batching never changes a value.
Overflow to inf or nan raises no numpy warning here: the callers turn a
non-finite result into one DomainError.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import bounds
from .errors import DomainError
from .model import SubRegion

# Unordered boundary pairs (sigma_1, sigma_1~) with sigma_1 != sigma_1~,
# normalized so |sigma_1~| >= |sigma_1| and (-1, +1) when magnitudes tie.
PAIR_ORDER = ((-1, 1), (0, 1), (0, -1))

# Upper bound on the beta x class cells that max_tv evaluates at once: the
# temporaries of tv_table are (betas, classes) planes, so each then holds at
# most 4 KiB (the (betas, classes, pairs) result 12 KiB), and a long beta grid,
# or a large d, costs memory for one small block only.
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
    per beta and tail class.

    Each conditional is held as three (betas, classes) planes, one per origin
    spin, so no step reduces over a short spin axis; the normalizer is summed
    as (w_-1 + w_0) + w_+1 and the TV as (|D_-1| + |D_0|) + |D_+1|, the order
    a length-3 numpy sum uses.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        k, n = _tail_stats(d)
        b = np.asarray(betas, dtype=np.float64)[:, None]
        dists = {}
        for s1 in (-1, 0, 1):
            coef = 2 * d * x + y * (k + s1 * s1)
            s = n + s1
            e_minus = b * (coef - s)
            e_plus = b * (coef + s)
            top = np.maximum(np.maximum(e_minus, 0.0), e_plus)
            w = (np.exp(e_minus - top), np.exp(-top), np.exp(e_plus - top))
            z = (w[0] + w[1]) + w[2]
            dists[s1] = [plane / z for plane in w]
        out = np.empty((len(b), len(k), len(PAIR_ORDER)))
        for j, (p, q) in enumerate(PAIR_ORDER):
            delta = [np.abs(u - v) for u, v in zip(dists[p], dists[q])]
            np.multiply(0.5, (delta[0] + delta[1]) + delta[2], out=out[:, :, j])
        return out


# sigma_1, sigma_1~^2 - sigma_1^2 and sigma_1~ - sigma_1 of each PAIR_ORDER pair
_S1 = np.array([s1 for s1, _ in PAIR_ORDER], dtype=np.float64)
_DSQ = np.array([st * st - s1 * s1 for s1, st in PAIR_ORDER], dtype=np.float64)
_STEP = np.array([st - s1 for s1, st in PAIR_ORDER], dtype=np.float64)


@lru_cache(maxsize=None)
def _pair_stats(d: int) -> tuple[np.ndarray, np.ndarray]:
    """sigma^2 = k + sigma_1^2 and sigma_1 + n per class and pair, shape
    (classes, pairs) (read-only, shared by every caller)."""
    k, n = _tail_stats(d)
    stats = k[:, None] + _S1 * _S1, _S1 + n[:, None]
    for a in stats:
        a.flags.writeable = False
    return stats


def lemma1_table(d: int, x: float, y: float, betas: np.ndarray) -> np.ndarray:
    """|theta_+1| + |theta_-1| + |psi| per beta, tail class and normalized
    pair; vectorized mirror of bounds.lemma1_bound.

    All pairs are evaluated at once on (betas, classes, pairs) arrays, with
    each pair's sigma_1 terms as length-3 vectors; every entry repeats the
    single-pair operations in the same order.  The nine factors
    1 - exp(-|e|) per beta (psi's and both thetas' for each pair) depend on
    beta alone; they are taken in one pass with math.expm1, as the scalar
    bound does.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sig2, s1_n = _pair_stats(d)
        b = np.asarray(betas, dtype=np.float64)[:, None]
        # (betas, pairs) columns: |g|, the psi exponent's pair term and e_inner
        # for s = -1, +1
        g = np.abs(b * _STEP)
        e_pair = b * y * _DSQ
        e_inner = (e_pair + -b * _STEP, e_pair + b * _STEP)
        neg = np.stack((-2 * g, -np.abs(e_inner[0]), -np.abs(e_inner[1])))
        factors = np.array([-math.expm1(v) for v in neg.ravel().tolist()]).reshape(neg.shape)
        f_psi, f_minus, f_plus = factors[:, :, None, :]
        b = b[:, :, None]
        e_prefix = b * (2 * d * x + y * sig2)
        e_psi = b * (4 * d * x + 2 * y * sig2) + e_pair[:, None, :]
        out = np.exp(e_psi + g[:, None, :])
        out *= f_psi
        for s, e, f in ((-b, e_inner[0], f_minus), (b, e_inner[1], f_plus)):
            # |exp(e) - 1| = exp(max(e, 0)) * (1 - exp(-|e|))
            term = np.exp(e_prefix + s * s1_n + np.maximum(e, 0.0)[:, None, :])
            term *= f
            out += term
        return out


class CaseBounds(NamedTuple):
    """The beta-dependent case bounds of one strip point over a beta grid."""

    lemma2: np.ndarray  # bounds.lemma2_bound per beta
    lemma3: np.ndarray  # bounds.lemma3_bound per beta
    theorem1: np.ndarray  # bounds.theorem1_bound per beta
    r: float  # bounds.r_of_t(a / b), free of beta


def case_bounds(d: int, x: float, y: float, betas: np.ndarray) -> CaseBounds:
    """Lemma 2, Lemma 3 and Theorem 1 bounds for every beta of a grid, and
    r(a/b); bit-for-bit the scalar bounds.* values.

    The point is classified and its exponents taken once.  The exponents of
    each term are formed for the whole grid in the scalar functions' order;
    only bounds._decay, on math.exp and math.expm1, runs per beta.  Raises
    DomainError outside A|B|C.
    """
    sub = bounds.require_sub_region(x, y)
    ep = bounds.band_exponents(sub, d, x, y)
    b = np.asarray(betas, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        if sub is SubRegion.C:
            lemma2 = _decay(4.0, b * (2 * d * x + y + 1), -2 * b)
            lemma3 = _decay(3.0, 2 * d * b * x, b * (y - 1))
        else:
            e = b * (2 * d * x + 2 * d * (y + 1))
            lemma2 = _decay(4.0, e, -2 * b)
            lemma3 = _decay(3.0, e, -b * (y + 1) if sub is SubRegion.A else -2 * b)
        return CaseBounds(lemma2, lemma3, _decay(4.0, -b * ep.a, -b * ep.b), bounds.r_of_t(ep.a / ep.b))


def _decay(c: float, e: np.ndarray, g: np.ndarray) -> np.ndarray:
    """bounds._decay per entry: c * exp(e) * (1 - exp(g)) for g <= 0."""
    return np.array([bounds._decay(c, u, v) for u, v in zip(e.tolist(), g.tolist())])


def first_max(table: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per beta: the largest entry of a (betas, classes, pairs) table and the
    class and pair indices of its first occurrence in (class, pair) order."""
    flat = table.reshape(table.shape[0], table.shape[1] * table.shape[2])
    at = flat.argmax(axis=1)
    return flat[np.arange(len(flat)), at], at // table.shape[2], at % table.shape[2]


def block_betas(d: int) -> int:
    """Betas per max_tv block: as many as fit _BLOCK_CELLS (beta, class)
    cells, and at least one."""
    return max(1, _BLOCK_CELLS // len(classes(d).tails))


def finite_tv(tv: float, d: int, x: float, y: float, beta: float) -> float:
    """A max TV read from max_tv, or DomainError naming the point if it
    overflowed to nan."""
    if not math.isfinite(tv):
        raise DomainError(
            f"max TV is {tv!r} at beta {beta!r} for point {(x, y)} (d = {d}); "
            "the point is too large in magnitude"
        )
    return tv


def max_tv(d: int, x: float, y: float, betas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """first_max of tv_table over the whole beta grid, evaluated in blocks of
    block_betas(d) betas."""
    betas = np.asarray(betas, dtype=np.float64)
    step = block_betas(d)
    blocks = [betas[i : i + step] for i in range(0, len(betas), step)] or [betas]
    parts = [first_max(tv_table(d, x, y, block)) for block in blocks]
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))
