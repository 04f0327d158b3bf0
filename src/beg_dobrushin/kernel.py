"""Vectorized single-site kernel: the (k, #plus) classes of neighbor tails and,
for every inverse temperature of a grid at once, the exact TV distances and
the Lemma 1 bounds over (point, beta, class, boundary pair).

Tables have shape (len(betas), len(classes(d).k), len(PAIR_ORDER)), with a
leading points axis for 1-D point coordinates.  tv_table evaluates on
(betas, classes) planes, one per spin and pair; lemma1_table on a (pairs,
classes, points, betas) layout, so its numpy loops run along the beta grid,
and returns the values in C order of (points, betas, classes, pairs).  Each
(point, beta) slice is computed with the same floating-point operations, in
the same order, as a single-point, single-beta evaluation, so batching never
changes a value.  Overflow to inf or nan raises no numpy warning here: the
callers turn a non-finite result into one DomainError (model.check_result).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

# Unordered boundary pairs (sigma_1, sigma_1~) with sigma_1 != sigma_1~,
# normalized so |sigma_1~| >= |sigma_1| and (-1, +1) when magnitudes tie.
PAIR_ORDER = ((-1, 1), (0, 1), (0, -1))

# Upper bound on the beta x class cells that max_tv evaluates at once: the
# temporaries of tv_table are (betas, classes) planes, so each then holds at
# most 4 KiB (the (betas, classes, pairs) result 12 KiB), and a long beta grid,
# or a large d, costs memory for one small block only.
_BLOCK_CELLS = 512

# Upper bound on the point x beta x class cells of one block of sweep points:
# each (points, betas, classes, pairs) temporary of its TV and Lemma 1 tables
# then holds at most 96 KiB, so a sweep's tables cost memory for one block only.
_SWEEP_BLOCK_CELLS = 4096


class ClassTable(NamedTuple):
    """The (k, #plus) classes of tails as statistics (read-only arrays shared
    by every caller) and the class sizes."""

    k: np.ndarray  # float64, nonzero spins per class
    n: np.ndarray  # float64, spin sum per class
    mult: tuple[int, ...]  # exact multiplicities, summing to 3^(2d-1)


@lru_cache(maxsize=None)
def classes(d: int) -> ClassTable:
    """The d(2d+1) classes of tails (assignments of the 2d-1 non-distinguished
    neighbors) with k nonzero spins of which `plus` are +1.

    The conditional depends on a tail only through k and its spin sum n, so
    (k, n) stands for the whole class.  Classes are in (plus - k, k) order, #minus
    from 2d-1 down to 0 and then k up: the order of their first members in
    balanced-ternary order (class_tail: more -1s first, then more 0s), so the
    first maximizer over (class, pair) is the first maximizer over (tail, pair)
    of the full enumeration.  Multiplicities C(2d-1, k) C(k, #minus) are
    exact Python ints, whatever integer type d has.
    """
    m = 2 * d - 1
    ks, ns, mult = [], [], []
    for minus in range(m, -1, -1):
        for k in range(minus, m + 1):
            ks.append(k)
            ns.append(k - 2 * minus)
            mult.append(math.comb(m, k) * math.comb(k, minus))
    stats = (np.array(ks, dtype=np.float64), np.array(ns, dtype=np.float64))
    for a in stats:
        a.flags.writeable = False
    return ClassTable(*stats, tuple(mult))


def class_tail(d: int, i: int) -> tuple[int, ...]:
    """The representative tail of class i: its first member in balanced-ternary
    order, the -1s, then the 0s, then the +1s."""
    table = classes(d)
    k, n = int(table.k[i]), int(table.n[i])
    plus = (k + n) // 2
    return (-1,) * (k - plus) + (0,) * (2 * d - 1 - k) + (1,) * plus


def tv_table(d: int, x: float | np.ndarray, y: float | np.ndarray, betas: np.ndarray) -> np.ndarray:
    """TV distances between the origin conditionals for each boundary pair,
    per beta and tail class: shape (betas, classes, pairs) for float x and y,
    and (points, betas, classes, pairs) for 1-D x and y of the points.

    Each conditional is held as three (betas, classes) planes, one per origin
    spin, so no step reduces over a short spin axis; the normalizer is summed
    as (w_-1 + w_0) + w_+1 and the TV as (|D_-1| + |D_0|) + |D_+1|, the order
    a length-3 numpy sum uses.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        k, n, _ = classes(d)
        b = np.asarray(betas, dtype=np.float64)[:, None]
        # a number stays a scalar (max_tv's blocks); an array gets axes for (betas, classes)
        x, y = (c if isinstance(c, (int, float)) else np.asarray(c, dtype=np.float64)[..., None, None] for c in (x, y))
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
        out = np.empty(z.shape + (len(PAIR_ORDER),))
        for j, (p, q) in enumerate(PAIR_ORDER):
            delta = [np.abs(u - v) for u, v in zip(dists[p], dists[q])]
            np.multiply(0.5, (delta[0] + delta[1]) + delta[2], out=out[..., j])
        return out


# sigma_1, sigma_1~^2 - sigma_1^2 and sigma_1~ - sigma_1 of each PAIR_ORDER
# pair, shape (pairs, 1, 1, 1): the leading axis of lemma1_table's layout
_S1 = np.array([s1 for s1, _ in PAIR_ORDER], dtype=np.float64)[:, None, None, None]
_DSQ = np.array([st * st - s1 * s1 for s1, st in PAIR_ORDER], dtype=np.float64)[:, None, None, None]
_STEP = np.array([st - s1 for s1, st in PAIR_ORDER], dtype=np.float64)[:, None, None, None]


def math_map(fn, a: np.ndarray) -> np.ndarray:
    """fn, a math function such as math.exp, of every entry of a, in a's
    shape: the scalar function's values bit for bit, where numpy's own ufunc
    may differ in the last bit."""
    return np.fromiter(map(fn, a.ravel().tolist()), np.float64, a.size).reshape(a.shape)


def lemma1_table(d: int, xs: np.ndarray, ys: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """|theta_+1| + |theta_-1| + |psi| per point (xs[i], ys[i]), beta, tail
    class and normalized pair, shape (points, betas, classes, pairs);
    vectorized mirror of bounds.lemma1_bound.

    All points and pairs are evaluated at once, on a (pairs, classes, points,
    betas) layout, so every numpy loop runs along the beta grid; the result
    is that table transposed and copied into C order.  Every entry repeats
    the single-pair operations in the same order, and math.expm1 takes each
    factor 1 - exp(-|e|) of psi and of both thetas, as the scalar bounds do.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        k, n, _ = classes(d)
        # sigma^2 = k + sigma_1^2 and sigma_1 + n, (pairs, classes, 1, 1)
        sig2 = k[:, None, None] + _S1 * _S1
        s1_n = _S1 + n[:, None, None]
        b = np.asarray(betas, dtype=np.float64)
        x, y = (np.asarray(c, dtype=np.float64)[:, None] for c in (xs, ys))
        # |g| (pairs, 1, 1, betas); the psi exponent's pair term and e_inner
        # for s = -1, +1 (pairs, 1, points, betas)
        g = np.abs(b * _STEP)
        e_pair = b * y * _DSQ
        e_inner = (e_pair + -b * _STEP, e_pair + b * _STEP)
        e_prefix = b * (2 * d * x + y * sig2)
        e_psi = b * (4 * d * x + 2 * y * sig2) + e_pair
        out = np.exp(e_psi + g)
        out *= -math_map(math.expm1, -2 * g)
        for s, e in ((-b, e_inner[0]), (b, e_inner[1])):
            # |exp(e) - 1| = exp(max(e, 0)) * (1 - exp(-|e|))
            term = np.exp(e_prefix + s * s1_n + np.maximum(e, 0.0))
            term *= -math_map(math.expm1, -np.abs(e))
            out += term
        return np.ascontiguousarray(out.transpose(2, 3, 1, 0))


def first_max(table: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per leading index of a (..., classes, pairs) table, such as a beta or
    a (point, beta): the largest entry over (class, pair) and the class and
    pair indices of its first occurrence in (class, pair) order."""
    *lead, n_classes, n_pairs = table.shape
    flat = table.reshape(-1, n_classes * n_pairs)
    at = flat.argmax(axis=1)
    return flat[np.arange(len(flat)), at].reshape(lead), *np.divmod(at.reshape(lead), n_pairs)


def block_betas(d: int) -> int:
    """Betas per max_tv block: as many as fit _BLOCK_CELLS (beta, class)
    cells, and at least one."""
    return max(1, _BLOCK_CELLS // len(classes(d).k))


def block_points(d: int, n_betas: int) -> int:
    """Points per block (one tv_table and one lemma1_table) of a sweep over
    n_betas betas: as many as fit _SWEEP_BLOCK_CELLS cells, and at least one."""
    return max(1, _SWEEP_BLOCK_CELLS // max(1, n_betas * len(classes(d).k)))


def bisect(fails, lo: float, hi: float, tol: float, levels: int = 1) -> tuple[float, float]:
    """Narrow a bracket whose hi fails and whose lo holds until hi - lo <= tol.

    Each round forms the 2^levels - 1 midpoints of the depth-`levels` bracket
    tree in heap order (node j's children are 2j + 1, its bracket's lower
    half, taken when its midpoint fails, and 2j + 2), evaluates them in one
    fails(mids) call, which returns one bool per midpoint, and then walks up
    to `levels` steps.  Each midpoint is formed as 0.5 * (a + b), as in a
    one-probe-per-step loop, so the bracket is that loop's, bit for bit.
    """
    while hi - lo > tol:
        brackets, mids = [(lo, hi)], []
        for j in range(2**levels - 1):
            a, b = brackets[j]
            mids.append(0.5 * (a + b))
            brackets += [(a, mids[j]), (mids[j], b)]
        failed, j = fails(mids), 0
        for _ in range(levels):
            if hi - lo <= tol:
                break
            if failed[j]:
                hi, j = mids[j], 2 * j + 1
            else:
                lo, j = mids[j], 2 * j + 2
    return lo, hi


def max_tv(d: int, x: float, y: float, betas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """first_max of tv_table over the whole beta grid, evaluated in blocks of
    block_betas(d) betas."""
    betas = np.asarray(betas, dtype=np.float64)
    step = block_betas(d)
    blocks = [betas[i : i + step] for i in range(0, len(betas), step)] or [betas]
    parts = [first_max(tv_table(d, x, y, block)) for block in blocks]
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))
