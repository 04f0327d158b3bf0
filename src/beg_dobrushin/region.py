"""Uniqueness region: root of r(t) = 1/(2d), the boundary curve x(d, y),
membership tests, and the Blume-Capel critical coupling."""

from __future__ import annotations

import math
from functools import lru_cache

from .bounds import _rate, r_of_t
from .errors import DomainError
from .kernel import bisect
from .model import STRIP_BANDS, check_dimension, check_finite, classify_region

_BISECT_TOL = 1e-12


def solve_t_d(d: int) -> float:
    """Root t_d of r(t) = 1/(2d), computed once per dimension."""
    return _solve_t_d(check_dimension(d))


@lru_cache(maxsize=None)
def _solve_t_d(d: int) -> float:
    """solve_t_d by bisection: r is strictly decreasing with r(1) = 1 >
    1/(2d), so [1, T] brackets the root once r(T) < 1/(2d)."""
    target = 1.0 / (2 * d)
    hi = 2.0
    while r_of_t(hi) >= target:
        hi *= 2
    lo, hi = bisect(lambda ts: [r_of_t(t) <= target for t in ts], 1.0, hi, _BISECT_TOL)
    return 0.5 * (lo + hi)


def _curve_x(d: int, y: float) -> float:
    """curve_x for finite y, -inf where it overflows: the x whose exponent a
    equals t_d * b(y), with a = 2d|x + y + 1| above y = -1 (bands A and B)
    and 2d|x| below it (band C)."""
    x = -(solve_t_d(d) / (2 * d)) * _rate(y)
    return x - (y + 1) if y > -1 else x


def curve_x(d: int, y: float) -> float:
    """The polygonal uniqueness boundary x(d, y) solving a(d, x, y)/b(y) = t_d;
    DomainError if it overflows."""
    y, d = check_finite("y", y), check_dimension(d)
    x = _curve_x(d, y)
    if not math.isfinite(x):
        raise DomainError(f"curve x is {x!r} at y={y!r} (d = {d}); y is too large in magnitude")
    return x


def in_dobrushin_region(d: int, x: float, y: float) -> bool:
    """True iff (x, y) lies in A|B|C and strictly left of the boundary curve,
    i.e. the optimized bound beats the 1/(2d) threshold for every temperature.
    Where the curve overflows to -inf, no finite x lies left of it."""
    sub = classify_region(x, y).sub
    d = check_dimension(d)
    return sub in STRIP_BANDS and x < _curve_x(d, y)


def blume_capel_xc(d: int) -> float:
    """Critical coupling -(d + t_d)/d of the y = 0 (Blume-Capel) slice."""
    d = check_dimension(d)
    return -(d + solve_t_d(d)) / d
