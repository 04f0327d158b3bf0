"""Closed-form bounds on the conditional TV distance: the per-configuration
theta/psi decomposition, the two boundary-pair case bounds, the region-wide
exponential bound and its temperature optimum r(t), at one parameter point
or, for the case bounds, over a block of strip points times a beta grid
(case_bounds, which returns (points, betas) arrays)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .kernel import math_map
from .model import (
    STRIP_BANDS, ModelParams, NeighborConfig, SubRegion, check_int, check_real, check_result, check_spin, classify_region
)


@dataclass(frozen=True)
class ExponentPair:
    """Exponents (a, b) of the region-wide bound 4*exp(-beta*a)*(1 - exp(-beta*b))."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise DomainError(f"exponents must be positive, got a={self.a}, b={self.b}")


def _strip_band(sub: SubRegion | None, x: float, y: float) -> SubRegion:
    """sub, the sub-region of (x, y), or DomainError if it is not A, B or C."""
    if sub not in STRIP_BANDS:
        raise DomainError(f"point (x={x}, y={y}) is outside A|B|C")
    return sub


def require_sub_region(x: float, y: float) -> SubRegion:
    """Sub-region (A, B or C) of a point, or DomainError if outside the strip."""
    return _strip_band(classify_region(x, y).sub, x, y)


def _exp_expm1(e: float, g: float) -> float:
    """exp(e) * (exp(g) - 1), computed so no intermediate overflows when the
    combined exponent is in range."""
    if g > 0:
        return math.exp(e + g) * -math.expm1(-g)
    return math.exp(e) * math.expm1(g)


def _decay(c: float, e: float, g: float) -> float:
    """c * exp(e) * (1 - exp(g)) for g <= 0."""
    return c * math.exp(e) * -math.expm1(g)


def _finite(value: float, what: str, params: ModelParams) -> float:
    """value, the scalar bound `what` at params, through check_result, which
    names the point, the beta and d; the message is formed only on failure."""
    if math.isfinite(value):
        return value
    where = f"at point {(params.x, params.y)}, beta {params.beta!r} (d = {params.d})"
    return check_result(value, what, where, "the point or beta")


def exponents(params: ModelParams) -> ExponentPair:
    """Exponents a = 2d|x+y+1| (A|B) or 2d|x| (C), b = y+1 / 2 / |y|+1 on A/B/C."""
    return band_exponents(require_sub_region(params.x, params.y), params.d, params.x, params.y)


def _rate(y: float) -> float:
    """Decay rate b(y) of the bounds: y+1 for y >= 1 (band A), |y|+1 for
    y <= -1 (band C) and 2 in between (band B), the larger of 2 and |y|+1."""
    return max(2.0, abs(y) + 1.0)


def band_exponents(sub: SubRegion, d: int, x: float, y: float) -> ExponentPair:
    """exponents() for a point already classified into band `sub` of A|B|C."""
    return ExponentPair(2 * d * abs(x if sub is SubRegion.C else x + y + 1), _rate(y))


def _case_terms(sub: SubRegion, d: int, x, y, a, b, beta):
    """(c, e, g) of the Lemma 2, Lemma 3 and Theorem 1 bounds, each
    c*exp(e)*(1 - exp(g)), of points in band `sub` with band_exponents
    (a, b), in that order.

    x, y, a and b are floats of one point or (points, 1) columns of them, and
    beta is one float or an array of them: the exponents are the same IEEE
    operations either way, so each entry equals its one-point, one-beta value.
    """
    g = -beta * b  # Lemma 3 and Theorem 1 decay at the same rate b(y)
    if sub is SubRegion.C:
        e2, e3 = beta * (2 * d * x + y + 1), 2 * d * beta * x
    else:
        e2 = e3 = beta * (2 * d * x + 2 * d * (y + 1))
    return (4.0, e2, -2 * beta), (3.0, e3, g), (4.0, -beta * a, g)


def _point_terms(params: ModelParams):
    """_case_terms at one parameter point; DomainError outside A|B|C."""
    sub = require_sub_region(params.x, params.y)
    ep = band_exponents(sub, params.d, params.x, params.y)
    return _case_terms(sub, params.d, params.x, params.y, ep.a, ep.b, params.beta)


def theorem1_bound(params: ModelParams) -> float:
    """Region-wide bound 4*exp(-beta*a)*(1 - exp(-beta*b)) on the conditional TV."""
    return _finite(_decay(*_point_terms(params)[2]), "theorem1_bound", params)


def beta_critical(ep: ExponentPair) -> float:
    """Unique maximizer of w(a, b, beta) = 4*exp(-a*beta)*(1 - exp(-b*beta));
    satisfies exp(-beta_c*b) = a/(a+b).  DomainError if it is not finite."""
    beta_c = math.log((ep.a + ep.b) / ep.a) / ep.b
    return check_result(beta_c, "beta_critical", f"for a={ep.a!r}, b={ep.b!r}", "a/b or b/a")


def _r(t: float) -> float:
    """r_of_t without its guard: nan for t = inf, so an overflowing exponent
    a reaches the sweep's slack check rather than raising here."""
    return 4.0 / (1.0 + t) * math.exp(-t * math.log1p(1.0 / t))


def r_of_t(t: float) -> float:
    """Value of the bound at its temperature optimum: (4/(1+t)) * (1+1/t)^(-t),
    for a finite real t > 0 (see check_real).

    Strictly decreasing on (0, inf) with r(1) = 1.
    """
    return _r(check_real("t", t, "be positive", lambda t: t > 0))


def _check_pair(nb: NeighborConfig, sigma1_tilde: int) -> int:
    """sigma1_tilde as an int, if it is a spin other than nb's distinguished one."""
    st = check_spin(sigma1_tilde)
    if st == nb.spins[0]:
        raise DomainError("replacement spin must differ from the distinguished neighbor")
    return st


def theta(s: int, nb: NeighborConfig, sigma1_tilde: int, params: ModelParams) -> float:
    """One signed term of the TV decomposition for origin spin s in {-1, +1}."""
    s = check_int("s", s, "be -1 or +1", (-1, 1).__contains__)
    s1, st = nb.spins[0], _check_pair(nb, sigma1_tilde)
    beta = params.beta
    e_prefix = beta * (2 * params.d * params.x + params.y * nb.sigma_sq)
    e_inner = beta * params.y * (st * st - s1 * s1) + beta * s * (st - s1)
    e_suffix = beta * s * sum(nb.spins)
    return _finite(_exp_expm1(e_prefix + e_suffix, e_inner), "theta", params)


def psi(nb: NeighborConfig, sigma1_tilde: int, params: ModelParams) -> float:
    """The sinh term of the TV decomposition:
    2*exp(beta*(4dx + 2y*sigma_sq)) * exp(beta*y*(st^2-s1^2)) * sinh(beta*(st-s1))."""
    s1, st = nb.spins[0], _check_pair(nb, sigma1_tilde)
    beta = params.beta
    e = beta * (4 * params.d * params.x + 2 * params.y * nb.sigma_sq)
    e += beta * params.y * (st * st - s1 * s1)
    g = beta * (st - s1)
    if g == 0:
        return 0.0
    # 2*sinh(g) = sign(g) * exp(|g|) * (1 - exp(-2|g|))
    return _finite(math.copysign(1.0, g) * math.exp(e + abs(g)) * -math.expm1(-2 * abs(g)), "psi", params)


def lemma1_bound(nb: NeighborConfig, sigma1_tilde: int, params: ModelParams) -> float:
    """Configuration-wise TV bound |theta_+1| + |theta_-1| + |psi|.

    The pair is normalized internally to |sigma1_tilde| >= |sigma_1|, with
    (-1, +1) when the magnitudes tie; the bound is symmetric in the pair.
    """
    s1, st = nb.spins[0], _check_pair(nb, sigma1_tilde)
    if abs(st) < abs(s1):
        nb = nb.with_distinguished(st)
        st = s1
    elif abs(st) == abs(s1):
        nb = nb.with_distinguished(-1)
        st = 1
    total = abs(theta(1, nb, st, params)) + abs(theta(-1, nb, st, params)) + abs(psi(nb, st, params))
    return _finite(total, "lemma1_bound", params)


def lemma2_bound(params: ModelParams) -> float:
    """Uniform TV bound over boundary pairs with |sigma_1| = |sigma_1~|."""
    return _finite(_decay(*_point_terms(params)[0]), "lemma2_bound", params)


def lemma3_bound(params: ModelParams) -> float:
    """Uniform TV bound over boundary pairs with |sigma_1| != |sigma_1~|."""
    return _finite(_decay(*_point_terms(params)[1]), "lemma3_bound", params)


class CaseBounds(NamedTuple):
    """The beta-dependent case bounds of a block of strip points over a beta
    grid."""

    lemma2: np.ndarray  # (points, betas): lemma2_bound per point and beta
    lemma3: np.ndarray  # (points, betas): lemma3_bound per point and beta
    theorem1: np.ndarray  # (points, betas): theorem1_bound per point and beta
    r: np.ndarray  # (points,): r_of_t(a / b) per point, free of beta


def case_bounds(d: int, points, bands, betas: np.ndarray) -> CaseBounds:
    """Lemma 2, Lemma 3 and Theorem 1 bounds of a block of strip points
    (x, y) for every beta of a grid, shape (points, betas), and r(a/b) per
    point; bit-for-bit the scalar bounds.

    bands[i] is the band (A, B or C) of points[i], as classify_region gives
    it; DomainError if one is not.  band_exponents and _r (unguarded, so an
    a that overflowed gives r = nan for the sweep to report) run once per
    point, then _case_terms once per band, with the band's x, y, a and b as
    columns.  math.exp and math.expm1 then run over whole arrays: 1 - exp(-2
    beta) of Lemma 2 once per band and beta, and every other factor once per
    cell, the 1 - exp(g) that Lemma 3 and Theorem 1 share included.
    """
    betas = np.asarray(betas, dtype=np.float64)
    eps = [band_exponents(_strip_band(sub, x, y), d, x, y) for (x, y), sub in zip(points, bands)]
    columns = np.array([(x, y, ep.a, ep.b) for (x, y), ep in zip(points, eps)], dtype=np.float64).reshape(-1, 4)
    out = CaseBounds(*(np.empty((len(points), len(betas))) for _ in range(3)), np.empty(len(points)))
    out.r[:] = [_r(ep.a / ep.b) for ep in eps]
    with np.errstate(over="ignore", invalid="ignore"):
        for sub in STRIP_BANDS:
            rows = [i for i, band in enumerate(bands) if band is sub]
            if not rows:
                continue
            x, y, a, b = columns[rows].T[:, :, None]
            (c2, e2, g2), (c3, e3, g), (c1, e1, _) = _case_terms(sub, d, x, y, a, b, betas)
            f = -math_map(math.expm1, g)  # _decay's factor, as c * exp(e) * f
            out.lemma2[rows] = c2 * math_map(math.exp, e2) * -math_map(math.expm1, g2)
            out.lemma3[rows] = c3 * math_map(math.exp, e3) * f
            out.theorem1[rows] = c1 * math_map(math.exp, e1) * f
    return out


def _check_k(params: ModelParams, k: int) -> int:
    top = 2 * params.d - 1
    return check_int("k", k, f"be an integer in [0, {top}]", lambda k: 0 <= k <= top)


def theta_sum_bound(params: ModelParams, k: int) -> float:
    """Bound on |theta_+1| + |theta_-1| for sigma_1 = 0, sigma_1~ = 1 and k
    nonzero non-distinguished neighbors, decaying at rate b(y)."""
    k = _check_k(params, k)
    beta, x, y, d = params.beta, params.x, params.y, params.d
    # k(y+1) for y <= -1 and (k+1)(y+1) above: the larger of the two
    tail = max(k * (y + 1), (k + 1) * (y + 1))
    return _finite(_decay(2.0, beta * (2 * d * x + tail), -beta * _rate(y)), "theta_sum_bound", params)


def psi_bound(params: ModelParams, k: int) -> float:
    """Bound on |psi| for sigma_1 = 0, sigma_1~ = +-1 and k nonzero
    non-distinguished neighbors, decaying at rate b(y)."""
    k = _check_k(params, k)
    beta, x, y, d = params.beta, params.x, params.y, params.d
    return _finite(_decay(1.0, beta * (4 * d * x + (2 * k + 1) * y + 1), -beta * _rate(y)), "psi_bound", params)
