import math
import random
from functools import lru_cache

import numpy as np
import pytest

from beg_dobrushin import (
    ModelParams,
    NeighborConfig,
    conditional_distribution,
    exact_max_tv,
    r_of_t,
    total_variation,
)
from beg_dobrushin import kernel
from beg_dobrushin.kernel import PAIR_ORDER
from beg_dobrushin.model import MajorRegion
from beg_dobrushin.verify import MAX_WITNESSES, SLACK_TOL, CheckResult


@lru_cache(maxsize=None)
def numpy_exp_is_math_exp() -> bool:
    """True if np.exp equals math.exp bit for bit on a fixed seeded probe.

    numpy's AVX-512 exp kernel, which numpy takes where the CPU has AVX-512
    unless NPY_DISABLE_CPU_FEATURES=X86_V4 is set, differs from math.exp in
    the last bit for about 5% of inputs, and so changes some pinned report
    digests; without it, np.exp is the C library's exp, as math.exp is.
    """
    probe = np.random.default_rng(2026).uniform(-50.0, 50.0, 4096)
    return np.exp(probe).tobytes() == np.array([math.exp(v) for v in probe.tolist()]).tobytes()


def point_in_band(band: str, rng: random.Random) -> tuple[float, float]:
    """Random point in one of the y-bands A/B/C of the strip x+y+1<0, x<0."""
    if band == "A":
        y = rng.uniform(1.0, 4.0)
        return (-(y + 1) - rng.uniform(0.1, 5.0), y)
    if band == "B":
        y = rng.uniform(-0.95, 0.95)
        return (-(y + 1) - rng.uniform(0.1, 5.0), y)
    if band == "C":
        y = rng.uniform(-5.0, -1.0)
        return (-rng.uniform(0.1, 5.0), y)
    raise ValueError(band)


def point_in_major(major: MajorRegion, rng: random.Random) -> tuple[float, float]:
    """Random point strictly inside one major region."""
    if major is MajorRegion.FERROMAGNETIC:
        x = rng.uniform(-3.0, 3.0)
        y = max(-1 - 2 * x, -1 - x) + rng.uniform(0.1, 4.0)
        return (x, y)
    if major is MajorRegion.DISORDERED:
        x = -rng.uniform(0.1, 5.0)
        y = -1 - 2 * x - rng.uniform(0.1, 4.0)
        return (x, y)
    if major is MajorRegion.ANTIQUADRUPOLAR:
        x = rng.uniform(0.1, 5.0)
        y = -1 - x - rng.uniform(0.1, 4.0)
        return (x, y)
    raise ValueError(major)


@lru_cache(maxsize=None)
def full_tails(d: int) -> np.ndarray:
    """Full-enumeration oracle: all 3^(2d-1) assignments of the
    non-distinguished neighbors, one per row, in balanced-ternary order
    (-1 before 0 before +1)."""
    m = 2 * d - 1
    idx = np.arange(3**m)
    powers = 3 ** np.arange(m - 1, -1, -1)
    return ((idx[:, None] // powers) % 3 - 1).astype(np.int8)


@lru_cache(maxsize=None)
def tuple_sorted_classes(d: int) -> list[tuple[tuple[int, ...], int]]:
    """Oracle for kernel.classes: one representative tail per (k, #plus)
    class, its first balanced-ternary member (-1s, then 0s, then +1s), with
    the class's exact multiplicity, sorted by the tails as tuples."""
    m = 2 * d - 1
    return sorted(
        ((-1,) * (k - plus) + (0,) * (m - k) + (1,) * plus, math.comb(m, k) * math.comb(k, plus))
        for k in range(m + 1)
        for plus in range(k + 1)
    )


@lru_cache(maxsize=None)
def class_tails(d: int) -> np.ndarray:
    """kernel.class_tail of every class of kernel.classes(d), one int8 row
    per class, for the per-cell references below."""
    rows = [kernel.class_tail(d, i) for i in range(len(kernel.classes(d).k))]
    return np.array(rows, dtype=np.int8).reshape(len(rows), 2 * d - 1)


def class_loop_max_tv(params) -> float:
    """Scalar oracle: the largest conditional TV distance over one
    representative tail per (k, #plus) class and every boundary pair.  It
    mirrors `benchmarks/oracles.py::class_max_tv`, which stays free of the
    package; a change to one belongs in the other."""
    m = 2 * params.d - 1
    best = 0.0
    for k in range(m + 1):
        for plus in range(k + 1):
            tail = (1,) * plus + (-1,) * (k - plus) + (0,) * (m - k)
            for s1, s1_tilde in ((-1, 1), (0, 1), (0, -1)):
                tv = total_variation(
                    conditional_distribution(params, NeighborConfig((s1, *tail))),
                    conditional_distribution(params, NeighborConfig((s1_tilde, *tail))),
                )
                best = max(best, tv)
    return best


def brute_force_marginal(x, y, beta, box_side, ring) -> tuple[float, float, float]:
    """Oracle for finite_volume_marginal: the law of the spin at site
    ((box_side-1)//2, (box_side-1)//2), the centre of a 3x3 box, on the
    box_side x box_side box {0..box_side-1}^2 with boundary spins `ring`
    (keys (i, j) on the adjacent ring), from all 3^(box_side^2) box
    configurations at once.  Each bond's energy comes straight from the
    Hamiltonian -(s s' + y s^2 s'^2 + x (s^2 + s'^2)), and the three
    weights are summed in log space.  It mirrors
    `benchmarks/oracles.py::transfer_marginal`, which reaches the same
    numbers by a row transfer matrix instead of enumeration."""
    sites = [(i, j) for i in range(box_side) for j in range(box_side)]
    n = len(sites)
    powers = 3 ** np.arange(n - 1, -1, -1)
    configs = (np.arange(3**n)[:, None] // powers) % 3 - 1
    spin = {site: configs[:, k].astype(np.float64) for k, site in enumerate(sites)}

    def bond(s, t):
        return -(s * t + y * s * s * t * t + x * (s * s + t * t))

    energy = np.zeros(3**n)
    for i, j in sites:
        for other in ((i + 1, j), (i, j + 1)):
            if other in spin:
                energy += bond(spin[(i, j)], spin[other])
        for other in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
            if other in ring:
                energy += bond(spin[(i, j)], ring[other])
    log_w = -beta * energy
    centre = configs[:, sites.index(((box_side - 1) // 2,) * 2)]
    log_z = []
    for c in (-1, 0, 1):
        part = log_w[centre == c]
        top = part.max()
        log_z.append(top + np.log(np.exp(part - top).sum()))
    top = max(log_z)
    total = top + math.log(sum(math.exp(v - top) for v in log_z))
    return tuple(math.exp(v - total) for v in log_z)


def cell_tv_table(params, tails: np.ndarray) -> np.ndarray:
    """Per-cell reference for kernel.tv_table: TV distances at one beta, shape
    (len(tails), len(PAIR_ORDER)), for any set of tails."""
    beta, x, y, d = params.beta, params.x, params.y, params.d
    k = (tails != 0).sum(axis=1).astype(np.float64)
    n = tails.sum(axis=1).astype(np.float64)
    dists = {}
    for s1 in (-1, 0, 1):
        coef = 2 * d * x + y * (k + s1 * s1)
        s = n + s1
        exps = np.stack([beta * (coef - s), np.zeros_like(coef), beta * (coef + s)], axis=1)
        exps -= exps.max(axis=1, keepdims=True)
        w = np.exp(exps)
        dists[s1] = w / w.sum(axis=1, keepdims=True)
    return np.stack(
        [0.5 * np.abs(dists[a] - dists[b]).sum(axis=1) for a, b in PAIR_ORDER], axis=1
    )


def cell_lemma1_table(params, tails: np.ndarray) -> np.ndarray:
    """Per-cell reference for kernel.lemma1_table at one beta, shape
    (len(tails), len(PAIR_ORDER))."""
    beta, x, y, d = params.beta, params.x, params.y, params.d
    k = (tails != 0).sum(axis=1).astype(np.float64)
    n = tails.sum(axis=1).astype(np.float64)
    out = np.empty((len(tails), len(PAIR_ORDER)))
    for j, (s1, st) in enumerate(PAIR_ORDER):
        sig2 = k + s1 * s1
        e_prefix = beta * (2 * d * x + y * sig2)
        e_psi = beta * (4 * d * x + 2 * y * sig2) + beta * y * (st * st - s1 * s1)
        g = beta * (st - s1)
        total = np.exp(e_psi + abs(g)) * -math.expm1(-2 * abs(g))
        for s in (-1, 1):
            e_inner = beta * y * (st * st - s1 * s1) + beta * s * (st - s1)
            e_suffix = beta * s * (s1 + n)
            total = total + np.exp(e_prefix + e_suffix + max(e_inner, 0.0)) * -math.expm1(
                -abs(e_inner)
            )
        out[:, j] = total
    return out


def sequential_failure_beta(d, x, y):
    """Reference for find_failure_beta: one exact_max_tv probe per beta of its
    grid (120 geometric betas on [1e-3, 100], written out here so the package
    does not supply it) in increasing order, then the same bisection."""

    def fails(beta):
        return exact_max_tv(ModelParams(x=x, y=y, beta=beta, d=d)).max_tv >= 1.0 / (2 * d)

    prev = None
    for beta in np.geomspace(1e-3, 100.0, 120):
        beta = float(beta)
        if fails(beta):
            if prev is None:
                return beta
            lo, hi = prev, beta
            while hi - lo > 1e-6:
                mid = 0.5 * (lo + hi)
                if fails(mid):
                    hi = mid
                else:
                    lo = mid
            return hi
        prev = beta
    return None


def sequential_t_d(d):
    """Reference for solve_t_d: double T from 2 until r(T) < 1/(2d), then
    bisect [1, T] one probe per step to 1e-12 and return the midpoint."""
    target = 1.0 / (2 * d)
    lo, hi = 1.0, 2.0
    while r_of_t(hi) >= target:
        hi *= 2
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if r_of_t(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sequential_record(name, cells) -> CheckResult:
    """Reference for the sweep's array recording: a check recorded one cell at
    a time from (slack, witness, count) triples in order.  The worst slack is
    the first strict minimum; a slack below -SLACK_TOL adds count to
    fail_count and keeps its witness while fewer than MAX_WITNESSES are kept."""
    res = CheckResult(name=name)
    for slack, witness, count in cells:
        if res.worst_slack is None or slack < res.worst_slack:
            res.worst_slack = slack
        if slack < -SLACK_TOL:
            res.fail_count += count
            if len(res.witnesses) < MAX_WITNESSES:
                res.witnesses.append(witness)
    return res


@pytest.fixture
def rng():
    return random.Random(20260824)
