"""Reference computations for the benchmark's correctness checks.

Nothing here imports the package under test.  Each oracle is derived from the
model's definition (pair energy -(s s' + y s^2 s'^2 + x (s^2 + s'^2))) by a
different route than the package takes:

* ``class_max_tv`` maximizes the single-site TV distance over one
  representative tail per (k, #plus) class instead of all 3^(2d-1) tails;
* ``transfer_marginal`` computes the 3x3-box centre marginal with a 27-state
  row transfer matrix in log space instead of a 3^9 loop;
* ``t_d``/``curve_x`` re-derive the uniqueness curve from the paper's closed
  forms, and ``ground_state_region`` labels the coupling plane by its
  minimum-energy pair;
* ``VERIFY_CHECKS_SHA256`` pins the ``checks`` block of the default
  ``begdob verify`` report at seed 2026.
"""

from __future__ import annotations

import hashlib
import json
import math

# sha256 of json.dumps(report["checks"], sort_keys=True, indent=2) for
# `begdob verify -d D --seed 2026` with the default grid.
VERIFY_CHECKS_SHA256 = {
    1: "4d512c2107a447265768575e4f4af1b3fcbd3ad24bc7112504be93eb86578286",
    2: "09fb1d9b805dc652e02115561bf42d9213735b52aa8492463ef456344fd58da8",
    3: "d623ecd3d99cd3ebbdf88128d7c5f2237848e9a423735995dc73556c3981de48",
}

PAIRS = ((-1, 1), (0, 1), (0, -1))


def _conditional(beta: float, coef: float, s: float) -> tuple[float, float, float]:
    """Origin-spin law with weights exp(beta (xi^2 coef + xi s)), xi = -1, 0, 1.

    Summing -beta * pair energy over the 2d bonds of the origin and dropping
    the terms free of xi leaves xi * s + xi^2 (2d x + y sigma^2), with s the
    neighbour spin sum and sigma^2 the number of nonzero neighbours.
    """
    exps = (beta * (coef - s), 0.0, beta * (coef + s))
    top = max(exps)
    w = [math.exp(e - top) for e in exps]
    z = w[0] + w[1] + w[2]
    return (w[0] / z, w[1] / z, w[2] / z)


def class_max_tv(d: int, x: float, y: float, beta: float) -> float:
    """Largest TV distance between origin conditionals whose neighbourhoods
    differ at one site, maximized over (k, #plus) classes of the other 2d-1
    neighbours: the conditional reads a tail only through k (nonzero count)
    and n (spin sum)."""
    best = 0.0
    for k in range(2 * d):
        for plus in range(k + 1):
            n = 2 * plus - k
            for s1, s2 in PAIRS:
                p = _conditional(beta, 2 * d * x + y * (k + s1 * s1), n + s1)
                q = _conditional(beta, 2 * d * x + y * (k + s2 * s2), n + s2)
                best = max(best, 0.5 * sum(abs(a - b) for a, b in zip(p, q)))
    return best


def r_of_t(t: float) -> float:
    return 4.0 / (1.0 + t) * (1.0 + 1.0 / t) ** (-t)


def t_d(d: int) -> float:
    """Root of r(t) = 1/(2d); r decreases from r(1) = 1 and r(64) < 1/42,
    so [1, 64] brackets it for d <= 21."""
    lo, hi = 1.0, 64.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if r_of_t(mid) > 1.0 / (2 * d):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def curve_x(d: int, y: float) -> float:
    """Polygonal boundary x(d, y) where a(d, x, y) / b(y) = t_d."""
    t = t_d(d)
    if y >= 1:
        return -((t + 2 * d) / (2 * d)) * (y + 1)
    if y <= -1:
        return -(t / (2 * d)) * (1 - y)
    return -(d * (y + 1) + t) / d


def ground_state_region(x: float, y: float) -> tuple[str, str | None]:
    """(major, sub) labels from the minimum-energy nearest-neighbour pair.

    Pair energies: (+-1, +-1) -(1 + y + 2x), (0, 0) 0, (0, +-1) -x; the
    mixed pair (-1, +1) always lies 2 above (+-1, +-1).  The minimizer names
    the major region; a tie within 1e-12 is a boundary.  Disordered points
    with x + y + 1 < 0 fall in the bands A (y >= 1), B (|y| < 1) or
    C (y <= -1) of the uniqueness strip.
    """
    energies = {
        "Ferromagnetic": -(1 + y + 2 * x),
        "Disordered": 0.0,
        "Antiquadrupolar": -x,
    }
    ranked = sorted(energies.items(), key=lambda kv: kv[1])
    if ranked[1][1] - ranked[0][1] <= 1e-12:
        return "Boundary", None
    major = ranked[0][0]
    if major == "Ferromagnetic":
        return major, None
    if major == "Disordered":
        if x + y + 1 >= 0:
            return major, "OutsideU"
        return major, "A" if y >= 1 else "C" if y <= -1 else "B"
    return major, "OutsideU"


def strict_json(text: str):
    """json.loads that rejects NaN and Infinity."""

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def checks_digest(checks) -> str:
    return hashlib.sha256(json.dumps(checks, sort_keys=True, indent=2).encode()).hexdigest()


def transfer_marginal(x: float, y: float, beta: float, ring: dict) -> tuple[float, float, float]:
    """Centre-spin law on the 3x3 box {0,1,2}^2 with boundary spins ``ring``
    (keys (i, j) on the adjacent ring), by a row transfer matrix over the
    27 states of one row, in log space."""
    # Imported here so that numpy's import time counts in the package's set-up.
    import numpy as np

    spins = np.array([-1, 0, 1])
    states = np.stack(np.meshgrid(spins, spins, spins, indexing="ij"), axis=-1).reshape(27, 3)

    def bond(a, b):
        return -(a * b + y * a * a * b * b + x * (a * a + b * b))

    def row_energy(i):
        e = bond(states[:, 0], states[:, 1]) + bond(states[:, 1], states[:, 2])
        return e + bond(states[:, 0], ring[(i, -1)]) + bond(states[:, 2], ring[(i, 3)])

    def edge_energy(outside):
        return sum(bond(states[:, j], outside[j]) for j in range(3))

    vertical = sum(bond(states[:, None, j], states[None, :, j]) for j in range(3))
    top = edge_energy([ring[(-1, j)] for j in range(3)])
    bottom = edge_energy([ring[(3, j)] for j in range(3)])

    def step(log_v, log_m):
        t = log_v[:, None] + log_m
        m = t.max(axis=0)
        return m + np.log(np.exp(t - m).sum(axis=0))

    log_v = -beta * (top + row_energy(0))
    log_v = step(log_v, -beta * vertical) - beta * row_energy(1)
    log_last = -beta * (row_energy(2) + bottom)
    log_z = []
    for c in (-1, 0, 1):
        masked = np.where(states[:, 1] == c, log_v, -np.inf)
        t = step(masked, -beta * vertical) + log_last
        m = t.max()
        log_z.append(m + math.log(np.exp(t - m).sum()))
    top_z = max(log_z)
    w = [math.exp(v - top_z) for v in log_z]
    z = sum(w)
    return (w[0] / z, w[1] / z, w[2] / z)
