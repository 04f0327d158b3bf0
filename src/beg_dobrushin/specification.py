"""Exact single-site conditional distributions, total-variation distances and
the exact worst-case sensitivity over boundary pairs, by exhaustive enumeration
of the (k, #plus) classes of neighbor tails."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Mapping

import numpy as np

from . import kernel
from .errors import CapacityError, DomainError
from .kernel import PAIR_ORDER
from .model import (
    SPIN_VALUES, ModelParams, NeighborConfig, _shown, check_int, check_real, check_result, check_spin, pair_energy
)

_NORM_TOL = 1e-12


@dataclass(frozen=True)
class SpinDistribution:
    """Probability vector over spins (-1, 0, +1)."""

    p_minus: float
    p_zero: float
    p_plus: float

    def __post_init__(self):
        for name in ("p_minus", "p_zero", "p_plus"):
            p = check_real(name, getattr(self, name), "be in [0, 1]", lambda p: -_NORM_TOL <= p <= 1 + _NORM_TOL)
            object.__setattr__(self, name, p)
        total = self.p_minus + self.p_zero + self.p_plus
        if abs(total - 1.0) > _NORM_TOL:
            raise DomainError(f"probabilities sum to {total}, not 1")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.p_minus, self.p_zero, self.p_plus)


@dataclass(frozen=True)
class DobrushinReport:
    """Worst single-neighbor sensitivity of the origin conditional."""

    max_tv: float
    argmax_pair: tuple[NeighborConfig, int]
    row_sum: float
    satisfied: bool


def conditional_distribution(params: ModelParams, nb: NeighborConfig) -> SpinDistribution:
    """Exact conditional distribution of the origin spin given its 2d neighbors.

    Weight of spin xi is exp(beta*(xi^2*(2d*x + y*sigma_sq) + xi*sum(spins)));
    the common neighbor-only factor of the full Boltzmann weight cancels in the
    normalization.  Exponents are shifted by their maximum before exponentiating.
    """
    if len(nb.spins) != 2 * params.d:
        raise DomainError(
            f"neighbor configuration has {len(nb.spins)} spins, expected {2 * params.d}"
        )
    coef = 2 * params.d * params.x + params.y * nb.sigma_sq
    s = sum(nb.spins)
    exps = [params.beta * (xi * xi * coef + xi * s) for xi in (-1, 0, 1)]
    top = max(exps)
    weights = [math.exp(e - top) for e in exps]
    z = (weights[0] + weights[1]) + weights[2]  # not sum(), which compensates from Python 3.12 on
    return SpinDistribution(weights[0] / z, weights[1] / z, weights[2] / z)


def total_variation(p: SpinDistribution, q: SpinDistribution) -> float:
    """Half the L1 distance between two spin distributions."""
    d_minus, d_zero, d_plus = (abs(a - b) for a, b in zip(p.as_tuple(), q.as_tuple()))
    return 0.5 * ((d_minus + d_zero) + d_plus)  # not sum(), as in conditional_distribution


def checked_max_tv(value: float, d: int, x: float, y: float, beta: float) -> float:
    """value, the max TV at point (x, y) and beta in dimension d, if it is
    finite; otherwise check_result's DomainError naming the point and beta."""
    return check_result(value, "max TV", f"at beta {beta!r} for point {(x, y)} (d = {d})", "the point or beta")


def exact_max_tv(params: ModelParams) -> DobrushinReport:
    """Maximize the conditional TV distance over all tails and boundary pairs.

    Covers all 3^(2d-1) completions of the non-distinguished neighbors through
    their d(2d+1) (k, #plus) classes, for any d, and the three unordered pairs
    of distinguished-neighbor values; by translation and rotation symmetry this
    is the full content of the single-site condition.  The reported argmax is
    the first maximizer in balanced-ternary (tail, pair) order.  Raises
    DomainError when the TV overflows to nan (the point or beta is too large
    in magnitude).
    """
    d = params.d
    top, tail_i, pair_i = kernel.max_tv(d, params.x, params.y, np.array([params.beta]))
    max_tv = checked_max_tv(float(top[0]), d, params.x, params.y, params.beta)
    s1, s1_tilde = PAIR_ORDER[int(pair_i[0])]
    nb = NeighborConfig((s1, *kernel.class_tail(d, int(tail_i[0]))))
    return DobrushinReport(
        max_tv=max_tv,
        argmax_pair=(nb, s1_tilde),
        row_sum=2 * d * max_tv,
        satisfied=max_tv < 1 / (2 * d),
    )


def boundary_ring(box_side: int) -> list[tuple[int, int]]:
    """The 4*box_side sites outside the box adjacent to some box site."""
    s = box_side
    ring = []
    for j in range(s):
        ring.append((-1, j))
        ring.append((s, j))
    for i in range(s):
        ring.append((i, -1))
        ring.append((i, s))
    return ring


def finite_volume_marginal(
    params: ModelParams,
    box_side: int,
    boundary: int | Mapping[tuple[int, int], int],
) -> SpinDistribution:
    """Exact center-spin marginal of the finite-volume Gibbs distribution on a
    box_side x box_side box in Z^2 with a fully specified boundary ring.

    By the DLR equations the marginal is the center's conditional law averaged
    over the rest of the box, and that law sees the center's four neighbors
    only through K = sum(s^2) and N = sum(s).  So the center is summed out in
    closed form: the 3^(box_side^2 - 1) configurations of the other box sites
    are enumerated, each exponent -beta*E_rest (the bonds that do not touch
    the center) is grouped under its (K, N), and each class is weighted by
    exp(beta*(xi*N + y*xi^2*K + x*(4*xi^2 + K))), the center's four bonds.

    `boundary` is either a mapping from the sites of `boundary_ring(box_side)`,
    every one and no other, to spins, or else one spin for the whole ring.
    DomainError for a box_side that is not an int or a numpy integer (a bool
    is neither) and for a bad boundary; CapacityError for a box_side other
    than 2 or 3.
    """
    if params.d != 2:
        raise DomainError("finite-volume boxes are supported for d=2 only")
    box_side = check_int("box_side", box_side, "be an integer", lambda _: True)
    if box_side not in (2, 3):
        raise CapacityError(f"box_side must be 2 or 3, got {_shown(box_side)}")
    ring = boundary_ring(box_side)
    if isinstance(boundary, Mapping):
        bmap = dict(boundary)
        missing = [site for site in ring if site not in bmap]
        if missing:
            raise DomainError(f"boundary assignment missing ring sites {missing}")
        extra = [site for site in bmap if site not in ring]
        if extra:
            raise DomainError(f"boundary assignment has sites off the ring {extra}")
        bmap = {site: check_spin(v) for site, v in bmap.items()}
    else:
        bmap = dict.fromkeys(ring, check_spin(boundary))

    ci = (box_side - 1) // 2
    center = (ci, ci)
    box = [(i, j) for i in range(box_side) for j in range(box_side)]
    around = [(ci + di, ci + dj) for di, dj in ((1, 0), (0, 1), (-1, 0), (0, -1))]
    # the center's box neighbors lead, so each of their assignments heads a
    # run of configurations of the remaining sites
    heads = [site for site in around if site in box]
    sites = heads + [site for site in box if site != center and site not in heads]
    ring_spins = [bmap[site] for site in around if site not in box]

    # A bond's energy takes one of nine values: bond[i][j] is the energy of
    # spins SPIN_VALUES[i], SPIN_VALUES[j], and configurations hold positions
    # in SPIN_VALUES.
    bond = [[pair_energy(a, b, params.x, params.y) for b in SPIN_VALUES] for a in SPIN_VALUES]
    index = {site: i for i, site in enumerate(sites)}
    inner_pairs = []
    edge_pairs = []  # (interior index, position of the boundary spin)
    for (i, j) in sites:
        for di, dj in ((1, 0), (0, 1), (-1, 0), (0, -1)):
            ni, nj = i + di, j + dj
            if (ni, nj) in index:
                if (di, dj) in ((1, 0), (0, 1)):  # count interior pairs once
                    inner_pairs.append((index[(i, j)], index[(ni, nj)]))
            elif (ni, nj) != center:
                edge_pairs.append((index[(i, j)], SPIN_VALUES.index(bmap[(ni, nj)])))

    beta, x, y = params.beta, params.x, params.y
    exps = {}  # (K, N) -> the exponents -beta*E_rest of that class
    for head in product(range(3), repeat=len(heads)):
        nbrs = [SPIN_VALUES[p] for p in head] + ring_spins
        class_exps = exps.setdefault((sum(s * s for s in nbrs), sum(nbrs)), [])
        for rest in product(range(3), repeat=len(sites) - len(heads)):
            config = head + rest
            energy = 0.0
            for a, b in inner_pairs:
                energy += bond[config[a]][config[b]]
            for a, b in edge_pairs:
                energy += bond[config[a]][b]
            class_exps.append(-beta * energy)

    # per class its top T, the sum S of exp(e - T) added in order, and per xi
    # the exponent T + beta*(xi*N + y*xi^2*K + x*(4*xi^2 + K)) of its share;
    # at beta = 0 every exponent is 0, so the sums count configurations and
    # the law is exactly uniform
    classes = []
    for (k, n), class_exps in exps.items():
        t = max(class_exps)
        s = 0.0
        for e in class_exps:
            s += math.exp(e - t)
        classes.append((s, [t + beta * (xi * n + y * xi * xi * k + x * (4 * xi * xi + k)) for xi in SPIN_VALUES]))
    top = max(max(by_xi) for _, by_xi in classes)
    sums = [0.0, 0.0, 0.0]
    for s, by_xi in classes:
        for i, e in enumerate(by_xi):
            sums[i] += s * math.exp(e - top)
    z = sums[0] + sums[1] + sums[2]  # not sum(), which compensates from Python 3.12 on
    return SpinDistribution(sums[0] / z, sums[1] / z, sums[2] / z)
