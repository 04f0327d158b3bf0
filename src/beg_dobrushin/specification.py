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
from .model import ModelParams, NeighborConfig, check_spin, pair_energy

_NORM_TOL = 1e-12


@dataclass(frozen=True)
class SpinDistribution:
    """Probability vector over spins (-1, 0, +1)."""

    p_minus: float
    p_zero: float
    p_plus: float

    def __post_init__(self):
        total = self.p_minus + self.p_zero + self.p_plus
        if abs(total - 1.0) > _NORM_TOL:
            raise DomainError(f"probabilities sum to {total}, not 1")
        for p in (self.p_minus, self.p_zero, self.p_plus):
            if not -_NORM_TOL <= p <= 1 + _NORM_TOL:
                raise DomainError(f"probability {p} outside [0, 1]")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.p_minus, self.p_zero, self.p_plus)

    def prob(self, spin: int) -> float:
        check_spin(spin)
        return self.as_tuple()[spin + 1]

    def reversed(self) -> "SpinDistribution":
        """Distribution of the flipped spin (-xi)."""
        return SpinDistribution(self.p_plus, self.p_zero, self.p_minus)


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
    z = sum(weights)
    return SpinDistribution(weights[0] / z, weights[1] / z, weights[2] / z)


def total_variation(p: SpinDistribution, q: SpinDistribution) -> float:
    """Half the L1 distance between two spin distributions."""
    return 0.5 * sum(abs(a - b) for a, b in zip(p.as_tuple(), q.as_tuple()))


def exact_max_tv(params: ModelParams) -> DobrushinReport:
    """Maximize the conditional TV distance over all tails and boundary pairs.

    Covers all 3^(2d-1) completions of the non-distinguished neighbors through
    their d(2d+1) (k, #plus) classes, for any d, and the three unordered pairs
    of distinguished-neighbor values; by translation and rotation symmetry this
    is the full content of the single-site condition.  The reported argmax is
    the first maximizer in balanced-ternary (tail, pair) order.  Raises
    DomainError when the TV overflows to nan (the point is too large in
    magnitude).
    """
    d = params.d
    top, tail_i, pair_i = kernel.max_tv(d, params.x, params.y, np.array([params.beta]))
    max_tv = kernel.finite_tv(float(top[0]), d, params.x, params.y, params.beta)
    s1, s1_tilde = PAIR_ORDER[int(pair_i[0])]
    nb = NeighborConfig((s1, *(int(v) for v in kernel.classes(d).tails[int(tail_i[0])])))
    return DobrushinReport(
        max_tv=max_tv,
        argmax_pair=(nb, s1_tilde),
        row_sum=2 * d * max_tv,
        satisfied=max_tv < 1 / (2 * d),
    )


def _box_sites(box_side: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(box_side) for j in range(box_side)]


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

    `boundary` is either a single spin (uniform boundary) or a mapping from
    ring sites to spins covering every site of `boundary_ring(box_side)`.
    """
    if params.d != 2:
        raise DomainError("finite-volume boxes are supported for d=2 only")
    if box_side not in (2, 3):
        raise CapacityError(f"box_side must be 2 or 3, got {box_side}")
    sites = _box_sites(box_side)
    ring = boundary_ring(box_side)
    if isinstance(boundary, int):
        check_spin(boundary)
        bmap = {site: boundary for site in ring}
    else:
        bmap = dict(boundary)
        missing = [site for site in ring if site not in bmap]
        if missing:
            raise DomainError(f"boundary assignment missing ring sites {missing}")
        for v in bmap.values():
            check_spin(v)

    index = {site: i for i, site in enumerate(sites)}
    inner_pairs = []
    edge_pairs = []  # (interior index, boundary spin)
    for (i, j) in sites:
        for di, dj in ((1, 0), (0, 1), (-1, 0), (0, -1)):
            ni, nj = i + di, j + dj
            if (ni, nj) in index:
                if (di, dj) in ((1, 0), (0, 1)):  # count interior pairs once
                    inner_pairs.append((index[(i, j)], index[(ni, nj)]))
            else:
                edge_pairs.append((index[(i, j)], bmap[(ni, nj)]))

    center = index[((box_side - 1) // 2, (box_side - 1) // 2)]
    exps = []
    centers = []
    for config in product((-1, 0, 1), repeat=len(sites)):
        energy = 0.0
        for a, b in inner_pairs:
            energy += pair_energy(config[a], config[b], params.x, params.y)
        for a, b in edge_pairs:
            energy += pair_energy(config[a], b, params.x, params.y)
        exps.append(-params.beta * energy)
        centers.append(config[center])
    top = max(exps)
    sums = [0.0, 0.0, 0.0]
    for e, c in zip(exps, centers):
        sums[c + 1] += math.exp(e - top)
    z = sum(sums)
    return SpinDistribution(sums[0] / z, sums[1] / z, sums[2] / z)
