"""Exact single-site conditional distributions, total-variation distances and
the exact worst-case sensitivity over boundary pairs, by exhaustive enumeration
of the (k, #plus) classes of neighbor tails."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Mapping, NamedTuple

import numpy as np

from .errors import CapacityError, DomainError
from .model import ModelParams, NeighborConfig, check_spin, pair_energy

_NORM_TOL = 1e-12

# Unordered boundary pairs (sigma_1, sigma_1~) with sigma_1 != sigma_1~,
# normalized so |sigma_1~| >= |sigma_1| and (-1, +1) when magnitudes tie.
PAIR_ORDER = ((-1, 1), (0, 1), (0, -1))


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


class _ClassTable(NamedTuple):
    """One representative tail per (k, #plus) class and the class sizes."""

    tails: np.ndarray  # int8, shape (d(2d+1), 2d-1)
    mult: tuple[int, ...]  # exact multiplicities, summing to 3^(2d-1)


@lru_cache(maxsize=None)
def _classes(d: int) -> _ClassTable:
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
    return _ClassTable(tails, tuple(c for _, c in reps))


def _tv_table(params: ModelParams, tails: np.ndarray) -> np.ndarray:
    """TV distances, shape (len(tails), len(PAIR_ORDER)), between the origin
    conditionals for each boundary pair over each tail completion."""
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


def exact_max_tv(params: ModelParams) -> DobrushinReport:
    """Maximize the conditional TV distance over all tails and boundary pairs.

    Covers all 3^(2d-1) completions of the non-distinguished neighbors through
    their d(2d+1) (k, #plus) classes, for any d, and the three unordered pairs
    of distinguished-neighbor values; by translation and rotation symmetry this
    is the full content of the single-site condition.  The reported argmax is
    the first maximizer in balanced-ternary (tail, pair) order.
    """
    d = params.d
    tails = _classes(d).tails
    tv = _tv_table(params, tails)
    flat = int(np.argmax(tv))
    tail_i, pair_i = divmod(flat, tv.shape[1])
    s1, s1_tilde = PAIR_ORDER[pair_i]
    nb = NeighborConfig((s1, *(int(v) for v in tails[tail_i])))
    max_tv = float(tv.flat[flat])
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
