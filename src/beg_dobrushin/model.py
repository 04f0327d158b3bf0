"""Spin-1 model basics: parameters, neighbor configurations, pair energies and
the classification of the coupling plane into its phase regions."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations_with_replacement

from .errors import DegenerateGroundStateError, DomainError

SPIN_VALUES = (-1, 0, 1)
_SPIN_WANT = f"be one of {SPIN_VALUES}"

# Points closer than this to a defining hyperplane are labeled Boundary.
BOUNDARY_TOL = 1e-12

_ENERGY_TIE_TOL = 1e-12


def check_int(name: str, value, want: str, ok) -> int:
    """value as an int, if it is an int or a numpy integer (not a bool) for
    which ok(value) holds; DomainError "<name> must <want>, got <value!r>"
    otherwise."""
    # the type test first, so ints skip the slower numbers.Integral check
    if type(value) is int or (not isinstance(value, bool) and isinstance(value, numbers.Integral)):
        as_int = int(value)
        if ok(as_int):
            return as_int
    raise DomainError(f"{name} must {want}, got {value!r}")


def check_spin(value: int) -> int:
    """value as an int, if it is an int or a numpy integer (not a bool) in
    SPIN_VALUES; DomainError otherwise."""
    return check_int("spin", value, _SPIN_WANT, SPIN_VALUES.__contains__)


def check_finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


def check_dimension(d: int) -> int:
    """d as an int, if it is an int or a numpy integer (not a bool) >= 1;
    DomainError otherwise."""
    return check_int("d", d, "be an integer >= 1", lambda d: d >= 1)


@dataclass(frozen=True)
class ModelParams:
    """Couplings (x, y), inverse temperature beta and lattice dimension d."""

    x: float
    y: float
    beta: float
    d: int

    def __post_init__(self):
        for name in ("x", "y", "beta"):
            check_finite(name, getattr(self, name))
        if self.beta < 0:
            raise DomainError(f"beta must be >= 0, got {self.beta}")
        object.__setattr__(self, "d", check_dimension(self.d))


@dataclass(frozen=True)
class NeighborConfig:
    """The 2d neighbor spins of the origin; index 0 is the distinguished neighbor.

    Spins are stored as ints (see check_spin), with three cached statistics:
      k        -- number of nonzero spins among the non-distinguished neighbors
                  (the k of theta_sum_bound and psi_bound)
      n        -- sum of the non-distinguished neighbor spins
      sigma_sq -- sum of squares over all 2d spins, which the conditional law,
                  theta and psi read
    """

    spins: tuple[int, ...]
    k: int = field(init=False)
    n: int = field(init=False)
    sigma_sq: int = field(init=False)

    def __post_init__(self):
        spins = tuple(self.spins)
        if len(spins) < 2 or len(spins) % 2 != 0:
            raise DomainError(
                f"need an even number (2d) of neighbor spins, got {len(spins)}"
            )
        spins = tuple(check_spin(s) for s in spins)
        object.__setattr__(self, "spins", spins)
        tail = spins[1:]
        object.__setattr__(self, "k", sum(1 for s in tail if s != 0))
        object.__setattr__(self, "n", sum(tail))
        object.__setattr__(self, "sigma_sq", sum(s * s for s in spins))

    @property
    def d(self) -> int:
        return len(self.spins) // 2

    def with_distinguished(self, spin: int) -> "NeighborConfig":
        return NeighborConfig((spin,) + self.spins[1:])


class MajorRegion(Enum):
    FERROMAGNETIC = "Ferromagnetic"
    DISORDERED = "Disordered"
    ANTIQUADRUPOLAR = "Antiquadrupolar"
    BOUNDARY = "Boundary"


class SubRegion(Enum):
    A = "A"
    B = "B"
    C = "C"
    OUTSIDE_U = "OutsideU"


# The y-bands of the strip x + y + 1 < 0, x < 0, where the bounds hold.
STRIP_BANDS = (SubRegion.A, SubRegion.B, SubRegion.C)


@dataclass(frozen=True)
class RegionLabel:
    major: MajorRegion
    sub: SubRegion | None = None


def pair_energy(si: int, sj: int, x: float, y: float) -> float:
    """Energy of a nearest-neighbor spin pair: -(si*sj + y*si^2*sj^2 + x*(si^2+sj^2));
    DomainError for a bad spin or a non-finite x or y."""
    si, sj = check_spin(si), check_spin(sj)
    x, y = check_finite("x", x), check_finite("y", y)
    return -(si * sj + y * si * si * sj * sj + x * (si * si + sj * sj))


def classify_region(x: float, y: float) -> RegionLabel:
    """Classify a coupling point into ferromagnetic / disordered / antiquadrupolar.

    Points within BOUNDARY_TOL of a defining hyperplane get the Boundary label.
    Inside the disordered region, the sub-label picks out the y-band (A: y >= 1,
    B: |y| < 1, C: y <= -1) of the strip x + y + 1 < 0, x < 0; disordered points
    outside that strip are tagged OutsideU.  Non-finite x or y is a DomainError.
    """
    check_finite("x", x)
    check_finite("y", y)
    p = 1 + 2 * x + y
    q = 1 + x + y
    if p > BOUNDARY_TOL and q > BOUNDARY_TOL:
        return RegionLabel(MajorRegion.FERROMAGNETIC)
    if p < -BOUNDARY_TOL and x < -BOUNDARY_TOL:
        sub = SubRegion.OUTSIDE_U
        if q < -BOUNDARY_TOL:  # x + y + 1 < 0 combined with x < 0 puts the point in A|B|C
            if y >= 1:
                sub = SubRegion.A
            elif y <= -1:
                sub = SubRegion.C
            else:
                sub = SubRegion.B
        return RegionLabel(MajorRegion.DISORDERED, sub)
    if q < -BOUNDARY_TOL and x > BOUNDARY_TOL:
        return RegionLabel(MajorRegion.ANTIQUADRUPOLAR, SubRegion.OUTSIDE_U)
    return RegionLabel(MajorRegion.BOUNDARY)


# Ground pair sets per major region, as unordered (si <= sj) pairs.
_GROUND_SETS = {
    frozenset({(-1, -1), (1, 1)}): MajorRegion.FERROMAGNETIC,
    frozenset({(0, 0)}): MajorRegion.DISORDERED,
    frozenset({(-1, 0), (0, 1)}): MajorRegion.ANTIQUADRUPOLAR,
}


def ground_pairs(x: float, y: float) -> frozenset[tuple[int, int]]:
    """Minimum-energy unordered spin pairs at couplings (x, y).

    Raises DegenerateGroundStateError when the minimizing set is not one of the
    three interior patterns (which happens exactly on region boundaries).
    """
    energies = {
        pair: pair_energy(pair[0], pair[1], x, y)
        for pair in combinations_with_replacement(SPIN_VALUES, 2)
    }
    emin = min(energies.values())
    ground = frozenset(p for p, e in energies.items() if e - emin <= _ENERGY_TIE_TOL)
    if ground not in _GROUND_SETS:
        raise DegenerateGroundStateError(
            f"ambiguous minimum-energy pair set {sorted(ground)} at (x={x}, y={y})"
        )
    return ground
