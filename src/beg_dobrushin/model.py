"""Spin-1 model basics: parameters, neighbor configurations, pair energies and
the classification of the coupling plane into its phase regions."""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np

from .errors import DegenerateGroundStateError, DomainError

SPIN_VALUES = (-1, 0, 1)
_SPIN_WANT = f"be one of {SPIN_VALUES}"

# the types check_real takes (a bool is an int, and is refused separately)
_REALS = (int, float, np.integer, np.floating)


def _shown(value) -> str:
    """repr(value), or for an int beyond the float range its size: such an
    int's repr can pass Python's limit on int-to-text conversion."""
    if isinstance(value, numbers.Integral) and abs(value) > sys.float_info.max:
        return f"an int too large for a float ({int(value).bit_length()} bits)"
    return repr(value)


def check_int(name: str, value, want: str, ok) -> int:
    """value as an int, if it is an int or a numpy integer (not a bool) for
    which ok(value) holds; DomainError "<name> must <want>, got <value!r>"
    otherwise (an int beyond the float range shown by its size)."""
    # the type test first, so ints skip the slower numbers.Integral check
    if type(value) is int or (not isinstance(value, bool) and isinstance(value, numbers.Integral)):
        as_int = int(value)
        if ok(as_int):
            return as_int
    raise DomainError(f"{name} must {want}, got {_shown(value)}")


def check_spin(value: int) -> int:
    """value as an int, if it is an int or a numpy integer (not a bool) in
    SPIN_VALUES; DomainError otherwise."""
    return check_int("spin", value, _SPIN_WANT, SPIN_VALUES.__contains__)


def check_real(name: str, value, want: str = "be finite", ok=lambda v: True) -> float:
    """value as a float, if it is an int, a float or a numpy integer or
    floating scalar (not a bool) that is finite and for which ok(float)
    holds.  TypeError "<name> must be a real number, got <value!r>" for any
    other type; DomainError "<name> must be finite, got <value!r>" for a
    non-finite value or an int beyond the float range, and "<name> must
    <want>, got <value!r>" where ok fails."""
    # the type test first, so floats skip the slower isinstance checks
    if type(value) is not float and (isinstance(value, bool) or not isinstance(value, _REALS)):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    try:
        as_float = float(value)
    except OverflowError:  # an int beyond the float range
        as_float = math.inf
    if not math.isfinite(as_float):
        raise DomainError(f"{name} must be finite, got {_shown(value)}")
    if not ok(as_float):
        raise DomainError(f"{name} must {want}, got {value!r}")
    return as_float


def check_result(value: float, what: str, where: str = "", culprit: str = "an input") -> float:
    """value, if it is finite; for a result that overflowed to inf or nan,
    DomainError "<what> is <value!r> <where>; <culprit> is too large in
    magnitude" (no space before the ";" when where is empty)."""
    if math.isfinite(value):
        return value
    said = f"{what} is {value!r} {where}".rstrip()
    raise DomainError(f"{said}; {culprit} is too large in magnitude")


def check_dimension(d: int) -> int:
    """d as an int, if it is an int or a numpy integer (not a bool) >= 1;
    DomainError otherwise."""
    return check_int("d", d, "be an integer >= 1", lambda d: d >= 1)


@dataclass(frozen=True)
class ModelParams:
    """Couplings (x, y), inverse temperature beta >= 0 and lattice dimension
    d, stored as floats and an int (see check_real and check_dimension)."""

    x: float
    y: float
    beta: float
    d: int

    def __post_init__(self):
        object.__setattr__(self, "x", check_real("x", self.x))
        object.__setattr__(self, "y", check_real("y", self.y))
        object.__setattr__(self, "beta", check_real("beta", self.beta, "be >= 0", lambda b: b >= 0))
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


def _energy(si: int, sj: int, x, y):
    """pair_energy's formula, for float or Fraction couplings."""
    return -(si * sj + y * si * si * sj * sj + x * (si * si + sj * sj))


def pair_energy(si: int, sj: int, x: float, y: float) -> float:
    """Energy of a nearest-neighbor spin pair: -(si*sj + y*si^2*sj^2 + x*(si^2+sj^2));
    DomainError for a bad spin or a non-finite x or y."""
    return _energy(check_spin(si), check_spin(sj), check_real("x", x), check_real("y", y))


def classify_region(x: float, y: float) -> RegionLabel:
    """Classify a coupling point into ferromagnetic / disordered / antiquadrupolar.

    The regions are cut by the lines 1 + 2x + y = 0, 1 + x + y = 0 and x = 0,
    and each form's sign is exact, so Boundary is the label of exactly the
    points on a line.  Inside the disordered region, the sub-label picks out
    the y-band (A: y >= 1, B: |y| < 1, C: y <= -1) of the strip x + y + 1 < 0,
    x < 0; disordered points outside that strip are tagged OutsideU.  x and y
    pass check_real.
    """
    x, y = check_real("x", x), check_real("y", y)
    # fsum rounds the exact sum once, so p and q carry its exact sign; 2 * x
    # is exact, or an infinity of the right sign
    try:
        p = math.fsum((1.0, 2 * x, y))
        q = math.fsum((1.0, x, y))
    except OverflowError:  # same-signed x and y past the float range: both have y's sign
        p = q = y
    if p > 0 and q > 0:
        return RegionLabel(MajorRegion.FERROMAGNETIC)
    if p < 0 and x < 0:
        sub = SubRegion.OUTSIDE_U
        if q < 0:  # x + y + 1 < 0 combined with x < 0 puts the point in A|B|C
            if y >= 1:
                sub = SubRegion.A
            elif y <= -1:
                sub = SubRegion.C
            else:
                sub = SubRegion.B
        return RegionLabel(MajorRegion.DISORDERED, sub)
    if q < 0 and x > 0:
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

    The six energies are exact Fractions of x and y, computed apart from
    classify_region, and only exact ties count, so DegenerateGroundStateError,
    raised when the minimizing set is not one of the three interior patterns,
    occurs exactly where classify_region gives Boundary.  x and y pass
    check_real.
    """
    fx, fy = Fraction(check_real("x", x)), Fraction(check_real("y", y))
    energies = {pair: _energy(*pair, fx, fy) for pair in combinations_with_replacement(SPIN_VALUES, 2)}
    emin = min(energies.values())
    ground = frozenset(p for p, e in energies.items() if e == emin)
    if ground not in _GROUND_SETS:
        raise DegenerateGroundStateError(
            f"ambiguous minimum-energy pair set {sorted(ground)} at (x={x}, y={y})"
        )
    return ground
