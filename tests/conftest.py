import random
from functools import lru_cache

import numpy as np
import pytest

from beg_dobrushin import NeighborConfig, conditional_distribution, total_variation
from beg_dobrushin.model import MajorRegion


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


def class_loop_max_tv(params) -> float:
    """Scalar oracle: the largest conditional TV distance over one
    representative tail per (k, #plus) class and every boundary pair."""
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


@pytest.fixture
def rng():
    return random.Random(20260824)
