"""Grid certification harness: checks the exact enumeration against every
analytic bound over parameter/temperature grids, and locates temperatures
where the uniqueness condition fails."""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import kernel
from .errors import DomainError
from .kernel import PAIR_ORDER
from .model import ModelParams, SubRegion, check_dimension, check_finite, classify_region

SLACK_TOL = 1e-12
MAX_WITNESSES = 100


class Check(Enum):
    TV_VS_LEMMA1 = "TVvsLemma1"
    LEMMA1_VS_LEMMA2 = "Lemma1vsLemma2"
    LEMMA1_VS_LEMMA3 = "Lemma1vsLemma3"
    ALL_VS_THEOREM1 = "AllvsTheorem1"
    DOBRUSHIN_SATISFIED = "DobrushinSatisfied"


BOUND_CHECKS = frozenset(
    {Check.TV_VS_LEMMA1, Check.LEMMA1_VS_LEMMA2, Check.LEMMA1_VS_LEMMA3, Check.ALL_VS_THEOREM1}
)
ALL_CHECKS = BOUND_CHECKS | {Check.DOBRUSHIN_SATISFIED}


@dataclass(frozen=True)
class SweepSpec:
    d: int
    points: tuple[tuple[float, float], ...]
    beta_grid: tuple[float, ...]
    checks: frozenset[Check]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple((float(x), float(y)) for x, y in self.points))
        grid = tuple(float(b) for b in self.beta_grid)
        object.__setattr__(self, "beta_grid", grid)
        object.__setattr__(self, "checks", frozenset(self.checks))
        check_dimension(self.d)
        for x, y in self.points:
            check_finite("point coordinate", x)
            check_finite("point coordinate", y)
        for b in grid:
            check_finite("beta grid value", b)
        if any(b < 0 for b in grid):
            raise DomainError("beta grid values must be >= 0")
        if any(b2 <= b1 for b1, b2 in zip(grid, grid[1:])):
            raise DomainError("beta grid must be strictly increasing")


@dataclass(frozen=True)
class Witness:
    point: tuple[float, float]
    beta: float
    tail: tuple[int, ...] | None
    pair: tuple[int, int] | None
    slack: float

    def to_dict(self) -> dict:
        return {
            "point": list(self.point),
            "beta": self.beta,
            "tail": None if self.tail is None else list(self.tail),
            "pair": None if self.pair is None else list(self.pair),
            "slack": self.slack,
        }


@dataclass
class CheckResult:
    name: str
    worst_slack: float | None = None
    witnesses: list[Witness] = field(default_factory=list)
    unclassifiable: list[tuple[float, float]] = field(default_factory=list)
    fail_count: int = 0

    @property
    def passed(self) -> bool:
        return self.worst_slack is None or self.worst_slack >= -SLACK_TOL

    def merge(self, other: "CheckResult") -> None:
        if other.worst_slack is not None:
            if self.worst_slack is None or other.worst_slack < self.worst_slack:
                self.worst_slack = other.worst_slack
        self.fail_count += other.fail_count
        for w in other.witnesses:
            if len(self.witnesses) < MAX_WITNESSES:
                self.witnesses.append(w)
        self.unclassifiable.extend(other.unclassifiable)


@dataclass
class SweepReport:
    spec: SweepSpec
    checks: list[CheckResult]
    git_rev: str | None = None  # set by callers that know the source revision

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "meta": {
                "d": self.spec.d,
                "grid": list(self.spec.beta_grid),
                "points": [list(p) for p in self.spec.points],
                "git_rev": self.git_rev,
            },
            "checks": [
                {
                    "name": c.name,
                    "pass": c.passed,
                    "worst_slack": c.worst_slack,
                    "fail_count": c.fail_count,
                    "unclassifiable": [list(p) for p in c.unclassifiable],
                    "witnesses": [w.to_dict() for w in c.witnesses],
                }
                for c in self.checks
            ],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent, allow_nan=False)


def _sweep_point(spec: SweepSpec, point: tuple[float, float]) -> dict[Check, CheckResult]:
    """Every requested check at one point, over the whole beta grid at once."""
    d = spec.d
    x, y = point
    results = {c: CheckResult(name=c.value) for c in spec.checks}
    in_strip = classify_region(x, y).sub in (SubRegion.A, SubRegion.B, SubRegion.C)
    requested_bound_checks = spec.checks & BOUND_CHECKS
    if requested_bound_checks and not in_strip:
        for c in requested_bound_checks:
            results[c].unclassifiable.append(point)
    if not spec.beta_grid:
        return results
    tails, mult = kernel.classes(d)
    betas = np.array(spec.beta_grid)
    tv = kernel.tv_table(d, x, y, betas)

    def tail_of(i: int) -> tuple[int, ...]:
        return tuple(int(v) for v in tails[i])

    def record(check: Check, slack: np.ndarray, cell, weights=None) -> None:
        """Record a slack array whose leading axis is beta.  The worst slack is
        its first minimum (by argmin: numpy's min may return a later zero of
        the other sign) and witnesses go in index order (beta-major), as one
        cell at a time would record them.  cell(index) gives a failing index's
        (tail, pair); weights[i] counts the tails that index i of axis 1
        stands for (each index counts once without weights).  A non-finite
        worst slack (argmin finds a nan first) is a DomainError."""
        res = results[check]
        flat = slack.ravel()
        res.worst_slack = float(flat[flat.argmin()])
        if not math.isfinite(res.worst_slack):
            raise DomainError(
                f"{check.value} slack is {res.worst_slack!r} at point {point}; "
                "the point is too large in magnitude"
            )
        if res.worst_slack < -SLACK_TOL:
            bad = np.argwhere(slack < -SLACK_TOL)
            res.fail_count = len(bad) if weights is None else sum(weights[i] for i in bad[:, 1].tolist())
            res.witnesses = [
                Witness(point, spec.beta_grid[idx[0]], *cell(idx), float(slack[tuple(idx)]))
                for idx in bad[:MAX_WITNESSES].tolist()
            ]

    def table_cell(cols):
        """cell() of a (beta, class, pair) table whose pair axis holds the
        PAIR_ORDER pairs cols."""
        return lambda idx: (tail_of(idx[1]), PAIR_ORDER[cols[idx[2]]])

    if requested_bound_checks and in_strip:
        l1 = kernel.lemma1_table(d, x, y, betas)
        cases = kernel.case_bounds(d, x, y, betas)
        # per-beta case bounds, broadcast over (class, pair)
        l2 = cases.lemma2[:, None, None]
        l3 = cases.lemma3[:, None, None]
        # a failing class cell stands for every tail of its class
        if Check.TV_VS_LEMMA1 in spec.checks:
            record(Check.TV_VS_LEMMA1, l1 - tv, table_cell((0, 1, 2)), mult)
        if Check.LEMMA1_VS_LEMMA2 in spec.checks:
            # the single equal-magnitude pair is PAIR_ORDER[0] = (-1, +1)
            record(Check.LEMMA1_VS_LEMMA2, l2 - l1[:, :, :1], table_cell((0,)), mult)
        if Check.LEMMA1_VS_LEMMA3 in spec.checks:
            record(Check.LEMMA1_VS_LEMMA3, l3 - l1[:, :, 1:], table_cell((1, 2)), mult)
        if Check.ALL_VS_THEOREM1 in spec.checks:
            # per beta: Theorem 1 - Lemma 2, Theorem 1 - Lemma 3, r - Theorem 1
            t1 = cases.theorem1
            slack = np.stack((t1 - cases.lemma2, t1 - cases.lemma3, cases.r - t1), axis=1)
            record(Check.ALL_VS_THEOREM1, slack, lambda idx: (None, None))
    if Check.DOBRUSHIN_SATISFIED in spec.checks:
        top, tail_i, pair_i = kernel.first_max(tv)
        record(
            Check.DOBRUSHIN_SATISFIED,
            1.0 / (2 * d) - top,
            lambda idx: (tail_of(tail_i[idx[0]]), PAIR_ORDER[pair_i[idx[0]]]),
        )
    return results


def run_sweep(spec: SweepSpec) -> SweepReport:
    """Run every requested check at every (point, beta) grid cell.

    Enumerates every tail class and boundary pair per cell; results merge in
    point order.  The report's git_rev is None: this function cannot know
    which source revision it runs, so a caller that does may set it.
    """
    merged = {c: CheckResult(name=c.value) for c in spec.checks}
    for point in spec.points:
        for c, res in _sweep_point(spec, point).items():
            merged[c].merge(res)
    ordered = [merged[c] for c in sorted(spec.checks, key=lambda c: c.value)]
    return SweepReport(spec=spec, checks=ordered)


def find_failure_beta(
    d: int,
    x: float,
    y: float,
    beta_min: float = 1e-3,
    beta_max: float = 100.0,
    n_grid: int = 120,
) -> float | None:
    """Smallest temperature (refined to 1e-6 in beta) where the exact
    single-site condition fails, or None if it holds on the whole scan range.

    The condition is evaluated on a geometric grid of n_grid betas at once;
    the first failing grid beta is then refined by bisection from the grid
    beta before it.  The bisection is batched: each round evaluates, in one
    kernel block, every midpoint the next levels could probe (the whole
    subtree of brackets), then walks those levels.  Each midpoint is formed
    as in a one-probe-per-step loop and kernel values do not depend on
    batching, so the result is that loop's, bit for bit.  The grid needs
    n_grid >= 2 and 0 < beta_min < beta_max.  Raises DomainError if a TV
    value the search reads is not finite (the point is too large in
    magnitude).
    """
    # the grid lies between its endpoints, so checking them checks it all
    ModelParams(x=x, y=y, beta=beta_min, d=d)
    ModelParams(x=x, y=y, beta=beta_max, d=d)
    if n_grid < 2:
        raise DomainError(f"n_grid must be >= 2, got {n_grid}")
    if not 0 < beta_min < beta_max:
        raise DomainError(f"need 0 < beta_min < beta_max, got beta_min={beta_min}, beta_max={beta_max}")
    threshold = 1.0 / (2 * d)

    grid = np.geomspace(beta_min, beta_max, n_grid)
    top = kernel.max_tv(d, x, y, grid)[0]
    # the grid is read in order up to its first failing or non-finite value
    stop = np.flatnonzero(~(top < threshold))
    if not len(stop):
        return None
    i = int(stop[0])
    kernel.finite_tv(float(top[i]), d, x, y, float(grid[i]))
    if i == 0:
        return float(grid[0])
    lo, hi = float(grid[i - 1]), float(grid[i])
    # levels per round: the largest L whose 2^L - 1 midpoints fit one block
    levels = (kernel.block_betas(d) + 1).bit_length() - 1
    while hi - lo > 1e-6:
        # midpoints of the depth-`levels` bracket tree in heap order: node j's
        # children are 2j + 1 (its bracket's lower half, taken when mid fails)
        # and 2j + 2 (the upper half)
        brackets, mids = [(lo, hi)], []
        for j in range(2**levels - 1):
            a, b = brackets[j]
            mids.append(0.5 * (a + b))
            brackets += [(a, mids[j]), (mids[j], b)]
        tv = kernel.max_tv(d, x, y, np.array(mids))[0].tolist()
        j = 0
        for _ in range(levels):
            if not hi - lo > 1e-6:
                break
            if kernel.finite_tv(tv[j], d, x, y, mids[j]) >= threshold:
                hi, j = mids[j], 2 * j + 1
            else:
                lo, j = mids[j], 2 * j + 2
    return hi


def sample_strip_points(points_per_region: int, seed: int = 2026) -> tuple[tuple[float, float], ...]:
    """Deterministic sample of coupling points, `points_per_region` in each of
    the three y-bands of the strip x + y + 1 < 0, x < 0."""
    rng = random.Random(seed)
    pts: list[tuple[float, float]] = []
    for _ in range(points_per_region):  # A: y >= 1
        y = rng.uniform(1.0, 4.0)
        pts.append((-(y + 1) - rng.uniform(0.1, 6.0), y))
    for _ in range(points_per_region):  # B: |y| < 1
        y = rng.uniform(-0.95, 0.95)
        pts.append((-(y + 1) - rng.uniform(0.1, 6.0), y))
    for _ in range(points_per_region):  # C: y <= -1
        y = rng.uniform(-5.0, -1.0)
        pts.append((-rng.uniform(0.1, 6.0), y))
    return tuple(pts)


def log_beta_grid(beta_min: float = 1e-3, beta_max: float = 50.0, n: int = 40) -> tuple[float, ...]:
    return tuple(float(b) for b in np.geomspace(beta_min, beta_max, n))


def default_certification_spec(
    d: int,
    points_per_region: int = 20,
    beta_grid: tuple[float, ...] | None = None,
    seed: int = 2026,
    checks: frozenset[Check] = BOUND_CHECKS,
) -> SweepSpec:
    """The standard domination-certification sweep for one dimension."""
    return SweepSpec(
        d=d,
        points=sample_strip_points(points_per_region, seed=seed),
        beta_grid=beta_grid if beta_grid is not None else log_beta_grid(),
        checks=checks,
    )
