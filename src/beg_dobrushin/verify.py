"""Grid certification harness: checks the exact enumeration against every
analytic bound over parameter/temperature grids, and locates temperatures
where the uniqueness condition fails."""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field
from enum import Enum

import numpy as np

from . import bounds, kernel
from .errors import DomainError
from .kernel import PAIR_ORDER
from .model import STRIP_BANDS, ModelParams, check_dimension, check_finite, check_int, classify_region

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
        points = []
        for point in self.points:
            try:
                x, y = point
            except (TypeError, ValueError):
                raise DomainError(f"sweep point must be an (x, y) pair, got {point!r}") from None
            points.append((float(check_finite("point coordinate", x)), float(check_finite("point coordinate", y))))
        object.__setattr__(self, "points", tuple(points))
        grid = tuple(float(check_finite("beta grid value", b)) for b in self.beta_grid)
        object.__setattr__(self, "beta_grid", grid)
        checks = frozenset(self.checks)
        for check in checks:
            if not isinstance(check, Check):
                raise TypeError(f"sweep checks must be Check members, got {check!r}")
        object.__setattr__(self, "checks", checks)
        object.__setattr__(self, "d", check_dimension(self.d))
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


@dataclass
class SweepReport:
    spec: SweepSpec
    checks: list[CheckResult]
    git_rev: str | None = None  # set by callers that know the source revision

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        """The report as JSON: `meta` holds the sweep's grid and points, and
        each check its dataclass fields (witnesses included) and its verdict
        as `pass`."""
        spec = self.spec
        meta = {"d": spec.d, "grid": spec.beta_grid, "points": spec.points, "git_rev": self.git_rev}
        checks = [{**asdict(c), "pass": c.passed} for c in self.checks]
        return json.dumps({"meta": meta, "checks": checks}, sort_keys=True, indent=2, allow_nan=False)


def _sweep_point(spec: SweepSpec, points: tuple[tuple[float, float], ...], results: dict[Check, CheckResult]) -> None:
    """Record every requested check at a block of points, over the whole beta
    grid at once, into the sweep's results: one TV table serves the block,
    and one Lemma 1 table and one case_bounds call its strip points if bound
    checks are requested (each point is then classified once)."""
    d = spec.d
    requested_bound_checks = spec.checks & BOUND_CHECKS
    bands = [classify_region(x, y).sub if requested_bound_checks else None for x, y in points]
    in_strip = [band in STRIP_BANDS for band in bands]
    strip = [point for point, keep in zip(points, in_strip) if keep]
    strip_bands = [band for band in bands if band in STRIP_BANDS]
    for c in requested_bound_checks:
        results[c].unclassifiable += [point for point, keep in zip(points, in_strip) if not keep]
    if not spec.beta_grid:
        return
    mult = kernel.classes(d).mult
    betas = np.array(spec.beta_grid)
    tv = kernel.tv_table(d, *(np.array(c)[:, None, None] for c in zip(*points)), betas)

    def record(check: Check, pts, slack: np.ndarray, cell, weights=None) -> None:
        """Record a (point, beta, ...) slack array over pts as one cell at a time
        in index order would: the worst slack moves only to a strictly smaller
        first minimum (by argmin: numpy's min may return a later zero of the
        other sign), a failing index adds weights[i] of its axis-2 index i to
        fail_count (1 without weights), and witnesses are kept up to
        MAX_WITNESSES.  cell(index) gives a failing index's (tail, pair).  The
        first point whose first minimum is not finite is a DomainError."""
        res = results[check]
        rows = slack.reshape(len(pts), -1)
        lows = rows[np.arange(len(rows)), rows.argmin(axis=1)]
        non_finite = np.flatnonzero(~np.isfinite(lows))
        if len(non_finite):
            i = non_finite[0]
            raise DomainError(
                f"{check.value} slack is {float(lows[i])!r} at point {pts[i]}; the point is too large in magnitude"
            )
        worst = float(lows[lows.argmin()])
        if res.worst_slack is None or worst < res.worst_slack:
            res.worst_slack = worst
        if worst < -SLACK_TOL:
            bad = np.argwhere(slack < -SLACK_TOL)
            res.fail_count += len(bad) if weights is None else sum(weights[i] for i in bad[:, 2].tolist())
            room = MAX_WITNESSES - len(res.witnesses)
            res.witnesses += [
                Witness(pts[idx[0]], spec.beta_grid[idx[1]], *cell(idx), float(slack[tuple(idx)]))
                for idx in bad[:room].tolist()
            ]

    def table_cell(cols):
        """cell() of a (point, beta, class, pair) table whose pair axis holds
        the PAIR_ORDER pairs cols."""
        return lambda idx: (kernel.class_tail(d, idx[2]), PAIR_ORDER[cols[idx[3]]])

    if strip:
        l1 = kernel.lemma1_table(d, *zip(*strip), betas)
        # per-(point, beta) case bounds, broadcast over (class, pair)
        lemma2, lemma3, t1, r = bounds.case_bounds(d, strip, strip_bands, betas)
        l2 = lemma2[:, :, None, None]
        l3 = lemma3[:, :, None, None]
        # a failing class cell stands for every tail of its class
        if Check.TV_VS_LEMMA1 in spec.checks:
            record(Check.TV_VS_LEMMA1, strip, l1 - tv[np.array(in_strip)], table_cell((0, 1, 2)), mult)
        if Check.LEMMA1_VS_LEMMA2 in spec.checks:
            # the single equal-magnitude pair is PAIR_ORDER[0] = (-1, +1)
            record(Check.LEMMA1_VS_LEMMA2, strip, l2 - l1[..., :1], table_cell((0,)), mult)
        if Check.LEMMA1_VS_LEMMA3 in spec.checks:
            record(Check.LEMMA1_VS_LEMMA3, strip, l3 - l1[..., 1:], table_cell((1, 2)), mult)
        if Check.ALL_VS_THEOREM1 in spec.checks:
            # per (point, beta): Theorem 1 - Lemma 2, Theorem 1 - Lemma 3, r - Theorem 1
            slack = np.stack((t1 - lemma2, t1 - lemma3, r[:, None] - t1), axis=2)
            record(Check.ALL_VS_THEOREM1, strip, slack, lambda idx: (None, None))
    if Check.DOBRUSHIN_SATISFIED in spec.checks:
        top, tail_i, pair_i = (a.reshape(tv.shape[:2]) for a in kernel.first_max(tv.reshape(-1, *tv.shape[2:])))
        record(
            Check.DOBRUSHIN_SATISFIED,
            points,
            1.0 / (2 * d) - top,
            lambda idx: (kernel.class_tail(d, tail_i[idx[0], idx[1]]), PAIR_ORDER[pair_i[idx[0], idx[1]]]),
        )


def run_sweep(spec: SweepSpec) -> SweepReport:
    """Run every requested check at every (point, beta) grid cell.

    Enumerates every tail class and boundary pair per cell; the points are
    taken in consecutive blocks of kernel.block_points, each recorded by one
    _sweep_point call (one TV table, one Lemma 1 table and one case_bounds
    call) into the one result per check, in point order.  The report's
    git_rev is None: this function cannot know which source revision it
    runs, so a caller that does may set it.
    """
    results = {c: CheckResult(name=c.value) for c in spec.checks}
    step = kernel.block_points(spec.d, len(spec.beta_grid))
    for start in range(0, len(spec.points), step):
        _sweep_point(spec, spec.points[start : start + step], results)
    ordered = [results[c] for c in sorted(spec.checks, key=lambda c: c.value)]
    return SweepReport(spec=spec, checks=ordered)


def find_failure_beta(d: int, x: float, y: float) -> float | None:
    """Smallest temperature (refined to 1e-6 in beta) where the exact
    single-site condition fails, or None if it holds at every beta of the
    scan grid: 120 geometric betas on [1e-3, 100].

    The condition is evaluated on the whole grid at once; the first failing
    grid beta is then refined by bisection from the grid beta before it.
    The bisection is kernel.bisect with one kernel block per round: it
    evaluates every midpoint the next levels could probe, then walks those
    levels.  Kernel values do not depend on batching, so the result is a
    one-probe-per-step loop's, bit for bit.  Raises DomainError for a bad d,
    x or y, and if a TV value the search reads is not finite (the point is
    too large in magnitude).  Every midpoint lies below the failing grid
    beta, whose TV was read as finite, and a TV overflows only from some
    beta on, so checking each midpoint raises nothing the walk would not.
    """
    grid = np.geomspace(1e-3, 100.0, 120)
    d = ModelParams(x=x, y=y, beta=float(grid[0]), d=d).d
    threshold = 1.0 / (2 * d)
    top = kernel.max_tv(d, x, y, grid)[0]
    # the grid is read in order up to its first failing or non-finite value
    stop = np.flatnonzero(~(top < threshold))
    if not len(stop):
        return None
    i = int(stop[0])
    kernel.finite_tv(float(top[i]), d, x, y, float(grid[i]))
    if i == 0:
        return float(grid[0])
    # levels per round: the largest L whose 2^L - 1 midpoints fit one block
    levels = (kernel.block_betas(d) + 1).bit_length() - 1

    def fails(mids: list[float]) -> list[bool]:
        tv = kernel.max_tv(d, x, y, np.array(mids))[0].tolist()
        return [kernel.finite_tv(t, d, x, y, m) >= threshold for t, m in zip(tv, mids)]

    return kernel.bisect(fails, float(grid[i - 1]), float(grid[i]), 1e-6, levels)[1]


def sample_strip_points(points_per_region: int, seed: int = 2026) -> tuple[tuple[float, float], ...]:
    """Deterministic sample of coupling points, `points_per_region` in each of
    the three y-bands of the strip x + y + 1 < 0, x < 0; DomainError unless
    points_per_region is an integer >= 1."""
    points_per_region = check_int("points_per_region", points_per_region, "be an integer >= 1", lambda n: n >= 1)
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


def default_certification_spec(d: int, points_per_region: int = 20, seed: int = 2026) -> SweepSpec:
    """The standard domination-certification sweep for one dimension: the
    bound checks on the default beta grid, at points_per_region (an integer
    >= 1) sample points in each band."""
    return SweepSpec(
        d=d,
        points=sample_strip_points(points_per_region, seed=seed),
        beta_grid=log_beta_grid(),
        checks=BOUND_CHECKS,
    )
