"""Grid certification harness: checks the exact enumeration against every
analytic bound over parameter/temperature grids, and locates temperatures
where the uniqueness condition fails."""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field
from enum import Enum

import numpy as np

from . import bounds, kernel, specification
from .errors import DomainError
from .kernel import PAIR_ORDER
from .model import STRIP_BANDS, ModelParams, check_dimension, check_int, check_real, check_result, classify_region

SLACK_TOL = 1e-12
MAX_WITNESSES = 100


def log_beta_grid(beta_min: float = 1e-3, beta_max: float = 50.0, n: int = 40) -> tuple[float, ...]:
    return tuple(float(b) for b in np.geomspace(beta_min, beta_max, n))


# find_failure_beta's scan grid, built once and read-only
_FAILURE_GRID = np.array(log_beta_grid(1e-3, 100.0, 120))
_FAILURE_GRID.flags.writeable = False


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
            points.append((check_real("point coordinate", x), check_real("point coordinate", y)))
        object.__setattr__(self, "points", tuple(points))
        grid = tuple(check_real("beta grid value", b, "be >= 0", lambda b: b >= 0) for b in self.beta_grid)
        object.__setattr__(self, "beta_grid", grid)
        checks = frozenset(self.checks)
        for check in checks:
            if not isinstance(check, Check):
                raise TypeError(f"sweep checks must be Check members, got {check!r}")
        object.__setattr__(self, "checks", checks)
        object.__setattr__(self, "d", check_dimension(self.d))
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
    strip = [i for i, band in enumerate(bands) if band in STRIP_BANDS]
    for c in requested_bound_checks:
        results[c].unclassifiable += [point for point, band in zip(points, bands) if band not in STRIP_BANDS]
    if not spec.beta_grid:
        return
    mult = kernel.classes(d).mult
    betas = np.array(spec.beta_grid)
    tv = kernel.tv_table(d, *zip(*points), betas)

    def record(check: Check, rows, slack: np.ndarray, cell, weights=None) -> None:
        """Record a (point, beta, ...) slack array over the points at block
        positions rows as one cell at a time in index order would: the worst
        slack moves only to a strictly smaller first minimum (by argmin:
        numpy's min may return a later zero of the other sign), a failing
        index adds weights[i] of its axis-2 index i to fail_count (1 without
        weights), and witnesses are kept up to MAX_WITNESSES.  cell(index)
        gives a failing index's (tail, pair).  The first non-finite first
        minimum is a DomainError naming its point and beta."""
        res = results[check]
        flat = slack.reshape(len(rows), -1)
        at = flat.argmin(axis=1)
        lows = flat[np.arange(len(flat)), at]
        non_finite = np.flatnonzero(~np.isfinite(lows))
        if len(non_finite):
            i = non_finite[0]
            beta = spec.beta_grid[np.unravel_index(at[i], slack.shape[1:])[0]]
            where = f"at point {points[rows[i]]}, beta {beta!r}"
            check_result(float(lows[i]), f"{check.value} slack", where, "the point or beta")
        worst = float(lows[lows.argmin()])
        if res.worst_slack is None or worst < res.worst_slack:
            res.worst_slack = worst
        if worst < -SLACK_TOL:
            bad = np.argwhere(slack < -SLACK_TOL)
            res.fail_count += len(bad) if weights is None else sum(weights[i] for i in bad[:, 2].tolist())
            room = MAX_WITNESSES - len(res.witnesses)
            res.witnesses += [
                Witness(points[rows[idx[0]]], spec.beta_grid[idx[1]], *cell(idx), float(slack[tuple(idx)]))
                for idx in bad[:room].tolist()
            ]

    if strip:
        l1 = kernel.lemma1_table(d, *zip(*(points[i] for i in strip)), betas)
        # per-(point, beta) case bounds, broadcast over (class, pair)
        lemma2, lemma3, t1, r = bounds.case_bounds(d, [points[i] for i in strip], [bands[i] for i in strip], betas)
        # slack = bound - lower; Lemma 2 covers the equal-magnitude pair (-1, +1), Lemma 3 the other two
        for check, bound, lower, pairs in (
            (Check.TV_VS_LEMMA1, l1, tv[strip], PAIR_ORDER),
            (Check.LEMMA1_VS_LEMMA2, lemma2[:, :, None, None], l1[..., :1], PAIR_ORDER[:1]),
            (Check.LEMMA1_VS_LEMMA3, lemma3[:, :, None, None], l1[..., 1:], PAIR_ORDER[1:]),
        ):
            if check in spec.checks:
                # a failing class cell stands for every tail of its class
                record(check, strip, bound - lower, lambda idx: (kernel.class_tail(d, idx[2]), pairs[idx[3]]), mult)
        if Check.ALL_VS_THEOREM1 in spec.checks:
            # per (point, beta): Theorem 1 - Lemma 2, Theorem 1 - Lemma 3, r - Theorem 1
            slack = np.stack((t1 - lemma2, t1 - lemma3, r[:, None] - t1), axis=2)
            record(Check.ALL_VS_THEOREM1, strip, slack, lambda idx: (None, None))
    if Check.DOBRUSHIN_SATISFIED in spec.checks:
        top, tail_i, pair_i = kernel.first_max(tv)
        record(
            Check.DOBRUSHIN_SATISFIED,
            range(len(points)),
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
    scan grid: log_beta_grid's 120 geometric betas on [1e-3, 100].

    The grid is read block by block, in order, one kernel.max_tv call of
    kernel.block_betas(d) betas each, up to its first block with a failing
    or non-finite value; the first failing grid beta is then refined by
    bisection from the grid beta before it, which may lie in the block
    before, or from beta = 0 when it is the grid's first beta, so the
    result is the smallest failing beta to 1e-6 whatever the grid's first
    beta reads.  The bisection is kernel.bisect with one kernel block per
    round: it evaluates every midpoint the next levels could probe, then
    walks those levels.  Kernel values do not depend on blocking, so the
    result is a one-probe-per-step loop's, bit for bit.  Raises DomainError
    for a bad d, x or y, and if the grid's first failing TV is not finite.
    """
    params = ModelParams(x=x, y=y, beta=float(_FAILURE_GRID[0]), d=d)
    d, x, y = params.d, params.x, params.y
    threshold = 1.0 / (2 * d)
    step = kernel.block_betas(d)
    for start in range(0, len(_FAILURE_GRID), step):
        top = kernel.max_tv(d, x, y, _FAILURE_GRID[start : start + step])[0]
        # the first failing or non-finite value ends the grid stage
        stop = np.flatnonzero(~(top < threshold))
        if len(stop):
            break
    else:
        return None
    i = start + int(stop[0])
    specification.checked_max_tv(float(top[stop[0]]), d, x, y, float(_FAILURE_GRID[i]))
    # levels per round: the largest L whose 2^L - 1 midpoints fit one block
    levels = (step + 1).bit_length() - 1

    def fails(mids: list[float]) -> list[bool]:
        return (kernel.max_tv(d, x, y, np.array(mids))[0] >= threshold).tolist()

    # every conditional is uniform at beta = 0, so the max TV there is
    # 0 < 1/(2d): a bracket below the grid's first beta starts at 0
    lo = float(_FAILURE_GRID[i - 1]) if i else 0.0
    return kernel.bisect(fails, lo, float(_FAILURE_GRID[i]), 1e-6, levels)[1]


def sample_strip_points(points_per_region: int, seed: int = 2026) -> tuple[tuple[float, float], ...]:
    """Deterministic sample of coupling points, `points_per_region` in each of
    the three y-bands of the strip x + y + 1 < 0, x < 0; DomainError unless
    points_per_region is an integer >= 1 and seed an integer."""
    points_per_region = check_int("points_per_region", points_per_region, "be an integer >= 1", lambda n: n >= 1)
    seed = check_int("seed", seed, "be an integer", lambda _: True)
    rng = random.Random(seed)
    pts: list[tuple[float, float]] = []
    # the y-ranges of bands A (y >= 1), B (|y| < 1) and C (y <= -1); each x
    # lies 0.1 to 6 left of the strip's edge min(-(y + 1), 0)
    for lo, hi in ((1.0, 4.0), (-0.95, 0.95), (-5.0, -1.0)):
        for _ in range(points_per_region):
            y = rng.uniform(lo, hi)
            pts.append((min(-(y + 1), 0.0) - rng.uniform(0.1, 6.0), y))
    return tuple(pts)


def default_certification_spec(d: int, points_per_region: int = 20, seed: int = 2026) -> SweepSpec:
    """The standard domination-certification sweep for one dimension: the
    bound checks on the default beta grid, at points_per_region (an integer
    >= 1) sample points in each band, drawn from seed (an integer)."""
    return SweepSpec(
        d=d,
        points=sample_strip_points(points_per_region, seed=seed),
        beta_grid=log_beta_grid(),
        checks=BOUND_CHECKS,
    )
