"""Grid certification harness: checks the exact enumeration against every
analytic bound over parameter/temperature grids, and locates temperatures
where the uniqueness condition fails."""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import bounds
from .errors import DomainError
from .model import ModelParams, SubRegion, classify_region
from .specification import PAIR_ORDER, _classes, _tv_table, exact_max_tv

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

    def record(self, slack: float, witness: Witness | None) -> None:
        if self.worst_slack is None or slack < self.worst_slack:
            self.worst_slack = slack
        if slack < -SLACK_TOL:
            self.fail_count += 1
            if witness is not None and len(self.witnesses) < MAX_WITNESSES:
                self.witnesses.append(witness)

    def merge(self, other: "CheckResult") -> None:
        if other.worst_slack is not None:
            if self.worst_slack is None or other.worst_slack < self.worst_slack:
                self.worst_slack = other.worst_slack
        self.fail_count += other.fail_count
        for w in other.witnesses:
            if len(self.witnesses) < MAX_WITNESSES:
                self.witnesses.append(w)
        self.unclassifiable.extend(other.unclassifiable)


def _git_rev() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except OSError:
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip()


@dataclass
class SweepReport:
    spec: SweepSpec
    checks: list[CheckResult]
    git_rev: str | None

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
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)


def _lemma1_table(params: ModelParams, tails: np.ndarray) -> np.ndarray:
    """|theta_+1| + |theta_-1| + |psi| per tail and normalized pair, shape
    (len(tails), len(PAIR_ORDER)); vectorized mirror of bounds.lemma1_bound."""
    beta, x, y, d = params.beta, params.x, params.y, params.d
    k = (tails != 0).sum(axis=1).astype(np.float64)
    n = tails.sum(axis=1).astype(np.float64)
    out = np.empty((len(tails), len(PAIR_ORDER)))
    for j, (s1, st) in enumerate(PAIR_ORDER):
        sig2 = k + s1 * s1
        e_prefix = beta * (2 * d * x + y * sig2)
        e_psi = beta * (4 * d * x + 2 * y * sig2) + beta * y * (st * st - s1 * s1)
        g = beta * (st - s1)
        total = np.exp(e_psi + abs(g)) * -math.expm1(-2 * abs(g))
        for s in (-1, 1):
            e_inner = beta * y * (st * st - s1 * s1) + beta * s * (st - s1)
            e_suffix = beta * s * (s1 + n)
            # |exp(e_inner) - 1| = exp(max(e_inner, 0)) * (1 - exp(-|e_inner|))
            total = total + np.exp(e_prefix + e_suffix + max(e_inner, 0.0)) * -math.expm1(
                -abs(e_inner)
            )
        out[:, j] = total
    return out


def _sweep_point(spec: SweepSpec, point: tuple[float, float]) -> dict[Check, CheckResult]:
    d = spec.d
    x, y = point
    results = {c: CheckResult(name=c.value) for c in spec.checks}
    in_strip = classify_region(x, y).sub in (SubRegion.A, SubRegion.B, SubRegion.C)
    requested_bound_checks = spec.checks & BOUND_CHECKS
    if requested_bound_checks and not in_strip:
        for c in requested_bound_checks:
            results[c].unclassifiable.append(point)
    tails, mult = _classes(d)
    threshold = 1.0 / (2 * d)

    def tail_of(i: int) -> tuple[int, ...]:
        return tuple(int(v) for v in tails[i])

    for beta in spec.beta_grid:
        params = ModelParams(x=x, y=y, beta=beta, d=d)
        tv = _tv_table(params, tails)
        l1 = None
        if (spec.checks & BOUND_CHECKS) and in_strip:
            l1 = _lemma1_table(params, tails)
            l2 = bounds.lemma2_bound(params)
            l3 = bounds.lemma3_bound(params)
            th1 = bounds.theorem1_bound(params)
            ep = bounds.exponents(params)
            rab = bounds.r_of_t(ep.a / ep.b)

        def record_table(check: Check, slack: np.ndarray, cols) -> None:
            res = results[check]
            worst = float(slack.min())
            if res.worst_slack is None or worst < res.worst_slack:
                res.worst_slack = worst
            if worst < -SLACK_TOL:
                bad = np.argwhere(slack < -SLACK_TOL)
                # each failing class cell stands for every tail of its class
                res.fail_count += sum(mult[int(ti)] for ti, _ in bad)
                for ti, ci in bad:
                    if len(res.witnesses) >= MAX_WITNESSES:
                        break
                    res.witnesses.append(
                        Witness(
                            point,
                            beta,
                            tail_of(int(ti)),
                            PAIR_ORDER[cols[int(ci)]],
                            float(slack[int(ti), int(ci)]),
                        )
                    )

        if Check.TV_VS_LEMMA1 in spec.checks and in_strip:
            record_table(Check.TV_VS_LEMMA1, l1 - tv, (0, 1, 2))
        if Check.LEMMA1_VS_LEMMA2 in spec.checks and in_strip:
            # the single equal-magnitude pair is PAIR_ORDER[0] = (-1, +1)
            record_table(Check.LEMMA1_VS_LEMMA2, l2 - l1[:, :1], (0,))
        if Check.LEMMA1_VS_LEMMA3 in spec.checks and in_strip:
            record_table(Check.LEMMA1_VS_LEMMA3, l3 - l1[:, 1:], (1, 2))
        if Check.ALL_VS_THEOREM1 in spec.checks and in_strip:
            res = results[Check.ALL_VS_THEOREM1]
            for slack in (th1 - l2, th1 - l3, rab - th1):
                res.record(slack, Witness(point, beta, None, None, slack))
        if Check.DOBRUSHIN_SATISFIED in spec.checks:
            flat = int(np.argmax(tv))
            ti, ci = divmod(flat, tv.shape[1])
            slack = threshold - float(tv.flat[flat])
            results[Check.DOBRUSHIN_SATISFIED].record(
                slack, Witness(point, beta, tail_of(ti), PAIR_ORDER[ci], slack)
            )
    return results


def _sweep_point_task(args):
    return _sweep_point(*args)


def run_sweep(spec: SweepSpec, workers: int | None = None) -> SweepReport:
    """Run every requested check at every (point, beta) grid cell.

    Enumerates every tail class and boundary pair per cell.  `workers` > 1 splits
    points across processes; results merge in point order, so the report is
    identical for any worker count.
    """
    if workers is None:
        workers = os.cpu_count() or 1
    merged = {c: CheckResult(name=c.value) for c in spec.checks}
    if workers > 1 and len(spec.points) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_point = list(pool.map(_sweep_point_task, [(spec, p) for p in spec.points]))
    else:
        per_point = [_sweep_point(spec, p) for p in spec.points]
    for results in per_point:
        for c, res in results.items():
            merged[c].merge(res)
    ordered = [merged[c] for c in sorted(spec.checks, key=lambda c: c.value)]
    return SweepReport(spec=spec, checks=ordered, git_rev=_git_rev())


def find_failure_beta(
    d: int,
    x: float,
    y: float,
    beta_min: float = 1e-3,
    beta_max: float = 100.0,
    n_grid: int = 120,
) -> float | None:
    """Smallest temperature (refined to 1e-6 in beta) where the exact
    single-site condition fails, or None if it holds on the whole scan range."""

    def fails(beta: float) -> bool:
        report = exact_max_tv(ModelParams(x=x, y=y, beta=beta, d=d))
        return report.max_tv >= 1.0 / (2 * d)

    prev = None
    for beta in np.geomspace(beta_min, beta_max, n_grid):
        beta = float(beta)
        if fails(beta):
            if prev is None:
                return beta
            lo, hi = prev, beta
            while hi - lo > 1e-6:
                mid = 0.5 * (lo + hi)
                if fails(mid):
                    hi = mid
                else:
                    lo = mid
            return hi
        prev = beta
    return None


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
