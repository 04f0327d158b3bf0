"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import math
import random
import time

import numpy as np
import pytest

from beg_dobrushin import (
    ExponentPair,
    ModelParams,
    NeighborConfig,
    beta_critical,
    blume_capel_xc,
    conditional_distribution,
    curve_x,
    exact_max_tv,
    find_failure_beta,
    r_of_t,
    run_sweep,
    solve_t_d,
)
from beg_dobrushin import region
from beg_dobrushin.verify import default_certification_spec, log_beta_grid

from test_specification import full_hamiltonian_conditional


def report(num, name, ok, detail=""):
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def best_time(fn, repeats=5):
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_criterion_1_root_reproduction():
    ok = abs(solve_t_d(2) - 5.39315) <= 1e-4 and abs(solve_t_d(3) - 8.33383) <= 1e-4
    runtime = max(best_time(lambda: region._solve_t_d.__wrapped__(2)),
                  best_time(lambda: region._solve_t_d.__wrapped__(3)))
    report(1, "root reproduction t_2, t_3", ok and runtime < 1e-3,
           f"t_2={solve_t_d(2):.6f} t_3={solve_t_d(3):.6f} best_runtime={runtime * 1e3:.3f}ms")


def test_criterion_2_blume_capel_criticals():
    ok = abs(blume_capel_xc(2) + 3.69658) <= 1e-4 and abs(blume_capel_xc(3) + 3.77794) <= 1e-4
    runtime = best_time(lambda: -(2 + region._solve_t_d.__wrapped__(2)) / 2)
    report(2, "Blume-Capel critical couplings", ok and runtime < 1e-3,
           f"x_c(2)={blume_capel_xc(2):.6f} x_c(3)={blume_capel_xc(3):.6f} "
           f"best_runtime={runtime * 1e3:.3f}ms")


def test_criterion_3_r_identity_and_monotone():
    ok = abs(r_of_t(1.0) - 1.0) <= 1e-14
    grid = np.linspace(0.05, 50, 1000)
    values = [r_of_t(float(t)) for t in grid]
    monotone = all(a > b for a, b in zip(values, values[1:]))
    report(3, "r(1) = 1 and r strictly decreasing", ok and monotone,
           f"|r(1)-1|={abs(r_of_t(1.0) - 1.0):.2e}")


def test_criterion_4_beta_optimum():
    rng = random.Random(4)
    worst_excess = -math.inf
    worst_gap = 0.0
    for _ in range(100):
        a = rng.uniform(0.1, 20)
        b = rng.uniform(0.1, 20)
        bc = beta_critical(ExponentPair(a, b))
        grid = np.linspace(0, 4 * bc, 10_000)
        values = 4 * np.exp(-a * grid) * (1 - np.exp(-b * grid))
        grid_max = float(values.max())
        worst_excess = max(worst_excess, grid_max - r_of_t(a / b))
        w_at_bc = 4 * math.exp(-a * bc) * (1 - math.exp(-b * bc))
        worst_gap = max(worst_gap, abs(grid_max - w_at_bc))
    report(4, "beta optimum bounded by r(a/b)", worst_excess <= 1e-10 and worst_gap <= 1e-6,
           f"worst_excess={worst_excess:.2e} worst_gap_at_beta_c={worst_gap:.2e}")


def test_criterion_5_bound_domination_certification():
    start = time.perf_counter()
    worst = {}
    all_ok = True
    for d in (1, 2, 3):
        result = run_sweep(default_certification_spec(d))
        all_ok = all_ok and result.all_passed
        for check in result.checks:
            slack = check.worst_slack
            if slack is not None:
                worst[check.name] = min(worst.get(check.name, math.inf), slack)
            all_ok = all_ok and slack is not None and slack >= -1e-12
            all_ok = all_ok and not check.unclassifiable
    elapsed = time.perf_counter() - start
    report(5, "bound-domination certification d=1..3", all_ok and elapsed < 120,
           f"worst_slacks={ {k: f'{v:.1e}' for k, v in sorted(worst.items())} } "
           f"elapsed={elapsed:.1f}s")


def test_criterion_6_sufficiency_at_desk_scale():
    rng = random.Random(6)
    points = []
    while len(points) < 50:
        y = rng.uniform(-5, 4)
        x = curve_x(2, y) - 0.01 - rng.uniform(0, 4)
        points.append((x, y))
    start = time.perf_counter()
    violations = 0
    for x, y in points:
        for beta in log_beta_grid():
            if not exact_max_tv(ModelParams(x=x, y=y, beta=beta, d=2)).satisfied:
                violations += 1
    elapsed = time.perf_counter() - start
    report(6, "Theorem-2 sufficiency on 50 interior points", violations == 0,
           f"violations={violations} elapsed={elapsed:.1f}s")


def test_criterion_7_negative_check():
    beta = find_failure_beta(2, 0.0, -2.0)
    ok = beta is not None and abs(beta - 0.5359094412565923) <= 1e-4
    report(7, "condition fails at (0, -2) for low temperature", ok,
           f"failure_beta={beta}")


def test_criterion_8_oracle_equivalence():
    rng = random.Random(8)
    worst = 0.0
    for _ in range(10_000):
        d = rng.choice([1, 2, 3])
        params = ModelParams(
            x=rng.uniform(-6, 6), y=rng.uniform(-6, 6), beta=rng.uniform(0, 3), d=d
        )
        spins = tuple(rng.choice((-1, 0, 1)) for _ in range(2 * d))
        got = conditional_distribution(params, NeighborConfig(spins)).as_tuple()
        want = full_hamiltonian_conditional(params, spins)
        worst = max(worst, max(abs(g - w) for g, w in zip(got, want)))
    uniform = conditional_distribution(
        ModelParams(x=2.5, y=-1.5, beta=0.0, d=2), NeighborConfig((1, -1, 0, 1))
    ).as_tuple()
    ok = worst <= 1e-12 and uniform == (1 / 3, 1 / 3, 1 / 3)
    report(8, "reduced conditional equals full-weight oracle", ok,
           f"worst_componentwise={worst:.2e}")


def test_criterion_9_curve_continuity():
    worst = 0.0
    for d in range(1, 8):
        t = solve_t_d(d)
        upper = -((t + 2 * d) / (2 * d)) * 2
        middle_hi = -(2 * d + t) / d
        lower = -(t / (2 * d)) * 2
        middle_lo = -t / d
        worst = max(worst, abs(upper - middle_hi), abs(lower - middle_lo))
    report(9, "curve branch continuity at y = +-1", worst <= 1e-12,
           f"worst_mismatch={worst:.2e}")
