import json
import math
import random

import numpy as np
import pytest

from beg_dobrushin import (
    Check,
    DomainError,
    ModelParams,
    NeighborConfig,
    SweepSpec,
    conditional_distribution,
    default_certification_spec,
    exact_max_tv,
    find_failure_beta,
    in_dobrushin_region,
    run_sweep,
    total_variation,
)
from beg_dobrushin import kernel, specification
from beg_dobrushin.kernel import PAIR_ORDER, CaseBounds
from beg_dobrushin.model import SubRegion, classify_region
from beg_dobrushin.verify import (
    ALL_CHECKS,
    BOUND_CHECKS,
    MAX_WITNESSES,
    SLACK_TOL,
    Witness,
    log_beta_grid,
)
from conftest import (
    cell_lemma1_table,
    cell_tv_table,
    full_tails,
    sequential_failure_beta,
    sequential_record,
)


def small_spec(**overrides):
    kwargs = dict(
        d=2,
        points=((-5.0, 2.0), (-3.0, 0.0), (-1.0, -3.0)),
        beta_grid=(0.1, 1.0, 5.0),
        checks=BOUND_CHECKS,
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


class TestSweepSpec:
    def test_grid_validation(self):
        with pytest.raises(DomainError):
            small_spec(beta_grid=(1.0, 0.5))
        with pytest.raises(DomainError):
            small_spec(beta_grid=(-0.1, 1.0))
        with pytest.raises(DomainError):
            small_spec(beta_grid=(1.0, 1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(DomainError):
            small_spec(beta_grid=(0.1, bad))
        with pytest.raises(DomainError):
            small_spec(points=((-5.0, 2.0), (bad, 0.0)))
        with pytest.raises(DomainError):
            small_spec(points=((-5.0, bad),))

    def test_dimension_validated(self):
        with pytest.raises(DomainError):
            small_spec(d=0)


class TestRunSweep:
    def test_zero_temperature_grid_vacuous(self):
        report = run_sweep(small_spec(beta_grid=(0.0,)))
        assert report.all_passed
        for check in report.checks:
            assert check.worst_slack >= 0
            assert not check.witnesses

    def test_empty_grid_vacuous(self):
        report = run_sweep(small_spec(beta_grid=(), checks=ALL_CHECKS))
        assert report.all_passed
        assert all(check.worst_slack is None for check in report.checks)

    def test_small_certification_passes(self):
        report = run_sweep(small_spec())
        assert report.all_passed
        for check in report.checks:
            assert check.worst_slack >= -1e-12

    def test_unclassifiable_point_reported(self):
        spec = small_spec(points=((0.0, -2.0),), checks=frozenset({Check.ALL_VS_THEOREM1}))
        report = run_sweep(spec)
        check = report.checks[0]
        assert check.passed
        assert check.worst_slack is None
        assert check.unclassifiable == [(0.0, -2.0)]

    def test_dobrushin_failure_produces_witnesses(self):
        spec = small_spec(
            points=((0.0, -2.0),),
            beta_grid=log_beta_grid(1e-3, 50, 20),
            checks=frozenset({Check.DOBRUSHIN_SATISFIED}),
        )
        report = run_sweep(spec)
        assert not report.all_passed
        check = report.checks[0]
        assert check.worst_slack < -1e-12
        assert check.witnesses

    def test_witness_reproduces_slack(self):
        spec = small_spec(
            points=((0.0, -2.0),),
            beta_grid=(2.0, 20.0),
            checks=frozenset({Check.DOBRUSHIN_SATISFIED}),
        )
        report = run_sweep(spec)
        for witness in report.checks[0].witnesses:
            params = ModelParams(x=witness.point[0], y=witness.point[1], beta=witness.beta, d=2)
            nb = NeighborConfig((witness.pair[0], *witness.tail))
            tv = total_variation(
                conditional_distribution(params, nb),
                conditional_distribution(params, nb.with_distinguished(witness.pair[1])),
            )
            assert abs((0.25 - tv) - witness.slack) <= 1e-14

    def test_soundness_coupling(self):
        points = ((-6.0, 0.0), (-8.0, 2.0), (-4.5, -2.0))
        for x, y in points:
            assert in_dobrushin_region(2, x, y)
        spec = small_spec(
            points=points,
            beta_grid=log_beta_grid(1e-3, 50, 15),
            checks=frozenset({Check.DOBRUSHIN_SATISFIED}),
        )
        report = run_sweep(spec)
        assert report.all_passed

    def test_non_finite_slack_raises(self):
        # the Lemma 1 table overflows to nan at a point this large
        spec = small_spec(
            points=((-2e307, 1e307),),
            beta_grid=log_beta_grid(1e-3, 50, 5),
            checks=frozenset({Check.TV_VS_LEMMA1}),
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DomainError, match=r"TVvsLemma1 slack is nan at point \(-2e\+307"):
                run_sweep(spec)

    def test_deterministic_serialization(self):
        spec = small_spec(checks=ALL_CHECKS)
        first = run_sweep(spec).to_json()
        second = run_sweep(spec).to_json()
        assert first == second
        parsed = json.loads(first)
        assert set(parsed) == {"meta", "checks"}
        assert set(parsed["meta"]) == {"d", "grid", "points", "git_rev"}

    def test_large_dimension_runs(self):
        spec = small_spec(d=8, points=((-5.0, 2.0),), checks=ALL_CHECKS)
        report = run_sweep(spec)
        assert len(report.checks) == len(ALL_CHECKS)
        assert all(check.worst_slack is not None for check in report.checks)

    @pytest.mark.parametrize("d", [2, 3])
    def test_fail_count_weighted_by_multiplicity(self, d, monkeypatch):
        monkeypatch.setattr(
            kernel,
            "lemma1_table",
            lambda d, x, y, betas: np.zeros((len(betas), len(kernel.classes(d).tails), 3)),
        )
        spec = small_spec(d=d, checks=frozenset({Check.TV_VS_LEMMA1}))
        check = run_sweep(spec).checks[0]
        want = 0
        witnesses = []
        tails = kernel.classes(d).tails
        for x, y in spec.points:
            for beta in spec.beta_grid:
                params = ModelParams(x=x, y=y, beta=beta, d=d)
                want += int((cell_tv_table(params, full_tails(d)) > SLACK_TOL).sum())
                slack = -cell_tv_table(params, tails)
                for ti, ci in np.argwhere(slack < -SLACK_TOL).tolist():
                    tail = tuple(int(v) for v in tails[ti])
                    witnesses.append(Witness((x, y), beta, tail, PAIR_ORDER[ci], slack[ti, ci]))
        assert want > 0
        assert check.fail_count == want
        # beta-major, then class, then pair, as one cell at a time would record them
        assert check.witnesses == witnesses[:MAX_WITNESSES]
        for witness in check.witnesses:
            # the first member of a (k, #plus) class lists -1s, then 0s, then +1s
            assert witness.tail == tuple(sorted(witness.tail))


def per_cell_results(spec):
    """Every check of a sweep recorded one cell at a time through
    sequential_record, in point, beta, class, pair order, from per-beta
    values: the per-cell tables, kernel.case_bounds at one beta and
    exact_max_tv."""
    cells = {c: [] for c in spec.checks}
    unclassifiable = []
    tails, mult = kernel.classes(spec.d)
    for point in spec.points:
        x, y = point
        in_strip = classify_region(x, y).sub in (SubRegion.A, SubRegion.B, SubRegion.C)
        if not in_strip:
            unclassifiable.append(point)
        for beta in spec.beta_grid:
            params = ModelParams(x=x, y=y, beta=beta, d=spec.d)
            if Check.DOBRUSHIN_SATISFIED in spec.checks:
                report = exact_max_tv(params)
                nb, st = report.argmax_pair
                slack = 1.0 / (2 * spec.d) - report.max_tv
                witness = Witness(point, beta, nb.spins[1:], (nb.spins[0], st), slack)
                cells[Check.DOBRUSHIN_SATISFIED].append((slack, witness, 1))
            if not in_strip:
                continue
            tv = cell_tv_table(params, tails).tolist()
            l1 = cell_lemma1_table(params, tails).tolist()
            cases = kernel.case_bounds(spec.d, x, y, np.array([beta]))
            l2, l3, t1 = cases.lemma2[0], cases.lemma3[0], cases.theorem1[0]
            for ti, tail in enumerate(tails.tolist()):
                for ci, pair in enumerate(PAIR_ORDER):
                    # Lemma 2 bounds the equal-magnitude pair PAIR_ORDER[0], Lemma 3 the rest
                    case, bound = (Check.LEMMA1_VS_LEMMA2, l2) if ci == 0 else (Check.LEMMA1_VS_LEMMA3, l3)
                    for check, slack in ((Check.TV_VS_LEMMA1, l1[ti][ci] - tv[ti][ci]), (case, bound - l1[ti][ci])):
                        if check in spec.checks:
                            slack = float(slack)
                            witness = Witness(point, beta, tuple(tail), pair, slack)
                            cells[check].append((slack, witness, mult[ti]))
            if Check.ALL_VS_THEOREM1 in spec.checks:
                for slack in (t1 - l2, t1 - l3, cases.r - t1):
                    slack = float(slack)
                    cells[Check.ALL_VS_THEOREM1].append((slack, Witness(point, beta, None, None, slack), 1))
    results = {}
    for check, check_cells in cells.items():
        results[check.value] = sequential_record(check.value, check_cells)
        if check in BOUND_CHECKS:
            results[check.value].unclassifiable = list(unclassifiable)
    return results


def assert_records_equal(report, want):
    got = {c.name: c for c in report.checks}
    assert got.keys() == want.keys()
    for name, check in got.items():
        assert check == want[name], name
        # == does not tell 0.0 from -0.0
        assert repr(check.worst_slack) == repr(want[name].worst_slack), name


class TestArrayRecording:
    """The sweep records every check from whole-grid slack arrays; the result
    equals recording one cell at a time."""

    @staticmethod
    def fake_case_bounds(values, r):
        """A kernel.case_bounds stand-in whose per-beta (lemma2, lemma3,
        theorem1) are drawn from values, seeded by (x, y, beta) alone, so a
        one-beta call agrees with the whole-grid call."""

        def case_bounds(d, x, y, betas):
            rows = []
            for beta in np.asarray(betas).tolist():
                draw = random.Random(f"{x} {y} {beta}")
                rows.append([draw.choice(values) for _ in range(3)])
            l2, l3, t1 = np.array(rows, dtype=np.float64).reshape(-1, 3).T
            return CaseBounds(l2.copy(), l3.copy(), t1.copy(), r)

        return case_bounds

    def test_all_vs_theorem1_beyond_witness_cap(self, monkeypatch):
        # ties among few values, and far more than MAX_WITNESSES failures
        monkeypatch.setattr(kernel, "case_bounds", self.fake_case_bounds((0.0, 0.25, 0.5, 1.0), 0.5))
        spec = small_spec(beta_grid=log_beta_grid(), checks=frozenset({Check.ALL_VS_THEOREM1}))
        want = per_cell_results(spec)
        assert want["AllvsTheorem1"].fail_count > MAX_WITNESSES
        assert_records_equal(run_sweep(spec), want)

    @pytest.mark.parametrize("first, later", [(0.0, -0.0), (-0.0, 0.0)])
    def test_sign_of_zero_worst_slack(self, first, later, monkeypatch):
        # Theorem 1 - Lemma 2 is 0.0 - 0.0 = 0.0 or -0.0 - 0.0 = -0.0: the
        # worst slack is the first zero, with its sign
        def case_bounds(d, x, y, betas):
            t1 = np.array([first if beta < 1.0 else later for beta in np.asarray(betas).tolist()])
            return CaseBounds(np.zeros(len(t1)), np.zeros(len(t1)), t1, 1.0)

        monkeypatch.setattr(kernel, "case_bounds", case_bounds)
        spec = small_spec(beta_grid=log_beta_grid(), checks=frozenset({Check.ALL_VS_THEOREM1}))
        report = run_sweep(spec)
        assert repr(report.checks[0].worst_slack) == repr(first - 0.0)
        assert_records_equal(report, per_cell_results(spec))

    def test_dobrushin_at_failing_points(self):
        spec = small_spec(
            points=(
                (0.0, -2.0), (-6.0, 0.0), (0.2, -1.9), (1.0, 1.0), (0.5, -3.0),
                (2.0, 0.0), (0.5, 1.0), (-1.0, 3.0), (3.0, -5.0),
            ),
            beta_grid=log_beta_grid(),
            checks=frozenset({Check.DOBRUSHIN_SATISFIED}),
        )
        want = per_cell_results(spec)
        assert want["DobrushinSatisfied"].fail_count > MAX_WITNESSES
        assert_records_equal(run_sweep(spec), want)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_grid_from_zero_all_checks(self, d):
        # at beta = 0 every bound and TV is 0.0, so the Lemma 2/3 checks' worst
        # slack is a tie of zeros; (0, -2) and (1, 1) lie outside the strip
        spec = small_spec(
            d=d,
            points=((-5.0, 2.0), (-3.0, 0.0), (-1.0, -3.0), (0.0, -2.0), (1.0, 1.0), (-2.5, -0.5)),
            beta_grid=tuple(np.linspace(0.0, 12.0, 13).tolist()),
            checks=ALL_CHECKS,
        )
        want = per_cell_results(spec)
        assert repr(want["Lemma1vsLemma2"].worst_slack) == "0.0"
        assert want["DobrushinSatisfied"].fail_count > 0
        assert_records_equal(run_sweep(spec), want)


class TestDefaultSpec:
    def test_points_lie_in_strip(self):
        spec = default_certification_spec(2, points_per_region=5)
        assert len(spec.points) == 15
        assert spec.checks == BOUND_CHECKS
        assert len(spec.beta_grid) == 40

    def test_seed_reproducible(self):
        a = default_certification_spec(2, points_per_region=3, seed=1)
        b = default_certification_spec(2, points_per_region=3, seed=1)
        assert a.points == b.points


class TestFindFailureBeta:
    def test_concluding_remark_point(self):
        beta = find_failure_beta(2, 0.0, -2.0)
        assert beta is not None
        # frozen regression value from the scan + bisection refinement
        assert beta == pytest.approx(0.5359094412565923, abs=1e-4)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_matches_sequential_grid(self, d):
        rng = random.Random(300 + d)
        points = [(0.0, -2.0)] + [(rng.uniform(-4.0, 0.8), rng.uniform(-3.0, 3.0)) for _ in range(8)]
        found = 0
        for x, y in points:
            beta = find_failure_beta(d, x, y)
            assert beta == sequential_failure_beta(d, x, y), (x, y)
            found += beta is not None
        assert 0 < found < len(points)

    @pytest.mark.parametrize(
        "d, x, y, grid",
        [
            # a coarse non-default grid
            (2, 0.3, -2.0, {"beta_min": 0.05, "beta_max": 20.0, "n_grid": 7}),
            (3, 0.1, -2.5, {"beta_min": 0.01, "beta_max": 5.0, "n_grid": 33}),
            # the first grid beta already fails: no bisection
            (2, 0.0, -2.0, {"beta_min": 1.0, "beta_max": 3.0, "n_grid": 5}),
            # grid steps of 1e-7, so the starting bracket is already refined
            (2, 0.0, -2.0, {"beta_min": 0.5359, "beta_max": 0.5360, "n_grid": 1001}),
            # one bracket from 1e-3 to 100: about 27 levels, several rounds
            (1, 0.3, -2.0, {"n_grid": 2}),
            (2, 0.0, -2.0, {"n_grid": 2}),
            (4, 0.3, -2.0, {"n_grid": 2}),
            # 595 classes: one beta per block, one level per round
            (17, 0.0, -2.0, {}),
        ],
    )
    def test_matches_sequential_edge_cases(self, d, x, y, grid):
        beta = find_failure_beta(d, x, y, **grid)
        assert beta is not None
        assert beta == sequential_failure_beta(d, x, y, **grid)

    @staticmethod
    def count_calls(monkeypatch, module, name):
        """Wrap module.name so each call appends its arguments to the
        returned list."""
        calls = []
        original = getattr(module, name)

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_concluding_remark_point_kernel_calls(self, monkeypatch):
        # the grid stage and 16 bisection levels in rounds of 5: at most 5
        # kernel calls, and no one-beta exact_max_tv probe
        want = sequential_failure_beta(2, 0.0, -2.0)
        kernel_calls = self.count_calls(monkeypatch, kernel, "max_tv")
        probes = self.count_calls(monkeypatch, specification, "exact_max_tv")
        assert find_failure_beta(2, 0.0, -2.0) == want
        assert len(kernel_calls) <= 5
        assert probes == []

    @pytest.mark.parametrize("d, levels", [(1, 7), (2, 5), (3, 4), (4, 3), (6, 2), (17, 1)])
    def test_round_is_one_full_block(self, monkeypatch, d, levels):
        # each bisection round evaluates the 2^L - 1 midpoints of L levels,
        # with L the largest such that they fit one kernel block
        assert 2**levels - 1 <= kernel.block_betas(d) < 2 ** (levels + 1) - 1
        kernel_calls = self.count_calls(monkeypatch, kernel, "max_tv")
        blocks = self.count_calls(monkeypatch, kernel, "tv_table")
        find_failure_beta(d, 0.0, -2.0)
        rounds = [len(betas) for *_, betas in kernel_calls[1:]]
        assert rounds and set(rounds) == {2**levels - 1}
        assert len(blocks) == len(kernel_calls) - 1 + math.ceil(120 / kernel.block_betas(d))

    @pytest.mark.parametrize("x, y", [(1e308, -1e308), (-1e308, 5e307)])
    def test_non_finite_tv_is_domain_error(self, x, y):
        # nan >= threshold is False, which must not read as "holds everywhere"
        with pytest.raises(DomainError, match="too large in magnitude") as err:
            find_failure_beta(2, x, y)
        assert repr((x, y)) in str(err.value)
        with pytest.raises(DomainError, match="too large in magnitude"):
            exact_max_tv(ModelParams(x=x, y=y, beta=1.0, d=2))

    def test_rejects_non_finite_input(self):
        with pytest.raises(DomainError):
            find_failure_beta(2, math.nan, -2.0)
        with pytest.raises(DomainError):
            find_failure_beta(2, 0.0, -2.0, beta_max=math.inf)

    @pytest.mark.parametrize(
        "grid",
        [
            {"n_grid": 0},
            {"n_grid": 1},
            {"beta_min": 5.0, "beta_max": 1.0},
            {"beta_min": 2.0, "beta_max": 2.0},
            {"beta_min": 0.0},
        ],
    )
    def test_rejects_degenerate_grid(self, grid):
        # (2, 0.3, -2) fails near beta = 0.44, so a grid that returned None
        # or its own endpoint here would misreport the point
        with pytest.raises(DomainError):
            find_failure_beta(2, 0.3, -2.0, **grid)

    def test_inside_region_never_fails(self):
        assert find_failure_beta(2, -6.0, 0.0) is None
        assert find_failure_beta(2, -10.0, 2.0) is None
