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
from beg_dobrushin import bounds, kernel, specification
from beg_dobrushin.bounds import CaseBounds
from beg_dobrushin.kernel import PAIR_ORDER
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
    class_tails,
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
        with pytest.raises(DomainError, match="d must be an integer"):
            small_spec(d=True)

    @pytest.mark.parametrize("bad", [(1.0, 2.0, 3.0), (1.0,), (), 1.0])
    def test_malformed_point_rejected(self, bad):
        with pytest.raises(DomainError) as err:
            small_spec(points=((-5.0, 2.0), bad))
        assert str(err.value) == f"sweep point must be an (x, y) pair, got {bad!r}"

    def test_array_points_accepted(self):
        spec = small_spec(points=np.array([[-5.0, 2.0], [-3.0, 0.0]]))
        assert spec.points == ((-5.0, 2.0), (-3.0, 0.0))

    def test_string_point_coordinate_rejected(self):
        # float("-5") would read it; ModelParams(x="-5", ...) raises TypeError
        with pytest.raises(TypeError):
            small_spec(points=(("-5", "2"),))

    def test_string_beta_rejected(self):
        with pytest.raises(TypeError):
            small_spec(beta_grid=("0.5",))

    def test_check_names_rejected(self):
        with pytest.raises(TypeError, match="^sweep checks must be Check members, got 'TVvsLemma1'$"):
            small_spec(checks={"TVvsLemma1"})
        with pytest.raises(TypeError, match="got None"):
            small_spec(checks={Check.TV_VS_LEMMA1, None})


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

    def test_report_schema(self):
        # the keys come from the dataclass fields, so a new field must change this test
        spec = small_spec(points=((0.0, -2.0), (-6.0, 0.0)), beta_grid=(2.0, 20.0), checks=ALL_CHECKS)
        parsed = json.loads(run_sweep(spec).to_json())
        assert set(parsed) == {"meta", "checks"}
        assert set(parsed["meta"]) == {"d", "grid", "points", "git_rev"}
        witnesses = []
        for check in parsed["checks"]:
            assert set(check) == {"name", "pass", "worst_slack", "fail_count", "unclassifiable", "witnesses"}
            witnesses += check["witnesses"]
        assert witnesses
        for witness in witnesses:
            assert set(witness) == {"point", "beta", "tail", "pair", "slack"}

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
            lambda d, xs, ys, betas: np.zeros((len(xs), len(betas), len(kernel.classes(d).k), 3)),
        )
        spec = small_spec(d=d, checks=frozenset({Check.TV_VS_LEMMA1}))
        check = run_sweep(spec).checks[0]
        want = 0
        witnesses = []
        tails = class_tails(d)
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
    values: the per-cell tables, bounds.case_bounds at one point and beta,
    and exact_max_tv."""
    cells = {c: [] for c in spec.checks}
    unclassifiable = []
    tails, mult = class_tails(spec.d), kernel.classes(spec.d).mult
    for point in spec.points:
        x, y = point
        band = classify_region(x, y).sub
        in_strip = band in (SubRegion.A, SubRegion.B, SubRegion.C)
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
            cases = bounds.case_bounds(spec.d, [point], [band], np.array([beta]))
            l2, l3, t1 = cases.lemma2[0, 0], cases.lemma3[0, 0], cases.theorem1[0, 0]
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
                for slack in (t1 - l2, t1 - l3, cases.r[0] - t1):
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
        """A bounds.case_bounds stand-in whose per-(point, beta) (lemma2,
        lemma3, theorem1) are drawn from values, seeded by (x, y, beta) alone,
        so a one-point, one-beta call agrees with the whole-block call."""

        def case_bounds(d, points, bands, betas):
            cells = []
            for x, y in points:
                for beta in np.asarray(betas).tolist():
                    draw = random.Random(f"{x} {y} {beta}")
                    cells.append([draw.choice(values) for _ in range(3)])
            table = np.array(cells, dtype=np.float64).reshape(len(points), len(betas), 3)
            l2, l3, t1 = np.moveaxis(table, 2, 0)
            return CaseBounds(l2.copy(), l3.copy(), t1.copy(), np.full(len(points), r))

        return case_bounds

    def test_all_vs_theorem1_beyond_witness_cap(self, monkeypatch):
        # ties among few values, and far more than MAX_WITNESSES failures
        monkeypatch.setattr(bounds, "case_bounds", self.fake_case_bounds((0.0, 0.25, 0.5, 1.0), 0.5))
        spec = small_spec(beta_grid=log_beta_grid(), checks=frozenset({Check.ALL_VS_THEOREM1}))
        want = per_cell_results(spec)
        assert want["AllvsTheorem1"].fail_count > MAX_WITNESSES
        assert_records_equal(run_sweep(spec), want)

    @pytest.mark.parametrize("first, later", [(0.0, -0.0), (-0.0, 0.0)])
    def test_sign_of_zero_worst_slack(self, first, later, monkeypatch):
        # Theorem 1 - Lemma 2 is 0.0 - 0.0 = 0.0 or -0.0 - 0.0 = -0.0: the
        # worst slack is the first zero, with its sign
        def case_bounds(d, points, bands, betas):
            row = [first if beta < 1.0 else later for beta in np.asarray(betas).tolist()]
            t1 = np.array([row] * len(points), dtype=np.float64).reshape(len(points), len(betas))
            return CaseBounds(np.zeros(t1.shape), np.zeros(t1.shape), t1, np.ones(len(points)))

        monkeypatch.setattr(bounds, "case_bounds", case_bounds)
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


class TestPointBlocks:
    """run_sweep builds one Lemma 1 table per block of points; the result is
    the per-cell one however the blocks fall."""

    # strip points in A, B and C, off-strip points, and repeats within a
    # block and across blocks
    POINTS = (
        (-5.0, 2.0), (0.0, -2.0), (-3.0, 0.5), (-3.0, 0.5), (-1.0, -3.0), (1.0, 1.0),
        (-7.5, 3.5), (-5.0, 2.0), (-2.5, -0.5), (0.5, -3.0), (-0.5, -1.5),
    )

    @pytest.mark.parametrize("block_cells", [None, 1, 2000])
    def test_d3_blocks_match_per_cell(self, block_cells, monkeypatch):
        if block_cells is not None:
            monkeypatch.setattr(kernel, "_SWEEP_BLOCK_CELLS", block_cells)
        spec = small_spec(d=3, points=self.POINTS, beta_grid=log_beta_grid(), checks=ALL_CHECKS)
        assert kernel.block_points(3, len(spec.beta_grid)) < len(spec.points)
        assert_records_equal(run_sweep(spec), per_cell_results(spec))

    def test_non_finite_point_late_in_block(self):
        # the point is the last of the second block of four; earlier points
        # record first, and the error is the per-point sweep's
        points = (
            (-5.0, 2.0), (0.0, -2.0), (-3.0, 0.5), (-1.0, -3.0),
            (-5.0, 2.0), (-2.5, -0.5), (-1.0, -3.0), (-2e307, 1e307),
        )
        spec = small_spec(d=3, points=points, beta_grid=log_beta_grid(), checks=BOUND_CHECKS)
        assert kernel.block_points(3, len(spec.beta_grid)) == 4
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DomainError) as err:
                run_sweep(spec)
        assert str(err.value) == (
            "TVvsLemma1 slack is nan at point (-2e+307, 1e+307); the point is too large in magnitude"
        )


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
        "d, x, y",
        [
            (2, 0.3, -2.0),
            (3, 0.1, -2.5),
            # the first grid beta already fails: no bisection
            (2, 0.0, -2000.0),
            # a grid step of about 0.05 refined to 1e-6: 16 levels, so
            # several rounds at every d
            (1, 0.3, -2.0),
            (2, 0.0, -2.0),
            (4, 0.3, -2.0),
            # 595 classes: one beta per block, one level per round
            (17, 0.0, -2.0),
        ],
    )
    def test_matches_sequential_edge_cases(self, d, x, y):
        beta = find_failure_beta(d, x, y)
        assert beta is not None
        assert beta == sequential_failure_beta(d, x, y)

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

    def test_numpy_dimension_accepted(self):
        # check_dimension once rejected numpy integers here
        assert find_failure_beta(np.int64(2), 0.0, -2.0) == find_failure_beta(2, 0.0, -2.0)

    def test_first_grid_beta_failing_is_returned(self, monkeypatch):
        kernel_calls = self.count_calls(monkeypatch, kernel, "max_tv")
        assert find_failure_beta(2, 0.0, -2000.0) == 1e-3
        assert len(kernel_calls) == 1

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

    @pytest.mark.parametrize(
        "d, x, y, name",
        [(2, bad, -2.0, "x") for bad in (math.nan, math.inf, -math.inf)]
        + [(2, 0.0, bad, "y") for bad in (math.nan, math.inf, -math.inf)]
        + [(True, 0.0, -2.0, "d")],
    )
    def test_rejects_bad_input(self, d, x, y, name):
        with pytest.raises(DomainError, match=f"^{name} must be"):
            find_failure_beta(d, x, y)

    def test_inside_region_never_fails(self):
        assert find_failure_beta(2, -6.0, 0.0) is None
        assert find_failure_beta(2, -10.0, 2.0) is None
