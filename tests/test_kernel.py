import math
import random
import struct
import sys

import numpy as np
import pytest

from beg_dobrushin import DomainError, ModelParams, bounds, kernel, model, verify
from conftest import cell_lemma1_table, cell_tv_table, class_tails, point_in_band, tuple_sorted_classes


def seeded_grid(d):
    """Strip points, where the sweep evaluates Lemma 1, and a beta grid from 0
    to the default sweep's range."""
    rng = random.Random(500 + d)
    betas = np.array([0.0] + sorted(10 ** rng.uniform(-3, 1.7) for _ in range(24)))
    points = [point_in_band(band, rng) for band in "ABCABC"]
    return points, betas


class TestBatchedTables:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_beta_slices_match_single_beta_bit_for_bit(self, d):
        points, betas = seeded_grid(d)
        tails = class_tails(d)
        for x, y in points:
            tv = kernel.tv_table(d, x, y, betas)
            l1 = kernel.lemma1_table(d, [x], [y], betas)[0]
            assert tv.shape == l1.shape == (len(betas), len(tails), 3)
            for i, beta in enumerate(betas.tolist()):
                params = ModelParams(x=x, y=y, beta=beta, d=d)
                assert tv[i].tobytes() == cell_tv_table(params, tails).tobytes(), (x, y, beta)
                assert l1[i].tobytes() == cell_lemma1_table(params, tails).tobytes(), (x, y, beta)

    def test_empty_beta_grid(self):
        assert kernel.tv_table(2, -3.0, 0.5, np.empty(0)).shape == (0, 10, 3)
        assert kernel.lemma1_table(2, [-3.0], [0.5], np.empty(0))[0].shape == (0, 10, 3)


def canonical_nan_bytes(table: np.ndarray) -> bytes:
    """table's bytes with every nan made the same nan: the sign bit of a nan
    depends on the code path numpy takes, its position and the rest do not."""
    return np.where(np.isnan(table), np.nan, table).tobytes()


class TestLemma1Points:
    """lemma1_table over many points at once equals the per-cell reference at
    every (point, beta)."""

    @staticmethod
    def assert_cells(d, points, betas, key=lambda a: a.tobytes()):
        xs, ys = [x for x, _ in points], [y for _, y in points]
        table = kernel.lemma1_table(d, xs, ys, betas)
        tails = class_tails(d)
        assert table.shape == (len(points), len(betas), len(tails), 3)
        for i, (x, y) in enumerate(points):
            for j, beta in enumerate(betas.tolist()):
                with np.errstate(over="ignore", invalid="ignore"):
                    want = cell_lemma1_table(ModelParams(x=x, y=y, beta=beta, d=d), tails)
                assert key(table[i, j]) == key(want), (x, y, beta)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_many_points_match_cells(self, d):
        points, betas = seeded_grid(d)
        # a repeated point gets its own, equal row
        self.assert_cells(d, points + points[:2], betas)

    def test_zero_beta_grid(self):
        points, _ = seeded_grid(2)
        self.assert_cells(2, points, np.array([0.0]))

    def test_empty_grids(self):
        points, betas = seeded_grid(3)
        xs, ys = [x for x, _ in points], [y for _, y in points]
        assert kernel.lemma1_table(3, xs, ys, np.empty(0)).shape == (6, 0, 21, 3)
        assert kernel.lemma1_table(3, [], [], betas).shape == (0, len(betas), 21, 3)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_overflowing_points_match_inf_nan_pattern(self, d):
        points = [(1e308, -1e308), (-1e308, 5e307), (-1e308, -1e308), (1e308, 1e308), (0.0, 1e308), (-3.0, 0.5)]
        betas = np.array([0.0, 1e-3, 0.5, 1.0, 40.0])
        table = kernel.lemma1_table(d, *zip(*points), betas)
        assert np.isnan(table).any() and np.isinf(table).any()
        self.assert_cells(d, points, betas, key=canonical_nan_bytes)


class TestTVPoints:
    """tv_table over 1-D coordinates, as lemma1_table takes them, equals the
    stacked one-point tables, bit for bit."""

    @staticmethod
    def assert_stacked(d, points, betas, key=lambda a: a.tobytes()):
        table = kernel.tv_table(d, *zip(*points), betas)
        assert table.shape == (len(points), len(betas), len(kernel.classes(d).k), 3)
        want = np.stack([kernel.tv_table(d, x, y, betas) for x, y in points])
        assert key(table) == key(want)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_many_points_match_stacked(self, d):
        points, betas = seeded_grid(d)
        # strip and off-strip points; a repeated point gets its own, equal row
        points += [(0.0, -2.0), (1.0, 1.0), (0.2, -1.9)] + points[:2]
        self.assert_stacked(d, points, betas)

    def test_empty_beta_grid(self):
        points, _ = seeded_grid(2)
        self.assert_stacked(2, points, np.empty(0))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_overflowing_points_match_inf_nan_pattern(self, d):
        points = [(1e308, -1e308), (-1e308, 5e307), (-1e308, -1e308), (1e308, 1e308), (0.0, 1e308), (-3.0, 0.5)]
        betas = np.array([0.0, 1e-3, 0.5, 1.0, 40.0])
        assert np.isnan(kernel.tv_table(d, *zip(*points), betas)).any()
        self.assert_stacked(d, points, betas, key=canonical_nan_bytes)


class TestClasses:
    @pytest.mark.parametrize("d", range(1, 13))
    def test_match_tuple_sorted_oracle(self, d):
        table = kernel.classes(d)
        reps = tuple_sorted_classes(d)
        assert [kernel.class_tail(d, i) for i in range(len(table.k))] == [tail for tail, _ in reps]
        assert table.k.tolist() == [sum(v != 0 for v in tail) for tail, _ in reps]
        assert table.n.tolist() == [sum(tail) for tail, _ in reps]
        assert table.mult == tuple(c for _, c in reps)

    def test_large_dimension_holds_statistics_only(self):
        table = kernel.classes(200)
        assert table._fields == ("k", "n", "mult")
        for a in (table.k, table.n):
            assert a.shape == (200 * 401,)
            assert a.dtype == np.float64
            assert not a.flags.writeable
        assert len(table.mult) == 200 * 401
        assert sum(table.mult) == 3**399

    def test_numpy_dimension_gives_int_multiplicities(self):
        # a numpy d once stepped the multiplicities in int64, which raised
        # OverflowError at d = 40
        table = kernel.classes(np.int64(40))
        assert all(type(c) is int for c in table.mult)
        assert sum(table.mult) == 3**79
        assert table.mult == kernel.classes(40).mult

    def test_multiplicities_are_multinomials(self):
        # (2d-1)! / (#zero! #minus! #plus!) per class
        for d in range(1, 60):
            table = kernel.classes(d)
            k, n = table.k.astype(int).tolist(), table.n.astype(int).tolist()
            f = math.factorial
            assert table.mult == tuple(
                f(2 * d - 1) // (f(2 * d - 1 - ki) * f((ki - ni) // 2) * f((ki + ni) // 2)) for ki, ni in zip(k, n)
            )


class TestMaxTv:
    def test_first_max_takes_first_occurrence(self):
        table = np.zeros((2, 3, 3))
        table[0, 1, 2] = table[0, 2, 0] = 5.0
        top, cls, pair = kernel.first_max(table)
        assert top.tolist() == [5.0, 0.0]
        assert (cls.tolist(), pair.tolist()) == ([1, 0], [2, 0])

    def test_first_max_of_points_is_per_point(self):
        points, betas = seeded_grid(3)
        table = kernel.tv_table(3, *zip(*points), betas)
        got = kernel.first_max(table)
        assert [a.shape for a in got] == [(len(points), len(betas))] * 3
        for i, (x, y) in enumerate(points):
            for got_part, want_part in zip(got, kernel.first_max(kernel.tv_table(3, x, y, betas))):
                assert got_part[i].tobytes() == want_part.tobytes()

    @pytest.mark.parametrize("block_cells", [1, 7, 25, 64])
    def test_blocks_do_not_change_result(self, block_cells, monkeypatch):
        betas = np.geomspace(1e-3, 50, 33)
        whole = kernel.first_max(kernel.tv_table(2, 0.2, -1.9, betas))
        monkeypatch.setattr(kernel, "_BLOCK_CELLS", block_cells)
        blocked = kernel.max_tv(2, 0.2, -1.9, betas)
        for got, want in zip(blocked, whole):
            assert got.tobytes() == want.tobytes()

    def test_empty_beta_grid(self):
        top, cls, pair = kernel.max_tv(3, -3.0, 0.5, np.empty(0))
        assert len(top) == len(cls) == len(pair) == 0

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "x, y", [(1e308, -1e308), (-1e308, 5e307), (1e306, 0.0), (0.0, 1e307), (6.0, 0.0), (-3.0, 0.0)]
    )
    def test_overflow_only_grows_with_beta(self, d, x, y):
        # find_failure_beta checks only the first failing grid TV: its
        # bisection midpoints lie below that beta, so they cannot overflow
        top = kernel.max_tv(d, x, y, np.geomspace(1e-3, 1e308, 400))[0]
        bad = ~np.isfinite(top)
        first = int(bad.argmax()) if bad.any() else len(top)
        assert bad[first:].all(), (d, x, y, first)


class TestBisect:
    @staticmethod
    def sequential(fails, lo, hi, tol):
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if fails(mid):
                hi = mid
            else:
                lo = mid
        return lo, hi

    @pytest.mark.parametrize("levels", [1, 2, 3, 5, 8])
    def test_matches_one_probe_per_step(self, levels):
        rng = random.Random(levels)
        for _ in range(50):
            lo = rng.uniform(-3.0, 3.0)
            hi = lo + rng.uniform(1e-3, 10.0)
            root, tol = rng.uniform(lo, hi), 10.0 ** rng.uniform(-12, -2)
            sizes = []

            def fails(mids):
                sizes.append(len(mids))
                return [m >= root for m in mids]

            got = kernel.bisect(fails, lo, hi, tol, levels)
            assert got == self.sequential(lambda m: m >= root, lo, hi, tol)
            assert got[1] - got[0] <= tol
            # every round asks for the whole heap of midpoints, even the last
            assert sizes and set(sizes) == {2**levels - 1}

    def test_narrow_bracket_is_returned_unprobed(self):
        def fails(mids):
            raise AssertionError("no probe expected")

        assert kernel.bisect(fails, 1.0, 1.5, 0.5, 3) == (1.0, 1.5)


def bits(values) -> bytes:
    return struct.pack(f"{len(values)}d", *values)


def block_bands(points):
    """The band of each point, as the sweep passes it to bounds.case_bounds."""
    return [model.classify_region(x, y).sub for x, y in points]


class TestCaseBounds:
    """bounds.case_bounds over one block of points, the bands mixed, equals
    the scalar bounds at every (point, beta), bit for bit."""

    @staticmethod
    def assert_scalar_bits(d, points, betas):
        cases = bounds.case_bounds(d, points, block_bands(points), betas)
        assert cases.lemma2.shape == cases.lemma3.shape == cases.theorem1.shape == (len(points), len(betas))
        assert cases.r.shape == (len(points),)
        for i, (x, y) in enumerate(points):
            params = [ModelParams(x=x, y=y, beta=beta, d=d) for beta in betas.tolist()]
            assert cases.lemma2[i].tobytes() == bits([bounds.lemma2_bound(p) for p in params]), (x, y)
            assert cases.lemma3[i].tobytes() == bits([bounds.lemma3_bound(p) for p in params]), (x, y)
            assert cases.theorem1[i].tobytes() == bits([bounds.theorem1_bound(p) for p in params]), (x, y)
            ep = bounds.exponents(ModelParams(x=x, y=y, beta=0.0, d=d))
            assert cases.r[i : i + 1].tobytes() == bits([bounds.r_of_t(ep.a / ep.b)]), (x, y)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_equal_to_scalar_bounds_bit_for_bit(self, d):
        # bands A, B, C, A, B, C, then the band edges y = 1 (A) and y = -1 (C);
        # the grid starts at beta = 0
        points, betas = seeded_grid(d)
        points += [(-4.0, 1.0), (-2.5, -0.5), (-4.0, -1.0)]
        assert betas[0] == 0.0
        self.assert_scalar_bits(d, points, betas)

    def test_band_edges(self):
        # y = 1 is in A and y = -1 in C; beta = 0 gives exact zeros
        points = [(-4.0, 1.0), (-4.0, -1.0), (-4.0, 0.999), (-4.0, math.nextafter(1.0, 0.0))]
        self.assert_scalar_bits(3, points, np.array([0.0, 0.3, 7.0]))

    @pytest.mark.parametrize("point", [(1.0, 1.0), (0.0, -2.0), (-0.5, 0.0), (-2.0, 1.0)])
    def test_outside_strip_raises_like_scalar(self, point):
        x, y = point
        with pytest.raises(DomainError) as scalar:
            bounds.lemma2_bound(ModelParams(x=x, y=y, beta=1.0, d=2))
        block = [(-3.0, 0.5), point]
        with pytest.raises(DomainError) as batched:
            bounds.case_bounds(2, block, block_bands(block), np.array([1.0]))
        assert str(batched.value) == str(scalar.value)

    def test_empty_beta_grid(self):
        self.assert_scalar_bits(2, [(-3.0, 0.5), (-5.0, 2.0), (-1.0, -3.0)], np.empty(0))

    def test_empty_block(self):
        cases = bounds.case_bounds(2, [], [], np.array([0.0, 1.0]))
        assert cases.lemma2.shape == cases.lemma3.shape == cases.theorem1.shape == (0, 2)
        assert cases.r.shape == (0,)


class TestSweepPointClassification:
    @pytest.fixture
    def classify_calls(self, monkeypatch):
        """The argument tuples of every classify_region call, from any package
        module."""
        calls = []
        original = model.classify_region

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("beg_dobrushin") and getattr(module, "classify_region", None) is original:
                monkeypatch.setattr(module, "classify_region", counting)
        return calls

    # each asserts once per point: the band found for the Lemma 1 table also
    # serves case_bounds
    @pytest.mark.parametrize("point", [(-5.0, 2.0), (-3.0, 0.5), (-1.0, -3.0), (0.0, -2.0)])
    def test_classifies_each_point_once(self, point, classify_calls):
        spec = verify.SweepSpec(
            d=2, points=(point,), beta_grid=verify.log_beta_grid(), checks=verify.ALL_CHECKS
        )
        verify.run_sweep(spec)
        assert classify_calls == [point]

    def test_classifies_each_point_once_across_blocks(self, classify_calls):
        points = ((-5.0, 2.0), (-3.0, 0.5), (-1.0, -3.0), (0.0, -2.0)) * 4
        spec = verify.SweepSpec(d=3, points=points, beta_grid=verify.log_beta_grid(), checks=verify.ALL_CHECKS)
        assert kernel.block_points(3, len(spec.beta_grid)) < len(points)
        verify.run_sweep(spec)
        assert classify_calls == list(points)

    def test_no_classification_without_bound_checks(self, classify_calls):
        points = ((-5.0, 2.0), (0.0, -2.0))
        checks = {verify.Check.DOBRUSHIN_SATISFIED}
        verify.run_sweep(verify.SweepSpec(d=2, points=points, beta_grid=(0.5, 1.0), checks=checks))
        assert classify_calls == []


class TestSweepBlockCalls:
    @pytest.fixture
    def table_calls(self, monkeypatch):
        """The names of the kernel tables and bounds.case_bounds calls that
        run_sweep makes, one entry per call, in call order."""
        calls = []
        for module, name in ((kernel, "tv_table"), (kernel, "lemma1_table"), (bounds, "case_bounds")):
            original = getattr(module, name)

            def counting(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(module, name, counting)
        return calls

    @pytest.mark.parametrize("checks", [verify.ALL_CHECKS, verify.BOUND_CHECKS, {verify.Check.DOBRUSHIN_SATISFIED}])
    @pytest.mark.parametrize("block_cells", [None, 1, 2000])
    def test_one_tv_and_at_most_one_lemma1_table_per_block(self, table_calls, monkeypatch, checks, block_cells):
        if block_cells is not None:
            monkeypatch.setattr(kernel, "_SWEEP_BLOCK_CELLS", block_cells)
        # strip points and off-strip points, repeated across blocks
        strip = {(-5.0, 2.0), (-3.0, 0.5), (-1.0, -3.0)}
        points = ((-5.0, 2.0), (0.0, -2.0), (-3.0, 0.5), (1.0, 1.0), (-1.0, -3.0)) * 3
        spec = verify.SweepSpec(d=3, points=points, beta_grid=verify.log_beta_grid(), checks=checks)
        step = kernel.block_points(3, len(spec.beta_grid))
        blocks = [points[i : i + step] for i in range(0, len(points), step)]
        verify.run_sweep(spec)
        # each block: its TV table, then its strip points' Lemma 1 table and
        # case bounds
        want = []
        for block in blocks:
            want.append("tv_table")
            if checks & verify.BOUND_CHECKS and strip & set(block):
                want += ["lemma1_table", "case_bounds"]
        assert table_calls == want
