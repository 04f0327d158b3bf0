import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from beg_dobrushin import (
    DomainError,
    ModelParams,
    blume_capel_xc,
    curve_x,
    exponents,
    in_dobrushin_region,
    r_of_t,
    solve_t_d,
)
from beg_dobrushin.bounds import require_sub_region
from beg_dobrushin.model import SubRegion

from conftest import point_in_band, sequential_t_d


class TestSolveTd:
    def test_paper_values(self):
        assert solve_t_d(2) == pytest.approx(5.39315, abs=1e-4)
        assert solve_t_d(3) == pytest.approx(8.33383, abs=1e-4)

    @pytest.mark.parametrize("d", range(1, 8))
    def test_root_residual(self, d):
        assert abs(r_of_t(solve_t_d(d)) - 1 / (2 * d)) <= 1e-10

    @pytest.mark.parametrize("d", range(1, 51))
    def test_matches_sequential_bisection(self, d):
        assert solve_t_d(d).hex() == sequential_t_d(d).hex()

    def test_one_dimension(self):
        assert r_of_t(solve_t_d(1)) == pytest.approx(0.5, abs=1e-10)

    def test_validation(self):
        with pytest.raises(DomainError):
            solve_t_d(0)

    def test_bool_rejected_after_int_cached(self):
        # True == 1 hashes like 1, so the cache must not answer it
        solve_t_d(1)
        with pytest.raises(DomainError, match="d must be an integer"):
            solve_t_d(True)


class TestCurve:
    def test_blume_capel_slice(self):
        assert curve_x(2, 0) == pytest.approx(-3.69658, abs=1e-4)
        assert curve_x(3, 0) == pytest.approx(-3.77794, abs=1e-4)

    @pytest.mark.parametrize("d", range(1, 8))
    def test_continuity_at_band_edges(self, d):
        t = solve_t_d(d)
        upper = -((t + 2 * d) / (2 * d)) * 2  # y >= 1 branch at y = 1
        middle_at_one = -(2 * d + t) / d  # |y| < 1 branch at y = 1
        assert abs(upper - middle_at_one) <= 1e-12
        lower = -(t / (2 * d)) * 2  # y <= -1 branch at y = -1
        middle_at_minus_one = -t / d  # |y| < 1 branch at y = -1
        assert abs(lower - middle_at_minus_one) <= 1e-12

    def test_blume_capel_equals_curve_at_zero(self):
        for d in range(1, 8):
            assert blume_capel_xc(d) == curve_x(d, 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DomainError, match="y must be finite"):
            curve_x(2, bad)

    @pytest.mark.parametrize("d", range(1, 7))
    def test_matches_band_closed_forms(self, d):
        # the paper's per-band curve, x = -((t + 2d)/(2d))(y + 1) on A,
        # -(d(y + 1) + t)/d on B and -(t/(2d))(|y| + 1) on C, evaluated
        # exactly at the float t_d; curve_x's at most four roundings (of
        # t/(2d), b(y), the product and the y + 1 shift) keep it within a
        # relative 4 * 2^-53 of that
        t = Fraction(solve_t_d(d))
        rng = random.Random(7000 + d)
        for lo, hi in ((1.0, 1e6), (-1.0, 1.0), (-1e6, -1.0)):
            for y in [lo, hi] + [rng.uniform(lo, hi) for _ in range(300)]:
                fy = Fraction(y)
                if y >= 1:
                    exact = -((t + 2 * d) / (2 * d)) * (fy + 1)
                elif y <= -1:
                    exact = -(t / (2 * d)) * (abs(fy) + 1)
                else:
                    exact = -(d * (fy + 1) + t) / d
                assert abs(Fraction(curve_x(d, y)) - exact) <= abs(exact) * Fraction(4, 2**53), y

    def test_overflow_raises(self):
        # -(t / 4) * (1e308 + 1) - (1e308 + 1) is below -max float
        with pytest.raises(DomainError, match="curve x is -inf at y=1e\\+308 .* too large in magnitude"):
            curve_x(2, 1e308)

    def test_finite_near_float_limit(self):
        # the y <= -1 branch, -(t / 4) * (|y| + 1), stays finite at y = -1e308
        assert curve_x(2, -1e308) == -(solve_t_d(2) / 4) * (1e308 + 1)


class TestMembership:
    def test_false_where_curve_overflows(self):
        # a band-A point whose curve x is -inf: no finite x lies left of it
        assert require_sub_region(-1.7e308, 1e308) is SubRegion.A
        assert not in_dobrushin_region(2, -1.7e308, 1e308)

    @pytest.mark.parametrize("x, y", [(1.0, 1.0), (-6.0, 0.0)])
    def test_dimension_checked_outside_the_strip_too(self, x, y):
        # (1, 1) is ferromagnetic: the answer was False before d was read
        with pytest.raises(DomainError, match="d must be an integer >= 1, got 0"):
            in_dobrushin_region(0, x, y)

    def test_examples(self):
        assert in_dobrushin_region(2, -6, 0)
        assert not in_dobrushin_region(2, -3, 0)
        assert not in_dobrushin_region(2, 1, -3)
        # inside the strip at y = 2 but right of the curve x(2, 2) ~ -7.045
        assert not in_dobrushin_region(2, -5, 2)
        assert in_dobrushin_region(2, -8, 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        for x, y in ((bad, 0.0), (-6.0, bad)):
            with pytest.raises(DomainError, match="must be finite"):
                in_dobrushin_region(2, x, y)
            with pytest.raises(DomainError, match="must be finite"):
                require_sub_region(x, y)

    def test_characterizations_agree(self, rng):
        # membership via the curve matches r(a/b) < 1/(2d) on the strip
        for _ in range(10_000):
            d = rng.choice([1, 2, 3])
            x, y = point_in_band(rng.choice("ABC"), rng)
            ep = exponents(ModelParams(x=x, y=y, beta=1.0, d=d))
            by_r = r_of_t(ep.a / ep.b) < 1 / (2 * d)
            assert in_dobrushin_region(d, x, y) == by_r

    @given(
        st.integers(1, 3),
        st.floats(-5, 4),
        st.floats(0.05, 3),
        st.floats(0.05, 3),
    )
    def test_downward_closed_in_x(self, d, y, off, step):
        x = curve_x(d, y) - off
        if in_dobrushin_region(d, x, y):
            assert in_dobrushin_region(d, x - step, y)
