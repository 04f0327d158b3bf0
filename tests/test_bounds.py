import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from beg_dobrushin import (
    DomainError,
    ExponentPair,
    ModelParams,
    NeighborConfig,
    SubRegion,
    beta_critical,
    classify_region,
    conditional_distribution,
    exponents,
    lemma1_bound,
    lemma2_bound,
    lemma3_bound,
    psi,
    psi_bound,
    r_of_t,
    theorem1_bound,
    theta,
    theta_sum_bound,
    total_variation,
)

from conftest import point_in_band

REGION_POINTS = {"A": (-5.0, 2.0), "B": (-3.0, 0.0), "C": (-1.0, -3.0)}


def w(a, b, beta):
    return 4 * math.exp(-a * beta) * (1 - math.exp(-b * beta))


def tails(d):
    return list(product((-1, 0, 1), repeat=2 * d - 1))


class TestExponents:
    def test_examples(self):
        ep = exponents(ModelParams(x=-5, y=2, beta=1, d=2))
        assert (ep.a, ep.b) == (8.0, 3.0)
        ep = exponents(ModelParams(x=-3, y=0, beta=1, d=2))
        assert (ep.a, ep.b) == (8.0, 2.0)
        ep = exponents(ModelParams(x=-1, y=-3, beta=1, d=2))
        assert (ep.a, ep.b) == (4.0, 4.0)

    def test_outside_strip_raises(self):
        with pytest.raises(DomainError):
            exponents(ModelParams(x=0.1, y=0, beta=1, d=2))
        with pytest.raises(DomainError):
            exponents(ModelParams(x=-0.6, y=0, beta=1, d=2))

    def test_strip_edge_underflow_raises(self):
        # exactly, 1 + x + y is -7.9e-31, so the point is in band
        # B, but the float x + y + 1 of band_exponents rounds to 0
        x, y = -1.0000000000000002, 2.2204460492503052e-16
        assert classify_region(x, y).sub is SubRegion.B
        with pytest.raises(DomainError, match=r"^exponents must be positive, got a=0\.0, b=2\.0$"):
            exponents(ModelParams(x=x, y=y, beta=1, d=2))

    def test_exponent_pair_validation(self):
        with pytest.raises(DomainError):
            ExponentPair(0.0, 1.0)
        with pytest.raises(DomainError):
            ExponentPair(1.0, -1.0)


class TestROfT:
    def test_unit_value(self):
        assert abs(r_of_t(1.0) - 1.0) <= 1e-14

    def test_paper_roots(self):
        assert r_of_t(5.39315) == pytest.approx(0.25, abs=1e-4)
        assert r_of_t(8.33383) == pytest.approx(1 / 6, abs=1e-4)

    def test_domain(self):
        with pytest.raises(DomainError):
            r_of_t(0.0)
        with pytest.raises(DomainError):
            r_of_t(-2.0)

    @given(st.floats(0.01, 100), st.floats(0.01, 100))
    def test_strictly_decreasing(self, t1, t2):
        lo, hi = sorted((t1, t2))
        # at nearly equal arguments rounding can tie or reverse the order
        if hi <= lo * (1 + 1e-9):
            return
        assert r_of_t(lo) > r_of_t(hi)


class TestBetaCritical:
    def test_symmetric_exponents(self):
        assert beta_critical(ExponentPair(1.0, 1.0)) == pytest.approx(math.log(2))

    @given(st.floats(0.1, 20), st.floats(0.1, 20))
    def test_stationarity_identity(self, a, b):
        bc = beta_critical(ExponentPair(a, b))
        assert math.exp(-bc * b) == pytest.approx(a / (a + b), rel=1e-12)

    def test_value_at_optimum_equals_r(self):
        a, b = 8.0, 3.0
        bc = beta_critical(ExponentPair(a, b))
        assert w(a, b, bc) == pytest.approx(r_of_t(a / b), abs=1e-12)

    def test_grid_scan_confirms_maximum(self, rng):
        for _ in range(20):
            a = rng.uniform(0.1, 20)
            b = rng.uniform(0.1, 20)
            bc = beta_critical(ExponentPair(a, b))
            grid = np.linspace(0, 4 * bc, 10_000)
            values = 4 * np.exp(-a * grid) * (1 - np.exp(-b * grid))
            assert float(values.max()) <= w(a, b, bc) + 1e-12

    def test_tiny_a_overflowing_to_inf_raises(self):
        # (a + b) / a overflows to inf
        with pytest.raises(DomainError, match="beta_critical is inf .* too large in magnitude"):
            beta_critical(ExponentPair(5e-324, 1.0))

    def test_infinite_a_giving_nan_raises(self):
        # (a + b) / a is inf / inf = nan
        with pytest.raises(DomainError, match="beta_critical is nan .* too large in magnitude"):
            beta_critical(ExponentPair(math.inf, 1.0))


# finite in-domain inputs whose scalar bounds overflow to nan: a band A point
# of huge magnitude, a band B point at a huge beta, and a = inf at beta = 0
HUGE_A = ModelParams(x=-1e308, y=9e307, beta=1.0, d=2)
HUGE_BETA = ModelParams(x=-3.0, y=0.0, beta=1e308, d=2)
INFINITE_A = ModelParams(x=-1e308, y=0.5, beta=0.0, d=2)
NB = NeighborConfig((0, 1, 1, 1))


class TestOverflowingScalarBounds:
    @pytest.mark.parametrize(
        "call, params, what",
        [
            (lemma2_bound, HUGE_A, "lemma2_bound"),
            (lemma3_bound, HUGE_A, "lemma3_bound"),
            (lambda p: psi_bound(p, 2), HUGE_A, "psi_bound"),
            (lambda p: theta_sum_bound(p, 2), HUGE_A, "theta_sum_bound"),
            (lambda p: theta(1, NB, 1, p), HUGE_BETA, "theta"),
            # its theta term is the first to overflow
            (lambda p: lemma1_bound(NB, 1, p), HUGE_BETA, "theta"),
            (lambda p: psi(NB.with_distinguished(-1), 1, p), HUGE_BETA, "psi"),
            (theorem1_bound, INFINITE_A, "theorem1_bound"),
        ],
        ids=["lemma2", "lemma3", "psi_bound", "theta_sum", "theta", "lemma1", "psi", "theorem1"],
    )
    def test_nan_is_domain_error_naming_point_and_beta(self, call, params, what):
        with pytest.raises(DomainError) as err:
            call(params)
        assert str(err.value) == (
            f"{what} is nan at point {(params.x, params.y)}, beta {params.beta!r} (d = 2); "
            "the point or beta is too large in magnitude"
        )


class TestTheorem1Bound:
    def test_vanishes_at_extremes(self):
        for x, y in REGION_POINTS.values():
            assert theorem1_bound(ModelParams(x=x, y=y, beta=0.0, d=2)) == 0.0
            assert theorem1_bound(ModelParams(x=x, y=y, beta=500.0, d=2)) == pytest.approx(
                0.0, abs=1e-200
            )

    def test_optimum_matches_r(self):
        params = ModelParams(x=-5, y=2, beta=beta_critical(ExponentPair(8, 3)), d=2)
        assert theorem1_bound(params) == pytest.approx(r_of_t(8 / 3), abs=1e-12)

    def test_never_exceeds_r(self, rng):
        for band in "ABC":
            x, y = point_in_band(band, rng)
            ep = exponents(ModelParams(x=x, y=y, beta=1, d=2))
            cap = r_of_t(ep.a / ep.b)
            for beta in np.geomspace(1e-3, 50, 40):
                bound = theorem1_bound(ModelParams(x=x, y=y, beta=float(beta), d=2))
                assert bound <= cap + 1e-12


def theta_oracle(s, nb, sigma1_tilde, params):
    """Independent evaluation via the h/g product: theta_s = (g(s) - 1) * h(s)."""
    beta, x, y, d = params.beta, params.x, params.y, params.d
    s1, st_ = nb.spins[0], sigma1_tilde

    def h(xi):
        return math.exp(beta * xi * xi * (2 * d * x + y * nb.sigma_sq)) * math.exp(
            beta * xi * sum(nb.spins)
        )

    def g(xi):
        return math.exp(beta * y * xi * xi * (st_ * st_ - s1 * s1)) * math.exp(
            beta * xi * (st_ - s1)
        )

    return (g(s) - 1) * h(s)


class TestThetaPsi:
    def test_zero_at_infinite_temperature(self):
        params = ModelParams(x=-5, y=2, beta=0.0, d=2)
        nb = NeighborConfig((-1, 0, 1, 0))
        assert theta(1, nb, 1, params) == 0.0
        assert theta(-1, nb, 1, params) == 0.0
        assert psi(nb, 1, params) == 0.0

    def test_theta_validation(self):
        params = ModelParams(x=-5, y=2, beta=1.0, d=2)
        nb = NeighborConfig((-1, 0, 1, 0))
        with pytest.raises(DomainError):
            theta(0, nb, 1, params)
        with pytest.raises(DomainError):
            theta(1, nb, -1, params)

    @pytest.mark.parametrize("s", [True, False, 1.0, -1.0, 0.5, np.float64(1.0), np.array([1]), 2, None])
    def test_theta_rejects_non_spin_origin(self, s):
        # a bool or a float equal to +-1 is not a spin
        params = ModelParams(x=-3, y=0.5, beta=1.0, d=2)
        nb = NeighborConfig((0, 1, -1, 1))
        with pytest.raises(DomainError):
            theta(s, nb, 1, params)

    @pytest.mark.parametrize("s", [1, -1])
    def test_theta_takes_numpy_integer_origin(self, s):
        params = ModelParams(x=-3, y=0.5, beta=1.0, d=2)
        nb = NeighborConfig((0, 1, -1, 1))
        for spin in (np.int8(s), np.int64(s)):
            assert theta(spin, nb, 1, params) == theta(s, nb, 1, params)
        with pytest.raises(DomainError):
            theta(np.int64(0), nb, 1, params)

    def test_theta_equal_magnitude_inner_factor(self):
        # sigma_1 = -1 -> +1 leaves the y term untouched: inner factor e^{2 beta s} - 1
        params = ModelParams(x=-4, y=1.7, beta=0.9, d=2)
        nb = NeighborConfig((-1, 1, 0, -1))
        for s in (-1, 1):
            prefix = math.exp(params.beta * (4 * params.x + params.y * nb.sigma_sq))
            suffix = math.exp(params.beta * s * sum(nb.spins))
            want = prefix * (math.exp(2 * params.beta * s) - 1) * suffix
            assert theta(s, nb, 1, params) == pytest.approx(want, rel=1e-13)

    def test_theta_against_hg_oracle(self, rng):
        params = ModelParams(x=-5, y=2, beta=0.5, d=2)
        nb = NeighborConfig((-1, 0, 1, 0))
        assert theta(1, nb, 1, params) == pytest.approx(
            theta_oracle(1, nb, 1, params), rel=1e-12
        )
        for _ in range(200):
            d = rng.choice([1, 2, 3])
            x, y = point_in_band(rng.choice("ABC"), rng)
            params = ModelParams(x=x, y=y, beta=rng.uniform(0, 3), d=d)
            spins = tuple(rng.choice((-1, 0, 1)) for _ in range(2 * d))
            nb = NeighborConfig(spins)
            tilde = rng.choice([v for v in (-1, 0, 1) if v != spins[0]])
            s = rng.choice((-1, 1))
            want = theta_oracle(s, nb, tilde, params)
            assert theta(s, nb, tilde, params) == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_psi_sign_symmetry_from_zero(self):
        params = ModelParams(x=-3, y=0.5, beta=1.2, d=2)
        nb = NeighborConfig((0, 1, -1, 1))
        assert abs(psi(nb, 1, params)) == pytest.approx(abs(psi(nb, -1, params)), rel=1e-13)

    def test_psi_closed_form_equal_magnitude(self):
        params = ModelParams(x=-4, y=1.5, beta=0.8, d=2)
        nb = NeighborConfig((-1, 1, 0, 1))  # k = 2 nonzero tail spins
        want = 2 * math.exp(params.beta * (8 * params.x + 2 * (nb.k + 1) * params.y)) * math.sinh(
            2 * params.beta
        )
        assert psi(nb, 1, params) == pytest.approx(want, rel=1e-13)


class TestReconstructionIdentity:
    def test_rows_recombine_to_theta_psi(self, rng):
        for _ in range(300):
            d = rng.choice([1, 2, 3])
            x, y = point_in_band(rng.choice("ABC"), rng)
            params = ModelParams(x=x, y=y, beta=rng.uniform(0, 2.5), d=d)
            spins = tuple(rng.choice((-1, 0, 1)) for _ in range(2 * d))
            nb = NeighborConfig(spins)
            tilde = rng.choice([v for v in (-1, 0, 1) if v != spins[0]])
            beta = params.beta

            def h(xi):
                return math.exp(
                    beta * xi * xi * (2 * d * x + y * nb.sigma_sq) + beta * xi * sum(spins)
                )

            def g(xi):
                return math.exp(
                    beta * y * xi * xi * (tilde * tilde - spins[0] * spins[0])
                    + beta * xi * (tilde - spins[0])
                )

            tp = theta(1, nb, tilde, params)
            tm = theta(-1, nb, tilde, params)
            ps = psi(nb, tilde, params)
            for xi in (-1, 0, 1):
                lhs = h(xi) * sum((g(eta) - g(xi)) * h(eta) for eta in (-1, 0, 1))
                rhs = tp + tm if xi == 0 else -theta(xi, nb, tilde, params) - xi * ps
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestLemma1Bound:
    def test_zero_at_infinite_temperature(self):
        params = ModelParams(x=-3, y=0, beta=0.0, d=2)
        assert lemma1_bound(NeighborConfig((0, 1, 1, -1)), 1, params) == 0.0

    def test_pair_normalization_is_symmetric(self):
        params = ModelParams(x=-3, y=0.2, beta=1.3, d=2)
        nb = NeighborConfig((1, 0, -1, 1))
        swapped = nb.with_distinguished(0)
        assert lemma1_bound(nb, 0, params) == lemma1_bound(swapped, 1, params)
        nb = NeighborConfig((1, 0, -1, 1))
        assert lemma1_bound(nb, -1, params) == lemma1_bound(nb.with_distinguished(-1), 1, params)

    def test_regression_value(self):
        params = ModelParams(x=-3, y=0, beta=1.0, d=2)
        value = lemma1_bound(NeighborConfig((0, 1, 1, -1)), 1, params)
        assert value == pytest.approx(3.0127118390969132e-05, rel=1e-12)

    def test_dominates_exact_tv(self, rng):
        for _ in range(300):
            d = rng.choice([1, 2, 3])
            x, y = point_in_band(rng.choice("ABC"), rng)
            params = ModelParams(x=x, y=y, beta=rng.uniform(0, 5), d=d)
            spins = tuple(rng.choice((-1, 0, 1)) for _ in range(2 * d))
            nb = NeighborConfig(spins)
            tilde = rng.choice([v for v in (-1, 0, 1) if v != spins[0]])
            tv = total_variation(
                conditional_distribution(params, nb),
                conditional_distribution(params, nb.with_distinguished(tilde)),
            )
            assert tv <= lemma1_bound(nb, tilde, params) + 1e-12


class TestCaseBounds:
    def test_zero_at_infinite_temperature(self):
        for x, y in REGION_POINTS.values():
            params = ModelParams(x=x, y=y, beta=0.0, d=2)
            assert lemma2_bound(params) == 0.0
            assert lemma3_bound(params) == 0.0

    def test_lemma3_c_branch_value(self):
        params = ModelParams(x=-1, y=-3, beta=1.0, d=2)
        assert lemma3_bound(params) == pytest.approx(3 * math.exp(-4) * (1 - math.exp(-4)))

    def test_outside_strip_raises(self):
        with pytest.raises(DomainError):
            lemma2_bound(ModelParams(x=1, y=1, beta=1, d=2))
        with pytest.raises(DomainError):
            lemma3_bound(ModelParams(x=1, y=1, beta=1, d=2))

    @pytest.mark.parametrize("x,y", list(REGION_POINTS.values()))
    @pytest.mark.parametrize("beta", [0.1, 1.0, 5.0])
    def test_lemma2_dominates_equal_magnitude_pairs(self, x, y, beta):
        params = ModelParams(x=x, y=y, beta=beta, d=2)
        cap = lemma2_bound(params)
        for tail in tails(2):
            nb = NeighborConfig((-1, *tail))
            assert lemma1_bound(nb, 1, params) <= cap + 1e-12

    @pytest.mark.parametrize("x,y", list(REGION_POINTS.values()))
    @pytest.mark.parametrize("beta", [0.1, 1.0, 5.0])
    def test_lemma3_dominates_mixed_pairs(self, x, y, beta):
        params = ModelParams(x=x, y=y, beta=beta, d=2)
        cap = lemma3_bound(params)
        for tail in tails(2):
            nb = NeighborConfig((0, *tail))
            for tilde in (-1, 1):
                assert lemma1_bound(nb, tilde, params) <= cap + 1e-12

    def test_case_bounds_below_theorem1(self, rng):
        # the constant 4 in the region-wide bound absorbs both case prefactors
        for _ in range(200):
            x, y = point_in_band(rng.choice("ABC"), rng)
            params = ModelParams(x=x, y=y, beta=rng.uniform(1e-3, 50), d=rng.choice([1, 2, 3]))
            cap = theorem1_bound(params)
            assert lemma2_bound(params) <= cap + 1e-12
            assert lemma3_bound(params) <= cap + 1e-12


class TestIntermediateBounds:
    def test_zero_at_infinite_temperature(self):
        params = ModelParams(x=-3, y=0, beta=0.0, d=2)
        assert theta_sum_bound(params, 1) == 0.0
        assert psi_bound(params, 1) == 0.0

    def test_k_range(self):
        params = ModelParams(x=-3, y=0, beta=1.0, d=2)
        with pytest.raises(DomainError):
            theta_sum_bound(params, 4)
        with pytest.raises(DomainError):
            psi_bound(params, -1)

    @pytest.mark.parametrize("k", [1.5, True, np.True_, 2.0])
    def test_k_must_be_an_integer(self, k):
        # 1.5 and True once passed the range test
        params = ModelParams(x=-3, y=0, beta=1.0, d=2)
        for bound in (theta_sum_bound, psi_bound):
            with pytest.raises(DomainError, match=r"k must be an integer in \[0, 3\], got "):
                bound(params, k)

    def test_branch_continuity_at_y_one(self):
        above = theta_sum_bound(ModelParams(x=-4, y=1.0, beta=0.7, d=2), 2)
        # both regimes reduce to 2 e^{beta(2dx + 2(k+1))} (1 - e^{-2 beta}) at y = 1
        below = 2 * math.exp(0.7 * (-16 + 3 * 2)) * (1 - math.exp(-1.4))
        assert above == pytest.approx(below, rel=1e-13)

    def test_sinh_identity(self):
        for beta in np.linspace(0, 20, 101):
            assert 2 * math.sinh(beta) == pytest.approx(
                math.exp(beta) * (1 - math.exp(-2 * beta)), rel=1e-14, abs=1e-14
            )

    @pytest.mark.parametrize("x,y", list(REGION_POINTS.values()))
    @pytest.mark.parametrize("beta", [0.1, 1.0, 5.0])
    def test_dominate_exact_terms_for_zero_to_one_pairs(self, x, y, beta):
        params = ModelParams(x=x, y=y, beta=beta, d=2)
        for tail in tails(2):
            nb = NeighborConfig((0, *tail))
            theta_exact = abs(theta(1, nb, 1, params)) + abs(theta(-1, nb, 1, params))
            assert theta_exact <= theta_sum_bound(params, nb.k) + 1e-12
            for tilde in (-1, 1):
                assert abs(psi(nb, tilde, params)) <= psi_bound(params, nb.k) + 1e-12


def decay(c, e, g):
    return c * math.exp(e) * -math.expm1(g)


def per_regime_bounds(params, k):
    """(lemma3, theorem1, theta_sum, psi) bounds with each y-regime written
    out as its own formula, as in the paper's case split."""
    beta, x, y, d = params.beta, params.x, params.y, params.d
    e_psi = beta * (4 * d * x + (2 * k + 1) * y + 1)
    if y >= 1:
        return (
            decay(3.0, beta * (2 * d * x + 2 * d * (y + 1)), -beta * (y + 1)),
            decay(4.0, -beta * (2 * d * abs(x + y + 1)), -beta * (y + 1)),
            decay(2.0, beta * (2 * d * x + (k + 1) * (y + 1)), -beta * (y + 1)),
            decay(1.0, e_psi, -beta * (y + 1)),
        )
    if y <= -1:
        return (
            decay(3.0, 2 * d * beta * x, beta * (y - 1)),
            decay(4.0, -beta * (2 * d * abs(x)), -beta * (abs(y) + 1)),
            decay(2.0, beta * (2 * d * x + k * (y + 1)), beta * (y - 1)),
            decay(1.0, e_psi, beta * (y - 1)),
        )
    return (
        decay(3.0, beta * (2 * d * x + 2 * d * (y + 1)), -2 * beta),
        decay(4.0, -beta * (2 * d * abs(x + y + 1)), -beta * 2.0),
        decay(2.0, beta * (2 * d * x + (k + 1) * (y + 1)), -2 * beta),
        decay(1.0, e_psi, -2 * beta),
    )


# one interior y per band, and y at and next to both band edges
BAND_EDGE_YS = [
    2.5,
    math.nextafter(1, math.inf),
    1.0,
    math.nextafter(1, 0),
    0.3,
    math.nextafter(-1, 0),
    -1.0,
    math.nextafter(-1, -math.inf),
    -3.0,
]


class TestBandEdgeBits:
    @pytest.mark.parametrize("y", BAND_EDGE_YS)
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_equal_to_per_regime_formulas(self, y, d):
        for x in (-5.0, -4.75):
            for beta in (0.0, 0.37, 4.0, 30.0):
                params = ModelParams(x=x, y=y, beta=beta, d=d)
                for k in range(2 * d):
                    got = (
                        lemma3_bound(params),
                        theorem1_bound(params),
                        theta_sum_bound(params, k),
                        psi_bound(params, k),
                    )
                    assert repr(got) == repr(per_regime_bounds(params, k)), (x, y, beta, d, k)
