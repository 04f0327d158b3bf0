import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from beg_dobrushin import (
    DegenerateGroundStateError,
    DomainError,
    ModelParams,
    NeighborConfig,
    classify_region,
    ground_pairs,
    pair_energy,
)
from beg_dobrushin.model import MajorRegion, RegionLabel, SubRegion, check_result, check_spin

from conftest import exact_region, point_in_band, point_in_major

spins = st.sampled_from((-1, 0, 1))
couplings = st.floats(-10, 10, allow_nan=False)

GROUND_BY_MAJOR = {
    MajorRegion.FERROMAGNETIC: frozenset({(-1, -1), (1, 1)}),
    MajorRegion.DISORDERED: frozenset({(0, 0)}),
    MajorRegion.ANTIQUADRUPOLAR: frozenset({(-1, 0), (0, 1)}),
}

F, D, AQ = MajorRegion.FERROMAGNETIC, MajorRegion.DISORDERED, MajorRegion.ANTIQUADRUPOLAR

# points off a line whose float 1 + 2x + y or 1 + x + y is 0 or subnormal
# (the first five) or overflows (the last three), with their exact labels
EXACT_SIDE = {
    (-1e17, 2e17): (F, None),  # 1 + 2x + y = 1
    (5e-324, -1.0): (F, None),
    (-5e-324, -1.0): (D, SubRegion.C),
    (-0.5, 5e-324): (F, None),
    (-0.5, -5e-324): (D, SubRegion.OUTSIDE_U),
    (1e308, -1.5e308): (AQ, SubRegion.OUTSIDE_U),
    (-6e307, -1e308): (D, SubRegion.C),
    (-1e308, 1.7e308): (D, SubRegion.OUTSIDE_U),
}


class TestPairEnergy:
    def test_examples(self):
        assert pair_energy(0, 0, 3.7, -2.1) == 0
        assert pair_energy(1, 1, 0.5, 2.0) == -(1 + 2.0 + 2 * 0.5)
        assert pair_energy(0, 1, 0.5, 2.0) == -0.5

    @given(spins, spins, couplings, couplings)
    def test_symmetry(self, si, sj, x, y):
        assert pair_energy(si, sj, x, y) == pair_energy(sj, si, x, y)
        assert pair_energy(-si, -sj, x, y) == pair_energy(si, sj, x, y)

    def test_rejects_bad_spin(self):
        with pytest.raises(DomainError):
            pair_energy(2, 0, 0.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_couplings(self, bad):
        with pytest.raises(DomainError, match="x must be finite"):
            pair_energy(1, 1, bad, 0.0)
        with pytest.raises(DomainError, match="y must be finite"):
            pair_energy(1, 1, 0.0, bad)


class TestClassifyRegion:
    def test_examples(self):
        label = classify_region(-5, 2)
        assert (label.major, label.sub) == (MajorRegion.DISORDERED, SubRegion.A)
        label = classify_region(-3, 0)
        assert (label.major, label.sub) == (MajorRegion.DISORDERED, SubRegion.B)
        label = classify_region(1, -3)
        assert (label.major, label.sub) == (MajorRegion.ANTIQUADRUPOLAR, SubRegion.OUTSIDE_U)
        assert classify_region(0.1, 0).major is MajorRegion.FERROMAGNETIC

    def test_boundary_label(self):
        # 1 + 2x + y = 0 separates F from D
        assert classify_region(-1, 1).major is MajorRegion.BOUNDARY
        # Boundary is exactly the line: 1e-14 and 1e-10 off it are F
        assert classify_region(-1 + 1e-14, 1).major is MajorRegion.FERROMAGNETIC
        assert classify_region(-1 + 1e-10, 1).major is MajorRegion.FERROMAGNETIC
        # points whose rounded 1 + 2x + y or 1 + x + y is 0 or inf get the
        # exact side, from classify_region and ground_pairs alike
        for (x, y), (major, sub) in EXACT_SIDE.items():
            assert classify_region(x, y) == RegionLabel(major, sub), (x, y)
            assert ground_pairs(x, y) == GROUND_BY_MAJOR[major], (x, y)

    def test_disordered_outside_strip(self):
        # in D but x + y + 1 >= 0
        label = classify_region(-0.6, 0.0)
        assert (label.major, label.sub) == (MajorRegion.DISORDERED, SubRegion.OUTSIDE_U)

    def test_bands_partition_strip(self, rng):
        for _ in range(1000):
            band = rng.choice(["A", "B", "C"])
            x, y = point_in_band(band, rng)
            label = classify_region(x, y)
            assert label.major is MajorRegion.DISORDERED
            assert label.sub is SubRegion[band]

    def test_band_edges(self):
        assert classify_region(-4, 1).sub is SubRegion.A
        assert classify_region(-4, -1).sub is SubRegion.C

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DomainError, match="x must be finite"):
            classify_region(bad, 0.0)
        with pytest.raises(DomainError, match="y must be finite"):
            classify_region(-6.0, bad)


class TestGroundPairs:
    def test_examples(self):
        assert ground_pairs(-5, 2) == frozenset({(0, 0)})
        assert ground_pairs(1, -3) == frozenset({(-1, 0), (0, 1)})
        assert ground_pairs(0.1, 0) == frozenset({(-1, -1), (1, 1)})
        # energies 2e-10 apart are no tie: only exact ties count
        assert ground_pairs(-0.5 + 1e-10, 0) == frozenset({(-1, -1), (1, 1)})

    def test_agrees_with_classification(self, rng):
        majors = list(GROUND_BY_MAJOR)
        for _ in range(1000):
            major = rng.choice(majors)
            x, y = point_in_major(major, rng)
            assert ground_pairs(x, y) == GROUND_BY_MAJOR[major]
            assert classify_region(x, y).major is major

    def test_non_finite_coupling_is_domain_error(self):
        with pytest.raises(DomainError, match="x must be finite"):
            ground_pairs(math.nan, 0.0)

    def test_matches_exact_signs_near_the_lines(self, rng):
        # a few ulps off 1 + 2x + y = 0 and 1 + x + y = 0 for |x| from 1e-8
        # to 1e300, and off x = 0 at subnormal x; Boundary must be exactly
        # where ground_pairs finds no interior ground set
        def ulps(v, k):
            for _ in range(abs(k)):
                v = math.nextafter(v, math.copysign(math.inf, k))
            return v

        boundaries = 0
        for i in range(3000):
            if i % 3 == 2:
                x = rng.randint(-4, 4) * 5e-324
                y = ulps(rng.choice((-1.0, rng.uniform(-5.0, 3.0))), rng.randint(-3, 3))
            else:
                x = ulps(rng.choice((-1, 1)) * 10 ** rng.uniform(-8, 300), rng.randint(-2, 2))
                y = ulps(-1 - (2 - i % 3) * x, rng.randint(-3, 3))
            label = exact_region(x, y)
            assert classify_region(x, y) == label, (x, y)
            if label.major is MajorRegion.BOUNDARY:
                boundaries += 1
                with pytest.raises(DegenerateGroundStateError):
                    ground_pairs(x, y)
            else:
                assert ground_pairs(x, y) == GROUND_BY_MAJOR[label.major], (x, y)
        assert 0 < boundaries < 3000

    def test_boundary_degeneracy_raises(self):
        # on 1 + 2x + y = 0 the pairs ++ and 00 tie
        with pytest.raises(DegenerateGroundStateError):
            ground_pairs(-1, 1)


class TestModelParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            ModelParams(x=0, y=0, beta=-1, d=2)
        with pytest.raises(DomainError):
            ModelParams(x=0, y=0, beta=1, d=0)

    @pytest.mark.parametrize("d", [True, False, 2.0, "2"])
    def test_non_int_dimension_rejected(self, d):
        # True == 1, but a bool is not a lattice dimension
        with pytest.raises(DomainError, match="d must be an integer"):
            ModelParams(x=-3, y=0, beta=1, d=d)

    @pytest.mark.parametrize("field", ["x", "y", "beta"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, bad):
        values = dict(x=-3.0, y=0.5, beta=1.0, d=2)
        values[field] = bad
        with pytest.raises(DomainError, match=field):
            ModelParams(**values)


class TestCheckResult:
    @pytest.mark.parametrize("value", [0.0, -1.5, 5e-324, 1.7976931348623157e308])
    def test_finite_value_returned(self, value):
        assert check_result(value, "r", "at t=1") is value

    def test_non_finite_value_raises_naming_it(self):
        with pytest.raises(DomainError) as err:
            check_result(math.nan, "r", "at y=1.0", "y")
        assert str(err.value) == "r is nan at y=1.0; y is too large in magnitude"

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_defaults_leave_no_space_before_semicolon(self, value):
        with pytest.raises(DomainError) as err:
            check_result(value, "r")
        assert str(err.value) == f"r is {value!r}; an input is too large in magnitude"


class TestCheckSpin:
    @pytest.mark.parametrize("value", [-1, 0, 1, np.int64(1), np.int8(-1), np.uint8(0)])
    def test_accepts_integers_as_int(self, value):
        got = check_spin(value)
        assert type(got) is int
        assert got == value

    @pytest.mark.parametrize(
        "value",
        [True, False, np.True_, 1.0, np.float64(0.0), 2, np.int64(-2), np.array([1, 0]), np.array(1), "1", None],
    )
    def test_rejects_non_spins(self, value):
        with pytest.raises(DomainError, match="spin must be one of"):
            check_spin(value)


class TestNeighborConfig:
    @given(st.lists(spins, min_size=2, max_size=6).filter(lambda s: len(s) % 2 == 0))
    def test_cached_statistics(self, s):
        nb = NeighborConfig(tuple(s))
        tail = s[1:]
        assert nb.k == sum(1 for v in tail if v != 0)
        assert nb.n == sum(tail)
        assert nb.sigma_sq == nb.k + s[0] * s[0]
        assert 0 <= nb.k <= 2 * nb.d - 1
        assert -nb.k <= nb.n <= nb.k
        assert (nb.n - nb.k) % 2 == 0

    def test_rejects_odd_length(self):
        with pytest.raises(DomainError):
            NeighborConfig((1, 0, -1))

    def test_rejects_bad_spin(self):
        for bad in ((1, 2), (1.0, True), (0, np.array([1, 0]))):
            with pytest.raises(DomainError):
                NeighborConfig(bad)

    def test_stores_int_spins(self):
        nb = NeighborConfig(np.array([1, 0, -1, 1]))
        assert nb.spins == (1, 0, -1, 1)
        assert all(type(v) is int for v in (*nb.spins, nb.k, nb.n, nb.sigma_sq))

    def test_with_distinguished(self):
        nb = NeighborConfig((0, 1, -1, 0))
        assert nb.with_distinguished(1).spins == (1, 1, -1, 0)
