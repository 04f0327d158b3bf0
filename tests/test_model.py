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
from beg_dobrushin.model import MajorRegion, SubRegion, check_spin

from conftest import point_in_band, point_in_major

spins = st.sampled_from((-1, 0, 1))
couplings = st.floats(-10, 10, allow_nan=False)

GROUND_BY_MAJOR = {
    MajorRegion.FERROMAGNETIC: frozenset({(-1, -1), (1, 1)}),
    MajorRegion.DISORDERED: frozenset({(0, 0)}),
    MajorRegion.ANTIQUADRUPOLAR: frozenset({(-1, 0), (0, 1)}),
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
        assert classify_region(-1 + 1e-14, 1).major is MajorRegion.BOUNDARY

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
