import math
import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from beg_dobrushin import (
    CapacityError,
    DomainError,
    ModelParams,
    NeighborConfig,
    SpinDistribution,
    conditional_distribution,
    exact_max_tv,
    finite_volume_marginal,
    pair_energy,
    total_variation,
)
from beg_dobrushin import kernel
from beg_dobrushin.kernel import PAIR_ORDER, classes
from beg_dobrushin.specification import boundary_ring
from conftest import brute_force_marginal, cell_tv_table, class_loop_max_tv, full_tails

spins = st.sampled_from((-1, 0, 1))


def full_hamiltonian_conditional(params, spins_tuple):
    """Independent oracle: normalize the full single-site Boltzmann weight
    exp(-beta * sum of pair energies with every neighbor)."""
    weights = []
    for xi in (-1, 0, 1):
        energy = sum(pair_energy(xi, s, params.x, params.y) for s in spins_tuple)
        weights.append(math.exp(-params.beta * energy))
    z = sum(weights)
    return (weights[0] / z, weights[1] / z, weights[2] / z)


def nb_strategy(d):
    return st.tuples(*[spins] * (2 * d)).map(NeighborConfig)


params_strategy = st.builds(
    ModelParams,
    x=st.floats(-6, 6),
    y=st.floats(-6, 6),
    beta=st.floats(0, 3),
    d=st.just(2),
)


class TestSpinDistribution:
    def test_validation(self):
        with pytest.raises(DomainError):
            SpinDistribution(0.5, 0.5, 0.5)
        with pytest.raises(DomainError):
            SpinDistribution(-0.5, 0.5, 1.0)
        # the sum may miss 1 by up to 1e-12
        assert SpinDistribution(0.5, 0.5 + 5e-13, 0.0).p_zero == 0.5 + 5e-13
        with pytest.raises(DomainError, match="not 1"):
            SpinDistribution(0.5, 0.5 + 2e-12, 0.0)


class TestConditionalDistribution:
    def test_infinite_temperature_is_uniform(self):
        params = ModelParams(x=1.3, y=-0.7, beta=0.0, d=2)
        nb = NeighborConfig((1, -1, 0, 1))
        assert conditional_distribution(params, nb).as_tuple() == (1 / 3, 1 / 3, 1 / 3)

    def test_all_zero_neighbors_hand_value(self):
        params = ModelParams(x=-3, y=0, beta=1.0, d=2)
        nb = NeighborConfig((0, 0, 0, 0))
        dist = conditional_distribution(params, nb)
        z = 1 + 2 * math.exp(-12)
        assert dist.p_zero == pytest.approx(1 / z, abs=1e-15)
        assert dist.p_plus == pytest.approx(math.exp(-12) / z, abs=1e-15)
        assert dist.p_minus == pytest.approx(math.exp(-12) / z, abs=1e-15)

    def test_wrong_neighbor_count(self):
        with pytest.raises(DomainError):
            conditional_distribution(ModelParams(x=0, y=0, beta=1, d=3), NeighborConfig((0, 0)))

    @given(params_strategy, nb_strategy(2))
    def test_matches_full_hamiltonian_oracle(self, params, nb):
        got = conditional_distribution(params, nb).as_tuple()
        want = full_hamiltonian_conditional(params, nb.spins)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-12)

    @given(params_strategy, nb_strategy(2))
    def test_spin_flip_symmetry(self, params, nb):
        flipped = NeighborConfig(tuple(-s for s in nb.spins))
        got = conditional_distribution(params, flipped).as_tuple()
        want = conditional_distribution(params, nb).as_tuple()[::-1]
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-15)


prob_triples = st.tuples(st.floats(0.01, 1), st.floats(0.01, 1), st.floats(0.01, 1)).map(
    lambda t: SpinDistribution(*(v / sum(t) for v in t))
)


class TestTotalVariation:
    def test_examples(self):
        p = SpinDistribution(0.5, 0.5, 0.0)
        q = SpinDistribution(0.0, 0.5, 0.5)
        assert total_variation(p, p) == 0
        assert total_variation(p, q) == pytest.approx(0.5)
        plus = SpinDistribution(0.0, 0.0, 1.0)
        minus = SpinDistribution(1.0, 0.0, 0.0)
        assert total_variation(plus, minus) == 1

    @given(prob_triples, prob_triples, prob_triples)
    def test_metric_properties(self, p, q, r):
        assert 0 <= total_variation(p, q) <= 1
        assert total_variation(p, q) == total_variation(q, p)
        assert total_variation(p, r) <= total_variation(p, q) + total_variation(q, r) + 1e-15


def brute_force_max_tv(params, distinguished_index=0):
    """Loop-based oracle: maximize TV over every full neighbor configuration and
    every replacement at the given neighbor index."""
    best = 0.0
    for config in product((-1, 0, 1), repeat=2 * params.d):
        base = conditional_distribution(params, NeighborConfig(config))
        for repl in (-1, 0, 1):
            if repl == config[distinguished_index]:
                continue
            other = list(config)
            other[distinguished_index] = repl
            dist = conditional_distribution(params, NeighborConfig(tuple(other)))
            best = max(best, total_variation(base, dist))
    return best


class TestExactMaxTv:
    def test_infinite_temperature(self):
        report = exact_max_tv(ModelParams(x=-2, y=1, beta=0.0, d=3))
        assert report.max_tv == 0.0
        assert report.satisfied

    def test_inside_curve_satisfied(self):
        report = exact_max_tv(ModelParams(x=-6, y=0, beta=1.0, d=2))
        assert report.satisfied
        assert report.row_sum == 4 * report.max_tv

    def test_overflowing_beta_is_named(self):
        # the TV overflows at beta 1e308 at an ordinary point
        with pytest.raises(DomainError) as err:
            exact_max_tv(ModelParams(x=6.0, y=0.0, beta=1e308, d=2))
        assert str(err.value) == (
            "max TV is nan at beta 1e+308 for point (6.0, 0.0) (d = 2); the point or beta is too large in magnitude"
        )

    def test_exact_tie_fails(self, monkeypatch):
        # Dobrushin's condition is strict: a max TV of exactly 1/(2d) fails
        def at_threshold(d, x, y, betas):
            return np.array([1 / (2 * d)]), np.array([0]), np.array([0])

        monkeypatch.setattr(kernel, "max_tv", at_threshold)
        report = exact_max_tv(ModelParams(x=-6, y=0, beta=1.0, d=2))
        assert report.max_tv == 0.25
        assert not report.satisfied

    def test_concluding_remark_point_fails(self):
        # at (0, y) with y < -1 the condition breaks at low temperature
        report = exact_max_tv(ModelParams(x=0, y=-2, beta=20.0, d=2))
        assert not report.satisfied

    @pytest.mark.parametrize("d", [8, 50])
    @pytest.mark.parametrize(
        "x,y,beta", [(-2, 0, 1.0), (0, -2, 20.0), (-1.2, -2.0, 3.0), (-0.3, 1.5, 0.05)]
    )
    def test_large_d_matches_class_loop(self, d, x, y, beta):
        params = ModelParams(x=x, y=y, beta=beta, d=d)
        assert exact_max_tv(params).max_tv == pytest.approx(
            class_loop_max_tv(params), rel=1e-12, abs=1e-300
        )

    def test_argmax_is_a_maximizer(self):
        params = ModelParams(x=-1.5, y=-2.5, beta=2.0, d=2)
        report = exact_max_tv(params)
        nb, tilde = report.argmax_pair
        tv = total_variation(
            conditional_distribution(params, nb),
            conditional_distribution(params, nb.with_distinguished(tilde)),
        )
        assert tv == pytest.approx(report.max_tv, abs=1e-15)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("x,y,beta", [(-3, 0, 1.0), (-1.2, -2.0, 3.0), (-5, 2, 0.7)])
    def test_matches_brute_force(self, d, x, y, beta):
        params = ModelParams(x=x, y=y, beta=beta, d=d)
        assert exact_max_tv(params).max_tv == pytest.approx(
            brute_force_max_tv(params), abs=1e-13
        )

    def test_distinguished_index_exchangeable(self):
        # the maximum does not depend on which neighbor carries the replacement
        params = ModelParams(x=-2.5, y=0.4, beta=1.5, d=2)
        report = exact_max_tv(params)
        for j in (1, 3):
            assert brute_force_max_tv(params, distinguished_index=j) == pytest.approx(
                report.max_tv, abs=1e-13
            )


def full_enumeration_report(params):
    """Tail-major first maximizer over all 3^(2d-1) tails and the pairs."""
    tails = full_tails(params.d)
    tv = cell_tv_table(params, tails)
    tail_i, pair_i = divmod(int(np.argmax(tv)), tv.shape[1])
    s1, s1_tilde = PAIR_ORDER[pair_i]
    nb = NeighborConfig((s1, *(int(v) for v in tails[tail_i])))
    return float(tv[tail_i, pair_i]), (nb, s1_tilde)


def seeded_params(d, count=30):
    rng = random.Random(1000 + d)
    betas = [0.0] + [10 ** rng.uniform(-3, 1.7) for _ in range(count - 1)]
    return [ModelParams(x=rng.uniform(-8, 2), y=rng.uniform(-5, 4), beta=b, d=d) for b in betas]


class TestClassReduction:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_matches_full_enumeration_bit_for_bit(self, d):
        for params in seeded_params(d):
            report = exact_max_tv(params)
            max_tv, argmax_pair = full_enumeration_report(params)
            assert report.max_tv == max_tv, params
            assert report.argmax_pair == argmax_pair, params

    @pytest.mark.parametrize("d", [1, 8, 21, 50])
    def test_multiplicities_are_exact(self, d):
        table = classes(d)
        assert len(table.mult) == len(table.k) == len(table.n) == d * (2 * d + 1)
        assert all(type(c) is int for c in table.mult)
        assert sum(table.mult) == 3 ** (2 * d - 1)


class TestFiniteVolumeMarginal:
    def test_infinite_temperature(self):
        params = ModelParams(x=0.3, y=-0.8, beta=0.0, d=2)
        for side in (2, 3):
            dist = finite_volume_marginal(params, side, 1)
            assert dist.as_tuple() == (1 / 3, 1 / 3, 1 / 3)

    def test_boundary_flip_symmetry(self):
        params = ModelParams(x=-1.5, y=0.5, beta=0.8, d=2)
        plus = finite_volume_marginal(params, 3, 1)
        minus = finite_volume_marginal(params, 3, -1)
        for g, w in zip(minus.as_tuple(), plus.as_tuple()[::-1]):
            assert g == pytest.approx(w, abs=1e-14)

    def test_boundary_sensitivity_regression(self):
        # frozen exact-enumeration baseline deep inside the uniqueness region
        params = ModelParams(x=-6, y=0, beta=1.0, d=2)
        tv = total_variation(
            finite_volume_marginal(params, 3, 0),
            finite_volume_marginal(params, 3, 1),
        )
        assert tv < 0.25
        assert tv == pytest.approx(1.5746336156355878e-20, rel=1e-6, abs=1e-30)

    @pytest.mark.parametrize("side", [np.int64(3), np.int32(2), np.uint8(3)])
    def test_numpy_integer_box_side(self, side):
        params = ModelParams(x=-1.0, y=0.5, beta=0.7, d=2)
        assert finite_volume_marginal(params, side, 1) == finite_volume_marginal(params, int(side), 1)

    @pytest.mark.parametrize("side", [True, np.bool_(True)])
    def test_bool_box_side_is_domain_error(self, side):
        with pytest.raises(DomainError, match="box_side must be an integer, got"):
            finite_volume_marginal(ModelParams(x=0, y=0, beta=1, d=2), side, 0)

    def test_guards(self):
        with pytest.raises(DomainError):
            finite_volume_marginal(ModelParams(x=0, y=0, beta=1, d=3), 3, 0)
        with pytest.raises(CapacityError):
            finite_volume_marginal(ModelParams(x=0, y=0, beta=1, d=2), 4, 0)
        with pytest.raises(DomainError):
            finite_volume_marginal(ModelParams(x=0, y=0, beta=1, d=2), 3, {(0, -1): 1})
        params = ModelParams(x=0, y=0, beta=1, d=2)
        with pytest.raises(DomainError, match="box_side must be an integer, got 3.0"):
            finite_volume_marginal(params, 3.0, 0)
        for spin in (2, 0.5, "1", None, [1], True, 1.0, np.array([1, 0])):
            with pytest.raises(DomainError, match="spin must be one of"):
                finite_volume_marginal(params, 2, spin)
        ring = dict.fromkeys(boundary_ring(3), 1)
        with pytest.raises(DomainError, match=r"off the ring \[\(1, 1\)\]"):
            finite_volume_marginal(params, 3, {**ring, (1, 1): -1})
        with pytest.raises(DomainError, match="spin must be one of"):
            finite_volume_marginal(params, 3, {**ring, (0, -1): 2})
        # an integral numpy scalar is a spin, alone or in a ring mapping
        expected = finite_volume_marginal(params, 2, 1)
        assert finite_volume_marginal(params, 2, np.int64(1)) == expected
        assert finite_volume_marginal(params, 2, dict.fromkeys(boundary_ring(2), np.int64(1))) == expected

    @pytest.mark.parametrize(
        "side, x, y, beta, spins, expected",
        [
            (2, -2.5, 0.7, 1.7, [1, 0, -1, -1, 0, 1, 1, 1],
             (2.486031146389224e-08, 0.9999992302134996, 7.449261891081429e-07)),
            (3, 0.4, 1.5, 0.9, [-1, 0, 1] * 4,
             (0.4999670860163536, 6.582796731962457e-05, 0.4999670860163267)),
        ],
    )
    def test_pinned_floats(self, side, x, y, beta, spins, expected):
        # exact floats of one pair_energy call per bond, summed in bond order
        ring = dict(zip(boundary_ring(side), spins))
        dist = finite_volume_marginal(ModelParams(x=x, y=y, beta=beta, d=2), side, ring)
        assert dist.as_tuple() == expected

    @pytest.mark.parametrize("side", [2, 3])
    def test_matches_brute_force_oracle(self, side):
        rng = random.Random(4100 + side)
        points = [(-1.5, 0.5, 0.8), (0.4, 1.5, 3.0), (-6.2, 0.7, 1.1), (-0.3, -2.5, 2.2)]
        sites = boundary_ring(side)
        for x, y, beta in points:
            rings = [dict.fromkeys(sites, s) for s in (-1, 0, 1)]
            rings += [{site: rng.choice((-1, 0, 1)) for site in sites} for _ in range(2)]
            for ring in rings:
                dist = finite_volume_marginal(ModelParams(x=x, y=y, beta=beta, d=2), side, ring)
                expected = brute_force_marginal(x, y, beta, side, ring)
                assert dist.as_tuple() == pytest.approx(expected, abs=1e-12), (x, y, beta, ring)
