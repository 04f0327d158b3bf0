"""The integer contract of the public API: each integer argument (a dimension
d, a spin, a box side, a neighbour count k, a points-per-region count) takes an
int or a numpy integer and gives the int's result bit for bit; a bool, a
float, a 0-d array, a string, None or an out-of-range int raises DomainError
naming the argument."""

from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beg_dobrushin import (
    CapacityError,
    DomainError,
    ModelParams,
    NeighborConfig,
    SweepSpec,
    blume_capel_xc,
    curve_x,
    default_certification_spec,
    finite_volume_marginal,
    find_failure_beta,
    in_dobrushin_region,
    lemma1_bound,
    pair_energy,
    psi,
    psi_bound,
    run_sweep,
    solve_t_d,
    theta,
    theta_sum_bound,
)
from beg_dobrushin.specification import boundary_ring
from beg_dobrushin.verify import ALL_CHECKS, sample_strip_points

NUMPY_INTS = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)
NOT_INTS = (True, np.True_, 2.0, np.float64(2), np.array(2), "2", None)

PARAMS = ModelParams(x=-3.0, y=0.5, beta=0.7, d=2)
BOX_PARAMS = ModelParams(x=-1.0, y=0.5, beta=0.7, d=2)
RING = dict.fromkeys(boundary_ring(2), 1)
SPEC = dict(points=((-5.0, 2.0), (-1.0, -3.0)), beta_grid=(0.5, 2.0), checks=ALL_CHECKS)


def _nb(spin):
    """A d = 2 configuration whose distinguished spin differs from spin."""
    return NeighborConfig((0 if spin else 1, 1, -1, 0))


class IntArg(NamedTuple):
    call: Callable  # the entry as a function of the integer argument alone
    valid: tuple[int, ...]
    out_of_range: tuple[int, ...]
    message: str  # pattern the DomainError message starts with


DIMENSION = dict(valid=(1, 2, 3), out_of_range=(0, -1), message="d must be an integer >= 1, got ")
SPIN = dict(valid=(-1, 0, 1), out_of_range=(2, -2), message=r"spin must be one of \(-1, 0, 1\), got ")
POINTS_PER_REGION = dict(
    valid=(1, 2, 3), out_of_range=(0, -3), message="points_per_region must be an integer >= 1, got "
)
K = dict(valid=(0, 1, 2, 3), out_of_range=(-1, 4), message=r"k must be an integer in \[0, 3\], got ")

ARGS = {
    "ModelParams.d": IntArg(lambda d: ModelParams(x=-3.0, y=0.5, beta=0.7, d=d), **DIMENSION),
    "SweepSpec.d": IntArg(lambda d: run_sweep(SweepSpec(d=d, **SPEC)).to_json(), **DIMENSION),
    "solve_t_d": IntArg(solve_t_d, **DIMENSION),
    "curve_x": IntArg(lambda d: curve_x(d, 0.3), **DIMENSION),
    "in_dobrushin_region": IntArg(lambda d: in_dobrushin_region(d, -3.9, 0.3), **DIMENSION),
    "blume_capel_xc": IntArg(blume_capel_xc, **DIMENSION),
    "find_failure_beta": IntArg(lambda d: find_failure_beta(d, 0.0, -2.0), **DIMENSION),
    "default_certification_spec": IntArg(
        lambda d: run_sweep(default_certification_spec(d, points_per_region=1)).to_json(), **DIMENSION
    ),
    "default_certification_spec.points_per_region": IntArg(
        lambda n: default_certification_spec(1, points_per_region=n), **POINTS_PER_REGION
    ),
    "sample_strip_points": IntArg(sample_strip_points, **POINTS_PER_REGION),
    "NeighborConfig": IntArg(lambda s: NeighborConfig((s, 0, 1, -1)), **SPIN),
    "pair_energy.si": IntArg(lambda s: pair_energy(s, 1, -0.3, 0.7), **SPIN),
    "pair_energy.sj": IntArg(lambda s: pair_energy(-1, s, -0.3, 0.7), **SPIN),
    "theta.s": IntArg(
        lambda s: theta(s, _nb(1), 1, PARAMS), valid=(-1, 1), out_of_range=(0, 2, -2), message="(spin|s) must be "
    ),
    "theta.sigma1_tilde": IntArg(lambda s: theta(-1, _nb(s), s, PARAMS), **SPIN),
    "psi.sigma1_tilde": IntArg(lambda s: psi(_nb(s), s, PARAMS), **SPIN),
    "lemma1_bound.sigma1_tilde": IntArg(lambda s: lemma1_bound(_nb(s), s, PARAMS), **SPIN),
    # out-of-range box sides are a CapacityError, tested below
    "finite_volume_marginal.box_side": IntArg(
        lambda side: finite_volume_marginal(BOX_PARAMS, side, 1),
        valid=(2, 3),
        out_of_range=(),
        message="box_side must be an integer, got ",
    ),
    "finite_volume_marginal.boundary": IntArg(lambda s: finite_volume_marginal(BOX_PARAMS, 2, s), **SPIN),
    "finite_volume_marginal.ring_spin": IntArg(
        lambda s: finite_volume_marginal(BOX_PARAMS, 2, {**RING, (-1, 0): s}), **SPIN
    ),
    "theta_sum_bound.k": IntArg(lambda k: theta_sum_bound(PARAMS, k), **K),
    "psi_bound.k": IntArg(lambda k: psi_bound(PARAMS, k), **K),
}


def assert_same(got, want):
    # repr shows a leaked numpy type (np.int64(2), np.float64(...)) and tells
    # floats apart bit for bit
    assert type(got) is type(want)
    assert repr(got) == repr(want)


@pytest.mark.parametrize("name", ARGS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_numpy_integers_give_the_int_result(name, data):
    arg = ARGS[name]
    value = data.draw(st.sampled_from(arg.valid), label="value")
    kind = data.draw(st.sampled_from([t for t in NUMPY_INTS if np.iinfo(t).min <= value]), label="type")
    assert_same(arg.call(kind(value)), arg.call(value))


@pytest.mark.parametrize("bad", NOT_INTS, ids=repr)
@pytest.mark.parametrize("name", ARGS)
def test_non_integers_rejected(name, bad):
    with pytest.raises(DomainError, match=f"^{ARGS[name].message}"):
        ARGS[name].call(bad)


@pytest.mark.parametrize(
    "name, value",
    [(name, kind(v)) for name, arg in ARGS.items() for v in arg.out_of_range for kind in (int, np.int64)],
    ids=repr,
)
def test_out_of_range_integers_rejected(name, value):
    with pytest.raises(DomainError, match=f"^{ARGS[name].message}"):
        ARGS[name].call(value)


@pytest.mark.parametrize("side", [-3, 0, 1, 4, np.int64(4), np.uint8(1)], ids=repr)
def test_out_of_range_box_side_is_capacity_error(side):
    with pytest.raises(CapacityError, match="box_side must be 2 or 3, got "):
        finite_volume_marginal(BOX_PARAMS, side, 1)
