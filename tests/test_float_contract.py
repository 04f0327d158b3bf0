"""The float contract of the public API: each real argument (a coupling x or
y, an inverse temperature beta, a sweep point coordinate or grid beta, the
ratio t of r_of_t, a spin probability) takes an int, a float, or a numpy
integer or floating scalar, and gives the result of float(value), of the same
type and repr; nan, +-inf and an int beyond the float range raise DomainError
"<name> must be finite", a value outside the domain raises DomainError
"<name> must ...", and a bool, np.bool_, str, None, 0-d array or list raises
TypeError naming the argument."""

import math
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beg_dobrushin import (
    DomainError,
    ModelParams,
    SpinDistribution,
    SweepSpec,
    classify_region,
    curve_x,
    find_failure_beta,
    ground_pairs,
    in_dobrushin_region,
    pair_energy,
    r_of_t,
)
from beg_dobrushin.verify import BOUND_CHECKS

REAL_KINDS = (int, np.int8, np.int64, np.uint16, float, np.float16, np.float32, np.float64)
NON_FINITE = (math.nan, math.inf, -math.inf, np.float32("nan"), np.float64("inf"), np.float16("-inf"))
# ints beyond the float range; the repr of 10**5000 passes Python's 4300-digit
# limit on int-to-text conversion, so no message may contain it
HUGE_INTS = (pytest.param(10**400, id="10**400"), pytest.param(-10**400, id="-10**400"),
             pytest.param(10**5000, id="10**5000"))
NOT_REALS = (True, np.True_, "0.5", None, np.array(0.5), [0.5])


class RealArg(NamedTuple):
    call: Callable  # the entry as a function of the real argument alone
    name: str  # the argument's name, as every message starts with it
    valid: tuple[float, ...]
    out_of_range: tuple[float, ...] = ()
    want: str = ""  # what an out-of-range message says the value must be


def _spec(points=((-5.0, 2.0),), beta_grid=(0.5, 2.0)):
    return SweepSpec(d=2, points=points, beta_grid=beta_grid, checks=BOUND_CHECKS)


BETA = dict(valid=(0, 0.7, 3), out_of_range=(-1, -0.25), want="be >= 0")
PROBABILITY = dict(out_of_range=(-0.25, 1.5), want="be in [0, 1]")

ARGS = {
    "ModelParams.x": RealArg(lambda x: ModelParams(x=x, y=0.5, beta=0.7, d=2), "x", (-3, -0.3, 2)),
    "ModelParams.y": RealArg(lambda y: ModelParams(x=-3.0, y=y, beta=0.7, d=2), "y", (-2, 0.3, 4)),
    "ModelParams.beta": RealArg(lambda b: ModelParams(x=-3.0, y=0.5, beta=b, d=2), "beta", **BETA),
    "SweepSpec.x": RealArg(lambda x: _spec(points=((x, 2.0),)), "point coordinate", (-5, -0.3, 1)),
    "SweepSpec.y": RealArg(lambda y: _spec(points=((-5.0, y),)), "point coordinate", (-3, 0.3, 2)),
    "SweepSpec.beta": RealArg(lambda b: _spec(beta_grid=(b, 10.0)), "beta grid value", **BETA),
    "classify_region.x": RealArg(lambda x: classify_region(x, 0.3), "x", (-3, -0.3, 2)),
    "classify_region.y": RealArg(lambda y: classify_region(-3.0, y), "y", (-2, 0.3, 4)),
    "pair_energy.x": RealArg(lambda x: pair_energy(1, 1, x, 0.3), "x", (-3, 0.1, 2)),
    "pair_energy.y": RealArg(lambda y: pair_energy(1, 1, 0.1, y), "y", (-2, 0.3, 4)),
    "ground_pairs.x": RealArg(lambda x: ground_pairs(x, 0.5), "x", (-3, -2.3, 2)),
    "ground_pairs.y": RealArg(lambda y: ground_pairs(-3.0, y), "y", (-2, 0.3, 1)),
    "curve_x": RealArg(lambda y: curve_x(2, y), "y", (-3, -0.7, 0.3, 2)),
    "in_dobrushin_region.x": RealArg(lambda x: in_dobrushin_region(2, x, 0.3), "x", (-5, -3.9, 1)),
    "in_dobrushin_region.y": RealArg(lambda y: in_dobrushin_region(2, -3.9, y), "y", (-2, 0.3, 2)),
    "find_failure_beta.x": RealArg(lambda x: find_failure_beta(2, x, -2.0), "x", (0, -0.3, 1)),
    "find_failure_beta.y": RealArg(lambda y: find_failure_beta(2, 0.0, y), "y", (-3, -2.25, 0)),
    "r_of_t": RealArg(r_of_t, "t", (0.5, 1, 7.25), out_of_range=(0, -1, -0.5), want="be positive"),
    "SpinDistribution.p_minus": RealArg(lambda p: SpinDistribution(p, 0.5, 0.25), "p_minus", (0.25,), **PROBABILITY),
    "SpinDistribution.p_zero": RealArg(lambda p: SpinDistribution(0.0, p, 0.0), "p_zero", (1,), **PROBABILITY),
    "SpinDistribution.p_plus": RealArg(lambda p: SpinDistribution(0.25, 0.5, p), "p_plus", (0.25,), **PROBABILITY),
}


def assert_same(got, want):
    # repr shows a leaked numpy type (np.float32(...), np.True_) and tells
    # floats apart bit for bit
    assert type(got) is type(want)
    assert repr(got) == repr(want)


def _fits(kind, value) -> bool:
    """Whether kind(value) holds value exactly: an integer type needs an
    integral value in its range."""
    if kind is int:
        return float(value).is_integer()
    if issubclass(kind, np.integer):
        return float(value).is_integer() and np.iinfo(kind).min <= value <= np.iinfo(kind).max
    return True


@pytest.mark.parametrize("name", ARGS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_numeric_types_give_the_float_result(name, data):
    arg = ARGS[name]
    value = data.draw(st.sampled_from(arg.valid), label="value")
    kind = data.draw(st.sampled_from([k for k in REAL_KINDS if _fits(k, value)]), label="type")
    typed = kind(value)
    assert_same(arg.call(typed), arg.call(float(typed)))


@pytest.mark.parametrize("bad", NON_FINITE + HUGE_INTS, ids=repr)
@pytest.mark.parametrize("name", ARGS)
def test_non_finite_rejected(name, bad):
    with pytest.raises(DomainError, match=f"^{ARGS[name].name} must be finite, got "):
        ARGS[name].call(bad)


@pytest.mark.parametrize("bad", NOT_REALS, ids=repr)
@pytest.mark.parametrize("name", ARGS)
def test_non_reals_rejected(name, bad):
    with pytest.raises(TypeError, match=f"^{ARGS[name].name} must be a real number, got "):
        ARGS[name].call(bad)


@pytest.mark.parametrize(
    "name, value",
    [(name, kind(v)) for name, arg in ARGS.items() for v in arg.out_of_range for kind in (int, float, np.float32)
     if _fits(kind, v)],
    ids=repr,
)
def test_out_of_range_rejected(name, value):
    arg = ARGS[name]
    with pytest.raises(DomainError) as err:
        arg.call(value)
    assert str(err.value) == f"{arg.name} must {arg.want}, got {value!r}"


def test_sweep_spec_reports_negative_beta_before_bad_dimension():
    with pytest.raises(DomainError, match=r"^beta grid value must be >= 0, got -0\.5$"):
        SweepSpec(d=0, points=((-5.0, 2.0),), beta_grid=(-0.5, 1.0), checks=BOUND_CHECKS)
