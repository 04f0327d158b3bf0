"""Dobrushin uniqueness region of the Blume-Emery-Griffiths model.

The domain contract of every public entry:

- finite in-domain input gives a finite result, computed from the Python
  float or int of each argument, so no numpy scalar type reaches a result;
  a finite input whose result overflows to inf or nan raises DomainError
  instead, from the one result guard, model.check_result, which names the
  result and its inputs: the max TV of exact_max_tv, find_failure_beta and
  `begdob scan` and a sweep slack name the point and the beta; every scalar
  bound (theta, psi, lemma1_bound, lemma2_bound, lemma3_bound,
  theorem1_bound, theta_sum_bound, psi_bound) the point, the beta and d;
  curve_x names y, beta_critical a and b, and a CLI output field itself;
- a real argument (a coupling x or y, an inverse temperature beta, a sweep
  point coordinate or grid beta, the ratio t of r_of_t, a probability of a
  SpinDistribution) passes model.check_real: it is an int, a float, or a
  numpy integer or floating scalar; a nan, an infinity, an int beyond the
  float range or a value outside the argument's domain raises DomainError,
  and any other type (a bool, a str, None, an array) raises TypeError;
- an integer argument (a dimension d, a spin, a box side, a neighbour count
  k, a points-per-region count, a sampling seed) passes model.check_int: it
  is an int or a numpy integer; any other type or an out-of-range value
  raises DomainError;
- every message names the argument: "<name> must ..., got <value!r>", with
  an int beyond the float range shown by its size in bits, not its repr;
- ExponentPair is the one exception to finiteness: it admits a = +inf, which
  band_exponents gives where 2d|x + y + 1| overflows; what reads it
  (beta_critical, the sweep's slack check, the CLI's output fields) raises
  DomainError for the non-finite result instead.  At the other end, a point
  that classify_region's exact signs put in band A or B, but whose float
  x + y + 1 rounds to 0, such as (-1.0000000000000002, 2.2204460492503052e-16),
  gets a = 0, and exponents (so `begdob bounds` and `begdob verify --point`)
  raises DomainError "exponents must be positive, got a=0.0, b=2.0".
"""

from .bounds import (
    ExponentPair,
    beta_critical,
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
)
from .errors import CapacityError, DegenerateGroundStateError, DomainError
from .model import (
    MajorRegion,
    ModelParams,
    NeighborConfig,
    RegionLabel,
    SubRegion,
    classify_region,
    ground_pairs,
    pair_energy,
)
from .region import (
    blume_capel_xc,
    curve_x,
    in_dobrushin_region,
    solve_t_d,
)
from .specification import (
    DobrushinReport,
    SpinDistribution,
    conditional_distribution,
    exact_max_tv,
    finite_volume_marginal,
    total_variation,
)
from .verify import (
    Check,
    SweepReport,
    SweepSpec,
    default_certification_spec,
    find_failure_beta,
    run_sweep,
)

__all__ = [
    "CapacityError",
    "Check",
    "DegenerateGroundStateError",
    "DobrushinReport",
    "DomainError",
    "ExponentPair",
    "MajorRegion",
    "ModelParams",
    "NeighborConfig",
    "RegionLabel",
    "SpinDistribution",
    "SubRegion",
    "SweepReport",
    "SweepSpec",
    "beta_critical",
    "blume_capel_xc",
    "classify_region",
    "conditional_distribution",
    "curve_x",
    "default_certification_spec",
    "exact_max_tv",
    "exponents",
    "find_failure_beta",
    "finite_volume_marginal",
    "ground_pairs",
    "in_dobrushin_region",
    "lemma1_bound",
    "lemma2_bound",
    "lemma3_bound",
    "pair_energy",
    "psi",
    "psi_bound",
    "r_of_t",
    "run_sweep",
    "solve_t_d",
    "theorem1_bound",
    "theta",
    "theta_sum_bound",
    "total_variation",
]
