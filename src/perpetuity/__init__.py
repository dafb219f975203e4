"""Numerical laboratory for the random series X = sum_k A_1...A_{k-1} B_k.

Modules:
  distributions  structural description of the input pair (A, B)
  quadrature     adaptive Gauss-Kronrod integration
  simulate       deterministic parallel Monte Carlo engine
  criteria       symbolic finiteness verdicts for exponential moments
  asymptotics    tail-asymptote constants and the characteristic function
  oracle         closed-form reference cases and empirical validation
  cli            config-driven command-line surface
"""

from .distributions import (
    Beta,
    Difference,
    ExpPlusRemainder,
    Exponential,
    Gamma,
    GammaLike,
    JointInput,
    Mixture,
    Negated,
    NoClosedForm,
    PointMass,
    Scaled,
    ScalarDistribution,
    Shifted,
    SurvivalDefined,
    ThresholdDependent,
    Uniform,
    ValidationError,
    sample_pair,
    validate_nondegeneracy,
)
from .quadrature import QuadResult, frullani, integrate_finite, integrate_semi_infinite
from .simulate import (
    SampleBatch,
    SimConfig,
    TailEstimate,
    check_convergence,
    empirical_tail,
    estimate_exp_moment,
    median_of_means,
    sample_batch,
)
from .criteria import (
    DispatchError,
    MomentVerdict,
    dispatch_exp_moment,
    exp_moment_criterion_mixedA,
    exp_moment_criterion_positiveA,
    prop_main_part1,
    prove_support_unbounded,
    two_sided_criterion_AIR,
)
from .asymptotics import (
    PredictionRefused,
    TailPrediction,
    perpetuity_cf,
    perpetuity_mgf,
    prop_main_constant,
    stochastic_upper_bound,
    thm1_constant,
    thm2_K,
)
from .oracle import ReferenceCase, compare_empirical, get_case, list_cases, reference_survival

__version__ = "0.1.0"
