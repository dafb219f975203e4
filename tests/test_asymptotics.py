import math
import re

import mpmath
import numpy as np
import pytest

from perpetuity.asymptotics import (
    PredictionRefused,
    SmoothedTail,
    _mgf_at_tail_rate,
    f_function_vec,
    perpetuity_cf,
    prop_main_constant,
    stochastic_upper_bound,
    thm1_constant,
    thm2_inputs,
    thm2_K,
    tilted_moment_vec,
)
from perpetuity.distributions import (
    Beta,
    Difference,
    ExpPlusRemainder,
    Exponential,
    Gamma,
    GammaLike,
    JointInput,
    Mixture,
    Negated,
    PointMass,
    Shifted,
    SurvivalDefined,
    ThresholdDependent,
    Uniform,
    ValidationError,
)
from perpetuity.oracle import get_case
from perpetuity.simulate import SimConfig


# -- K constant ---------------------------------------------------------------

def test_K_matches_closed_form_symmetric_difference():
    # A ~ Beta(1,1), B = Exp(1) - Exp(1): closed-form constant 1/sqrt(2 pi)
    pred = thm2_K(
        1.0,
        ExpPlusRemainder(C=0.5, b=1.0),
        left_tail=lambda y: 0.5 * np.exp(np.minimum(np.asarray(y, dtype=float), 0.0)),
        left_decay_hint=1.0,
    )
    assert pred.constant == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-6)
    assert pred.form.b == 1.0
    assert pred.form.c == pytest.approx(0.5)
    assert pred.constant_source == "Quadrature"


def test_K_matches_closed_form_two_rate_mixture():
    c1, c2 = 7.0 / 12.0, 5.0 / 12.0
    pred = thm2_K(
        1.0,
        ExpPlusRemainder(C=c1 / 2.0, b=1.0,
                         r=lambda y: (c2 / 2.0) * np.exp(-2.0 * np.asarray(y, dtype=float)),
                         r_decay_margin=1.0),
        left_tail=lambda y: 0.5 * (c1 * np.exp(np.asarray(y, dtype=float))
                                   + c2 * np.exp(2.0 * np.asarray(y, dtype=float))),
        left_decay_hint=1.0,
    )
    closed = ((c1 / 2.0) * (0.5 ** (c1 / 2.0)) * ((4.0 / 3.0) ** (c2 / 2.0))
              / math.gamma(c1 / 2.0 + 1.0))
    assert closed == pytest.approx(0.2814916601504797, rel=1e-12, abs=0.0)
    assert pred.constant == pytest.approx(closed, rel=1e-4)


def test_K_reduces_to_the_pure_exponential_case():
    # C=1, no remainder, no left tail: K = b^lam / Gamma(lam+1)
    for lam, b in ((2.0, 1.0), (0.7, 1.0)):
        pred = thm2_K(lam, ExpPlusRemainder(C=1.0, b=b))
        assert pred.constant == pytest.approx(b ** lam / math.gamma(lam + 1.0), rel=1e-10)


def test_remainder_needs_a_positive_decay_margin():
    # the margin is what makes r vanish against e^{-bx} and be integrable: a remainder without one is refused
    with pytest.raises(ValidationError):
        ExpPlusRemainder(C=1, b=1, r_decay_margin=0.0)


def test_K_rejects_a_nonpositive_lam():
    with pytest.raises(ValueError, match="^lam must be positive$"):
        thm2_K(0.0, ExpPlusRemainder(C=1.0, b=1.0))


def test_gamma_recurrence_accuracy():
    rng = np.random.default_rng(3)
    for z in rng.uniform(0.05, 49.0, size=200):
        lhs = math.gamma(z + 1.0)
        rhs = z * math.gamma(z)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


# -- smoothing function -------------------------------------------------------

def test_f_function_at_zero_is_one():
    for joint in (
        JointInput(Uniform(0.0, 1.0), Exponential(1.0)),
        JointInput(Uniform(0.25, 1.0), Exponential(1.0)),
        JointInput(PointMass(0.5), Exponential(1.0)),
        JointInput(None, Exponential(1.0), ThresholdDependent(0.3, 0.7, 1.0)),
    ):
        assert f_function_vec(joint, 1.0, np.array([0.0]))[0] == pytest.approx(1.0, abs=1e-12)


def test_f_function_uniform_closed_form():
    joint = JointInput(Uniform(0.0, 1.0), Exponential(1.0))
    f = f_function_vec(joint, 1.0, np.array([2.0]))[0]
    assert f == pytest.approx((math.e ** 2 - 1.0) / 2.0, rel=1e-10)
    assert f == pytest.approx(3.1945280, rel=1e-6)
    shifted = JointInput(Uniform(0.25, 1.0), Exponential(1.0))
    f = f_function_vec(shifted, 1.0, np.array([2.0]))[0]
    assert f == pytest.approx((math.e ** 2 - math.e ** 0.5) / 1.5, rel=1e-12, abs=0.0)


def test_f_function_threshold_form():
    joint = JointInput(None, Exponential(1.0), ThresholdDependent(0.3, 0.7, 1.0))
    f = f_function_vec(joint, 1.0, np.array([2.0]))[0]
    assert f == pytest.approx(math.exp(0.6), rel=1e-12)
    assert f == pytest.approx(1.8221188, rel=1e-6)


def test_f_function_beta_confluent_matches_quadrature():
    joint = JointInput(Beta(2.0, 1.0), Exponential(1.0))
    from perpetuity.quadrature import integrate_finite

    for y in (0.5, 2.0):
        direct = integrate_finite(lambda u: math.exp(y * u) * 2.0 * u, 0.0, 1.0, 1e-12)
        assert f_function_vec(joint, 1.0, np.array([y]))[0] == pytest.approx(direct.value, rel=1e-9)


# -- product-form constant ----------------------------------------------------

def test_constant_product_closed_form():
    joint = JointInput(PointMass(0.5), Exponential(1.0))
    pred = prop_main_constant(joint, 1.0, SimConfig(n_samples=1, master_seed=0))
    assert pred.constant == pytest.approx(3.4627466194550636, rel=1e-12)
    assert pred.constant_source == "ClosedForm"
    assert pred.form.b == 1.0
    # full tail prediction: constant times the increment tail
    assert pred.form(8.0) == pytest.approx(pred.constant * math.exp(-8.0), rel=1e-9)


def test_constant_product_for_a_one_atom_mixture():
    # constant A read off atoms(), not off the PointMass class
    cfg = SimConfig(n_samples=1, master_seed=0)
    point = prop_main_constant(JointInput(PointMass(0.5), Exponential(1.0)), 1.0, cfg)
    mixed = prop_main_constant(JointInput(Mixture(((1.0, PointMass(0.5)),)), Exponential(1.0)), 1.0, cfg)
    assert mixed.constant_source == "ClosedForm"
    assert mixed.constant == point.constant == 3.462746619455061


def _scalar_loop_product(B, b, gamma):
    """The closed product as it was computed before the block form: one scalar B.mgf call per factor."""
    prod, s = 1.0, b * gamma
    for _ in range(100_000):
        factor = B.mgf(s, numeric_ok=False)
        prod *= factor
        if abs(factor - 1.0) < 1e-16:
            break
        s *= gamma
    return prod


@pytest.mark.parametrize("gamma, B", [
    (0.5, get_case("E2").joint.B),
    (0.97, Exponential(1.0)),  # about 1,200 factors: five blocks
    (0.8, Mixture(((0.5, Exponential(1.0)), (0.5, Gamma(2.0, 3.0))))),
    (0.6, Mixture(((0.5, Difference(Exponential(1.0), Exponential(4.0))), (0.5, Negated(Exponential(2.0)))))),
], ids=["E2", "slow-gamma", "faster-gamma-part", "difference-and-negated"])
def test_closed_product_is_the_scalar_loop_to_the_bit(gamma, B):
    pred = prop_main_constant(JointInput(PointMass(gamma), B), 1.0, SimConfig(n_samples=1, master_seed=0))
    assert pred.constant_source == "ClosedForm"
    assert pred.constant == _scalar_loop_product(B, 1.0, gamma)


# the bits each registry case predicts: E1 and E2 as when their tail inputs were written out by hand,
# E3-E5 from thm2_K's Frullani sums (their quadratures gave 0.3989422804014378, 0.2814916601504804
# and 0.999999999999974)
_PREDICTED_CONSTANTS = {"E1": 0.5, "E2": 1.5999999999999988, "E3": 0.3989422804014327,
                        "E4": 0.2814916601504797, "E5": 1.0}


@pytest.mark.parametrize("case_id", sorted(_PREDICTED_CONSTANTS))
def test_predicted_constant_keeps_its_bits(case_id):
    assert get_case(case_id).predict().constant == _PREDICTED_CONSTANTS[case_id]


@pytest.mark.parametrize("case_id, rel", [("E1", 0.0), ("E3", 0.0), ("E4", 0.0), ("E5", 1e-15)])
def test_predicted_constant_lands_on_the_hand_derived_one(case_id, rel):
    case = get_case(case_id)
    assert case.predict().constant == pytest.approx(case.asymptote.a, rel=rel, abs=0.0)


@pytest.mark.parametrize("joint, miss", [
    (JointInput(Uniform(0.0, 0.5), Exponential(1.0)), "A is not a Beta(lam, 1) law"),
    (JointInput(None, Exponential(1.0), ThresholdDependent(0.3, 0.7, 1.0)), "A is not a Beta(lam, 1) law"),
    (JointInput(Beta(2.0, 1.0), Gamma(2.0, 1.0)), "no exponential-plus-remainder model for B"),
], ids=["uniform-A", "threshold", "gamma-B"])
def test_thm2_inputs_refuse_with_the_missing_input(joint, miss):
    with pytest.raises(PredictionRefused, match=re.escape(miss) + "$"):
        thm2_inputs(joint)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 3.0])
def test_K_of_the_E2_increment_reads_its_left_tail_off_prob_below(lam):
    # M_B(u) = 1/4 + (5/12)/(1 - u) + (1/3) 2/(2 + u): C = 5/12, b = 1, no right remainder, and the left integral
    # is (1/3) log(1 + 1/2), so K = (5/12) (3/2)^{-lam/3} / Gamma(1 + 5 lam/12)
    pred = thm2_K(*thm2_inputs(JointInput(Beta(lam, 1.0), get_case("E2").joint.B)))
    closed = (5.0 / 12.0) * 1.5 ** (-lam / 3.0) / math.gamma(1.0 + 5.0 * lam / 12.0)
    assert pred.constant == pytest.approx(closed, rel=1e-12, abs=0.0)


def test_K_of_a_two_sided_mixture_increment():
    # B = Exp(1) w.p. 1/2, -Exp(2) w.p. 1/2, lam = 2: K = alpha b^c / Gamma(c + 1) (1 + b/2)^{-lam beta} with
    # alpha = beta = 1/2, b = 1, c = lam alpha = 1, which is 1/3
    B = Mixture(((0.5, Exponential(1.0)), (0.5, Negated(Exponential(2.0)))))
    pred = thm2_K(*thm2_inputs(JointInput(Beta(2.0, 1.0), B)))
    assert pred.constant == pytest.approx(1.0 / 3.0, rel=1e-12, abs=0.0)


def test_K_of_a_nested_difference_matches_a_closed_left_tail():
    # B = (MIX_12 - Exp(4)) - 1.5: its left part is a point mass, so tail.left_terms is None and thm2_K integrates
    # B.prob_below; by hand, P{B <= y} = (4/15) e^{4u} for u = y + 1.5 < 0, else 1 - 0.4 e^{-u} - (1/3) e^{-2u}
    mix = Mixture(((0.5, Exponential(1.0)), (0.5, Exponential(2.0))))
    lam, tail, left, hint = thm2_inputs(JointInput(Beta(2.0, 1.0),
                                                   Difference(Difference(mix, Exponential(4.0)), PointMass(1.5))))
    assert tail.left_terms is None and hint == 4.0

    def closed(y):
        u = np.asarray(y, dtype=float) + 1.5
        return np.where(u < 0.0, (4.0 / 15.0) * np.exp(4.0 * np.minimum(u, 0.0)),
                        1.0 - 0.4 * np.exp(-np.maximum(u, 0.0)) - np.exp(-2.0 * np.maximum(u, 0.0)) / 3.0)

    want = thm2_K(lam, tail, closed, hint).constant
    assert thm2_K(lam, tail, left, hint).constant == pytest.approx(want, rel=1e-13, abs=0.0)
    assert want == pytest.approx(0.01960219609505252, rel=1e-13, abs=0.0)


def test_K_refuses_where_the_left_tail_has_no_closed_form():
    # P{B < y} is the survival of a Difference whose right part, U(0, 1) - U(0, 0.5), has neither atoms nor a
    # stated density: NoClosedForm inside the left-tail quadrature, which thm2_K turns into a refusal
    B = Difference(Exponential(1.0), Difference(Shifted(Exponential(1.0), 2.0),
                                                Difference(Uniform(0.0, 1.0), Uniform(0.0, 0.5))))
    with pytest.raises(PredictionRefused, match="^left-tail integrand has no closed form"):
        thm2_K(*thm2_inputs(JointInput(Beta(2.0, 1.0), B)))


def test_thm1_constant_for_a_difference_coefficient():
    # Difference.mgf takes an array of s, so f_function_vec reads E e^{bAy} off it at every draw
    joint = JointInput(Difference(Uniform(0.5, 1.0), Uniform(0.0, 0.4)), _poly_exp_B())
    pred = thm1_constant(joint, GammaLike(1.0, -2.0, 1.0), SimConfig(n_samples=20_000, master_seed=5))
    assert pred.constant == pytest.approx(1.816739954891295, rel=1e-12, abs=0.0)


def test_constant_refused_when_composed_moment_diverges():
    joint = JointInput(Beta(2.0, 1.0), Exponential(1.0))
    with pytest.raises(PredictionRefused) as err:
        prop_main_constant(joint, 1.0, SimConfig(n_samples=1000, master_seed=0))
    assert err.value.verdict is not None


def test_constant_monte_carlo_route_with_std_err():
    joint = JointInput(Uniform(0.0, 0.5), Exponential(1.0))
    pred = prop_main_constant(joint, 1.0, SimConfig(n_samples=100_000, master_seed=12))
    assert pred.constant_source == "MonteCarlo"
    assert pred.std_err is not None and pred.std_err > 0
    assert pred.constant > 1.0


# -- smoothed-moment route ----------------------------------------------------

def _poly_exp_B():
    S = lambda x: (1.0 + np.asarray(x, dtype=float)) ** -2 * np.exp(-np.asarray(x, dtype=float))
    return SurvivalDefined(S, 0.0, 1.0, "poly-exp")


def test_thm1_constant_runs_and_is_positive():
    joint = JointInput(Uniform(0.0, 1.0), _poly_exp_B())
    pred = thm1_constant(joint, GammaLike(1.0, -2.0, 1.0), SimConfig(n_samples=50_000, master_seed=5))
    assert pred.constant > 1.0
    assert pred.constant_source == "MonteCarlo"
    assert pred.std_err > 0


def test_thm1_refuses_bounded_increment():
    joint = JointInput(Uniform(0.0, 1.0), Uniform(0.0, 1.0))
    with pytest.raises(PredictionRefused):
        thm1_constant(joint, GammaLike(1.0, -2.0, 1.0), SimConfig(n_samples=100, master_seed=1))


def test_thm1_refuses_slow_polynomial_correction():
    joint = JointInput(Uniform(0.0, 1.0), _poly_exp_B())
    with pytest.raises(PredictionRefused):
        thm1_constant(joint, GammaLike(1.0, -0.5, 1.0), SimConfig(n_samples=100, master_seed=1))


class _AtomsUnknown(Uniform):
    """A law in (0, 1] whose atoms the tree cannot state."""

    def atom_at(self, v):
        return None


class _LeftLogMomentUnknown(Difference):
    """A two-sided B whose E log(1 + B^-) the tree leaves open; no law on the tree does."""

    def log1p_neg_moment_finite(self):
        return None


_UNIT_ATOM = Mixture(((0.5, PointMass(1.0)), (0.5, Uniform(0.0, 1.0))))


@pytest.mark.parametrize("A, B, b, message", [
    (Uniform(0.0, 2.0), _poly_exp_B(), 1.0, "P{A in (0,1]} = 1 not established"),
    (_AtomsUnknown(0.5, 1.0), _poly_exp_B(), 1.0, "P{A=1} not symbolically derivable"),
    (_UNIT_ATOM, _poly_exp_B(), 1.0, "E e^{bB} has no closed form"),
    (_UNIT_ATOM, Exponential(1.0), 0.5, "E e^{bB} 1{A=1} < 1 not established"),  # E e^{B/2} P{A=1} = 2 * 0.5
    (Uniform(0.0, 1.0), _LeftLogMomentUnknown(Exponential(1.0), Exponential(1.0)), 1.0,
     "E log(1 + B^-) < inf not established"),
], ids=["A-above-1", "unit-atom-unknown", "mgf-not-closed", "unit-atom-mass", "left-log-moment"])
def test_thm1_refuses_naming_the_failed_precondition(A, B, b, message):
    with pytest.raises(PredictionRefused, match=re.escape(message)):
        thm1_constant(JointInput(A, B), GammaLike(1.0, -2.0, b), SimConfig(n_samples=100, master_seed=1))


def test_thm1_threshold_dependence_uses_the_exponential_form():
    joint = JointInput(None, _poly_exp_B(), ThresholdDependent(0.3, 0.7, 1.0))
    pred = thm1_constant(joint, GammaLike(1.0, -2.0, 1.0), SimConfig(n_samples=50_000, master_seed=5))
    assert pred.constant > 0


# -- 1/x term of the smoothed-tail route --------------------------------------

@pytest.mark.parametrize("A", [
    Uniform(0.0, 1.0),
    Uniform(0.25, 1.0),
    Beta(2.0, 1.0),
    Mixture(((0.3, PointMass(0.2)), (0.7, PointMass(0.9)))),
], ids=lambda a: repr(a)[:24])
def test_tilted_moment_matches_quadrature(A):
    from perpetuity.quadrature import integrate_finite

    joint = JointInput(A, _poly_exp_B())
    b = 1.0
    ys = np.array([0.05, 1.0, 4.0, 12.0])
    got = tilted_moment_vec(joint, b, ys)
    for y, g in zip(ys, got):
        atoms = A.atoms()
        if atoms is not None:
            direct = sum(w * v * y * math.exp(b * v * y) for v, w in atoms.items())
        else:
            lo, hi = A.support()
            direct = integrate_finite(lambda u: u * y * math.exp(b * u * y) * float(A.pdf(u)),
                                      lo, hi, 1e-12).value
        assert g == pytest.approx(direct, rel=1e-9)


def test_e_exp_bB_from_survival_quadrature():
    # P{B > x} = (1+x)^{-2} e^{-x}: E e^{B} = 1 + int_0^inf (1+y)^{-2} dy = 2
    B = _poly_exp_B()
    res = _mgf_at_tail_rate(B, GammaLike(1.0, -2.0, 1.0))
    assert res.converged
    assert res.value == pytest.approx(2.0, abs=1e-3)
    # a finite negative support end: B - 1 has E e^{B-1} = 2/e
    res = _mgf_at_tail_rate(Shifted(B, -1.0), GammaLike(math.exp(-1.0), -2.0, 1.0))
    assert res.converged
    assert res.value == pytest.approx(2.0 / math.e, abs=1e-3)


def test_e_exp_bB_is_not_converged_for_a_B_unbounded_below():
    # the quadrature starts at B's lower support end; with none it answers nan, not converged, before integrating
    res = _mgf_at_tail_rate(Difference(Exponential(1.0), Exponential(2.0)), GammaLike(1.0, -2.0, 1.0))
    assert math.isnan(res.value) and not res.converged
    assert res.abs_error_estimate == math.inf and res.subdivisions == 0


def test_stochastic_bound_reads_the_tail_moment_off_the_model():
    # criterion 10's joint: E e^{B} 1{B > 1} = 1/2 + 1/4 = 0.75 < 0.98 at q = 1, so
    # d = log(P{B <= 1} / 0.25) + 0.25 = log(4 - e^{-1}) + 0.25
    bound = stochastic_upper_bound(JointInput(Uniform(0.0, 1.0), _poly_exp_B()), GammaLike(1.0, -2.0, 1.0), seed=71)
    assert bound.q == 1.0
    assert bound.d == pytest.approx(math.log(4.0 - math.exp(-1.0)) + 0.25, abs=1e-3)


@pytest.mark.parametrize("atom", [0.0, 0.25], ids=["criterion-10", "atom-at-1"])
def test_stochastic_bound_states_the_error_of_its_tail_moment(atom):
    # E e^{bB} stops at a 1e-4 relative step and reads about 6e-5 high on 2; d carries that over the margin 1 - total,
    # and the stated d_error, from the two integrals' own estimates, covers d's distance from its closed value
    A = Mixture(((atom, PointMass(1.0)), (1.0 - atom, Uniform(0.0, 1.0)))) if atom else Uniform(0.0, 1.0)
    bound = stochastic_upper_bound(JointInput(A, _poly_exp_B()), GammaLike(1.0, -2.0, 1.0), seed=71)
    exact = math.log(18.0 - 2.0 * math.exp(-2.0)) + 0.25 if atom else math.log(4.0 - math.exp(-1.0)) + 0.25
    assert bound.e_bB.converged and bound.head.converged and bound.e_bB.subdivisions > 0
    assert abs(bound.e_bB.value - 2.0) <= bound.e_bB.abs_error_estimate
    assert abs(bound.d - exact) <= bound.d_error <= 10.0 * abs(bound.d - exact)


def test_stochastic_bound_counts_the_atom_of_A_at_1():
    # P{A=1} = 1/4 and E e^{B} = 2 add 1/2; E e^{B} 1{B > q} = 1/(1+q) + 1/(1+q)^2 first drops below 0.48 at q = 2,
    # where the margin is 1 - 1/2 - 4/9 = 1/18: d = log(18 (1 - e^{-2}/9)) + 0.25.  E e^{bB} stops at a 1e-4 relative
    # step, |dE| <= 2e-4 on 2, which moves the margin by at most 1.25 * 2e-4 and d by at most 18 times that
    A = Mixture(((0.25, PointMass(1.0)), (0.75, Uniform(0.0, 1.0))))
    bound = stochastic_upper_bound(JointInput(A, _poly_exp_B()), GammaLike(1.0, -2.0, 1.0), seed=71)
    assert bound.q == 2.0
    assert bound.d == pytest.approx(math.log(18.0 - 2.0 * math.exp(-2.0)) + 0.25, abs=5e-3)


def test_smoothed_form_tends_to_the_one_term_asymptote():
    B = _poly_exp_B()
    pred = thm1_constant(JointInput(Uniform(0.0, 1.0), B), GammaLike(1.0, -2.0, 1.0),
                         SimConfig(n_samples=50_000, master_seed=5))
    assert isinstance(pred.form, SmoothedTail)
    assert pred.K1 is not None and pred.K1 > 0
    assert pred.form.a == pytest.approx(pred.constant, rel=1e-12)
    assert any(t.startswith("1/x term K1 = ") for t in pred.preconditions_trace)
    xs = np.array([5.0, 20.0, 80.0, 320.0])
    rel = np.asarray(pred.form(xs)) / (pred.constant * np.asarray(B.survival(xs))) - 1.0
    assert np.all(np.diff(rel) < 0)
    assert rel[-1] < 0.02
    assert rel == pytest.approx(pred.K1 / (pred.constant * xs), rel=1e-9)


@pytest.mark.parametrize("joint,tail,reason", [
    (JointInput(None, _poly_exp_B(), ThresholdDependent(0.3, 0.7, 1.0)),
     GammaLike(1.0, -2.0, 1.0), "threshold-dependent joint"),
    (JointInput(Beta(2.0, 0.5), _poly_exp_B()),
     GammaLike(1.0, -2.0, 1.0), "density of A at 1- is infinite"),
    # the model is not Exp(2)'s own tail: this case reaches only the P{A=1} > 0
    # branch, which needs a closed-form E e^{bB} for the denominator
    (JointInput(Mixture(((0.25, PointMass(1.0)), (0.75, Uniform(0.0, 1.0)))), Exponential(2.0)),
     GammaLike(1.0, -2.0, 1.0), "P{A=1} > 0"),
], ids=["threshold", "beta-q-below-1", "atom-at-1"])
def test_one_over_x_term_omitted_with_reason(joint, tail, reason):
    pred = thm1_constant(joint, tail, SimConfig(n_samples=20_000, master_seed=5))
    assert pred.K1 is None
    assert isinstance(pred.form, GammaLike)
    assert pred.form(7.0) == pytest.approx(pred.constant * tail(7.0), rel=1e-12)
    assert f"1/x term omitted: {reason}" in pred.preconditions_trace
    assert "K1" not in pred.as_dict()


# -- characteristic function --------------------------------------------------

E2_FAMILY = JointInput(Beta(1.0, 1.0), Difference(Exponential(2.0), Exponential(1.0)))


def test_cf_matches_closed_form():
    for t in (0.5, 1.0, 2.0):
        got = perpetuity_cf(E2_FAMILY, t)
        closed = (2.0 / (2.0 - 1j * t)) ** (4.0 / 3.0) * (1.0 / (1.0 + 1j * t)) ** (5.0 / 3.0)
        assert abs(got - closed) < 1e-6


def test_cf_basic_invariants():
    assert perpetuity_cf(E2_FAMILY, 0.0) == 1.0 + 0.0j
    for t in (0.3, 1.7, 4.0):
        z = perpetuity_cf(E2_FAMILY, t)
        assert abs(z) <= 1.0 + 1e-9
        assert perpetuity_cf(E2_FAMILY, -t) == pytest.approx(z.conjugate(), abs=1e-12)


def test_cf_gamma_ratio_identity():
    # A ~ Beta(2,1) and B = -log(survival-exponential-mixture) family:
    # Psi(t)/Phi(t) equals a ratio of gamma functions for b=1, lam=2
    b, lam = 1.0, 2.0
    B = Mixture(((0.5, Exponential(1.0)), (0.5, Exponential(2.0))))
    joint = JointInput(Beta(lam, 1.0), B)
    for t in (0.5, 1.0):
        ratio = perpetuity_cf(joint, t) / B.charfn(t)
        expect = complex(
            mpmath.gamma(b - 1j * t) * mpmath.gamma(b + lam)
            / (mpmath.gamma(b) * mpmath.gamma(b + lam - 1j * t))
        )
        assert abs(ratio - expect) < 1e-5


def test_cf_refuses_non_beta_coefficient():
    with pytest.raises(PredictionRefused):
        perpetuity_cf(JointInput(Beta(2.0, 2.0), Exponential(1.0)), 1.0)


def test_prediction_serialization():
    pred = thm2_K(2.0, ExpPlusRemainder(C=1.0, b=1.0))
    d = pred.as_dict()
    assert d["theorem"] == "Thm2"
    assert d["form"]["b"] == 1.0
    assert d["constant"] > 0
