"""Tail-shape queries on the distribution tree: exp_tail, prob_below, beta_lam, mgf_pole."""

import math

import mpmath as mp
import numpy as np
import pytest

from perpetuity.asymptotics import thm2_inputs
from perpetuity.distributions import (
    Beta,
    Difference,
    ExpPlusRemainder,
    Exponential,
    Gamma,
    JointInput,
    Mixture,
    Negated,
    PointMass,
    SurvivalDefined,
    Uniform,
)
from perpetuity.oracle import get_case

GRID = np.concatenate([[0.0], np.geomspace(1e-3, 30.0, 40)])
MIX_12 = Mixture(((0.5, Exponential(1.0)), (0.5, Exponential(2.0))))
E2_B = get_case("E2").joint.B

ANSWERING = {
    "exp": Exponential(2.5),
    "mixture": Mixture(((0.2, Exponential(1.0)), (0.3, Exponential(1.0)), (0.5, Exponential(3.0)))),
    "difference": Difference(Exponential(1.0), Exponential(1.0)),
    "difference-of-mixtures": Difference(Mixture(((0.4, Exponential(1.0)), (0.6, Exponential(3.0)))),
                                         Mixture(((0.7, Exponential(2.0)), (0.3, Exponential(0.5))))),
    "nested-difference": Difference(Difference(MIX_12, Exponential(4.0)), PointMass(1.5)),
    "E2-increment": E2_B,
    "faster-gamma-component": Mixture(((0.6, Exponential(1.0)), (0.4, Gamma(2.0, 3.0)))),
    "faster-atom-component": Mixture(((0.5, Exponential(1.0)), (0.5, PointMass(5.0)))),
    "mixture-of-differences": Mixture(((0.5, Difference(MIX_12, Exponential(1.0))), (0.5, Exponential(1.0)))),
}

SILENT = {
    "gamma": Gamma(2.0, 1.0),
    "poly-exp": SurvivalDefined(lambda x: (1.0 + np.maximum(np.asarray(x, dtype=float), 0.0)) ** -2
                                * np.exp(-np.maximum(np.asarray(x, dtype=float), 0.0)), 0.0),
    "pointmass": PointMass(0.5),
    "uniform": Uniform(0.0, 1.0),
    "negated": Negated(Exponential(1.0)),
    "gamma-at-the-rate": Mixture(((0.5, Exponential(1.0)), (0.5, Gamma(2.0, 1.0)))),
    "right-part-not-nonnegative": Difference(Exponential(1.0), Negated(Exponential(3.0))),
    "left-part-not-an-exponential-sum": Difference(E2_B, Exponential(1.0)),
}


@pytest.mark.parametrize("name", sorted(ANSWERING))
def test_exp_tail_reproduces_the_survival(name):
    law = ANSWERING[name]
    tail = law.exp_tail()
    assert tail.b == law.mgf_domain()[1]
    assert tail.C > 0 and tail.r_decay_margin > 0
    want = np.asarray(law.survival(GRID))
    got = tail.C * np.exp(-tail.b * GRID) + np.asarray(tail.r(GRID))
    np.testing.assert_allclose(got, want, rtol=1e-7, atol=1e-13)
    # the remainder is of smaller order: e^{bx} r(x) -> 0
    assert abs(float(tail.r(40.0))) * math.exp(tail.b * 40.0) < 1e-6


def test_nested_difference_survival_matches_mpmath():
    # the right part has a density, so each outer point is a quadrature whose
    # integrand is itself a quadrature-backed survival
    law = Difference(Difference(MIX_12, Exponential(4.0)), Exponential(1.5))

    def inner(u):  # P{MIX_12 - Exp(4) > u}, the Exp - Exp closed form per component
        return sum(mp.mpf(0.5) * (4 / (lam + 4) * mp.exp(-lam * u) if u >= 0 else 1 - lam / (lam + 4) * mp.exp(4 * u))
                   for lam in (1, 2))

    def exact(x):
        with mp.workdps(30):
            cuts = [0, -x, mp.inf] if x < 0 else [0, mp.inf]
            return float(mp.quad(lambda y: inner(x + y) * mp.mpf(1.5) * mp.exp(-1.5 * y), cuts))

    xs = np.linspace(-5.0, 5.0, 5)
    got = np.asarray(law.survival(xs))
    np.testing.assert_allclose(got, [exact(float(x)) for x in xs], rtol=0, atol=1e-8)


@pytest.mark.parametrize("name", sorted(SILENT))
def test_exp_tail_answers_none_where_r_is_not_stated(name):
    assert SILENT[name].exp_tail() is None


def _oracle_thm2_inputs(case_id):
    """(tail, left_tail, left_decay_hint) of a registry case's B, written out by hand from its closed form."""
    if case_id == "E1":  # Exp(1)
        return ExpPlusRemainder(C=1.0, b=1.0), None, None
    if case_id == "E3":  # Exp(1) - Exp(1)
        return ExpPlusRemainder(C=0.5, b=1.0), lambda y: 0.5 * np.exp(np.asarray(y, dtype=float)), 1.0
    if case_id == "E4":  # M - M, M = (Exp(1) + Exp(2)) / 2
        b, c = 1.0, 2.0
        c1 = 0.25 + 0.5 * c / (b + c)
        c2 = 0.25 + 0.5 * b / (b + c)
        tail = ExpPlusRemainder(C=c1 / 2, b=b, r=lambda y: (c2 / 2) * np.exp(-c * np.asarray(y, dtype=float)),
                                r_decay_margin=c - b)
        return tail, (lambda y: 0.5 * (c1 * np.exp(b * np.asarray(y, dtype=float))
                                       + c2 * np.exp(c * np.asarray(y, dtype=float)))), b
    # E5: (Exp(1) + Exp(2)) / 2
    return ExpPlusRemainder(C=0.5, b=1.0, r=lambda y: 0.5 * np.exp(-2.0 * np.asarray(y, dtype=float)),
                            r_decay_margin=1.0), None, None


@pytest.mark.parametrize("case_id", ["E1", "E3", "E4", "E5"])
def test_exp_tail_equals_the_oracle_models(case_id):
    want, want_left, want_hint = _oracle_thm2_inputs(case_id)
    B = get_case(case_id).joint.B
    got = B.exp_tail()
    assert got.C == pytest.approx(want.C, rel=1e-14, abs=0.0)
    assert got.b == want.b
    assert got.r_decay_margin == want.r_decay_margin
    np.testing.assert_allclose(np.asarray(got.r(GRID)), np.asarray(want.r(GRID)), rtol=1e-14, atol=1e-300)
    left, hint = thm2_inputs(get_case(case_id).joint)[2:]
    assert (left is None) == (want_left is None)
    assert hint == want_hint
    if left is not None:
        ys = -GRID[1:25]
        np.testing.assert_allclose(np.asarray(left(ys)), np.asarray(want_left(ys)), rtol=1e-7)


def test_left_tail():
    for B in (Exponential(1.0), MIX_12):
        assert thm2_inputs(JointInput(Beta(2.0, 1.0), B))[2:] == (None, None)
    B = Difference(Exponential(2.0), Exponential(3.0))
    left, hint = thm2_inputs(JointInput(Beta(2.0, 1.0), B))[2:]
    assert left == B.prob_below and hint == 3.0
    assert B.prob_below(-1.0) == pytest.approx((2.0 / 5.0) * math.exp(-3.0), rel=1e-12, abs=0.0)
    assert Exponential(1.0).prob_below(-1.0) == 0.0


def test_beta_lam():
    assert Beta(2.0, 1.0).beta_lam() == 2.0
    assert Uniform(0.0, 1.0).beta_lam() == 1.0
    for law in (Beta(2.0, 3.0), Uniform(0.0, 2.0), Exponential(1.0), PointMass(0.5)):
        assert law.beta_lam() is None


def test_mgf_pole_and_upper_density_exponent():
    assert Exponential(2.0).mgf_pole() == (2.0, 1.0)
    assert Gamma(2.5, 3.0).mgf_pole() == (3.0, 2.5)
    assert Uniform(0.0, 1.0).mgf_pole() == (math.inf, 0.0)
    assert MIX_12.mgf_pole() is None
    assert SILENT["poly-exp"].mgf_pole() is None
    assert Beta(2.0, 3.0).upper_density_exponent() == 3.0
    assert Uniform(-1.0, 1.0).upper_density_exponent() == 1.0
    assert PointMass(0.5).upper_density_exponent() is None
