"""Tail-shape queries on the distribution tree: exp_tail, left_tail, beta_lam, mgf_pole."""

import math

import numpy as np
import pytest

from perpetuity import asymptotics
from perpetuity.distributions import (
    Beta,
    Difference,
    Exponential,
    Gamma,
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


@pytest.mark.parametrize("name", sorted(SILENT))
def test_exp_tail_answers_none_where_r_is_not_stated(name):
    assert SILENT[name].exp_tail() is None


def _oracle_thm2_inputs(case_id, monkeypatch):
    """(tail, left_tail, left_decay_hint) that a registry case hands to thm2_K."""
    seen = {}

    def capture(lam, tail, left_tail=None, left_decay_hint=None, tol=1e-10):
        seen.update(tail=tail, left=left_tail, hint=left_decay_hint)
        return None

    monkeypatch.setattr(asymptotics, "thm2_K", capture)
    get_case(case_id).predict()
    return seen["tail"], seen["left"], seen["hint"]


@pytest.mark.parametrize("case_id", ["E1", "E3", "E4", "E5"])
def test_exp_tail_equals_the_oracle_models(case_id, monkeypatch):
    want, want_left, want_hint = _oracle_thm2_inputs(case_id, monkeypatch)
    B = get_case(case_id).joint.B
    got = B.exp_tail()
    assert got.C == pytest.approx(want.C, rel=1e-14)
    assert got.b == want.b
    assert got.r_decay_margin == want.r_decay_margin
    np.testing.assert_allclose(np.asarray(got.r(GRID)), np.asarray(want.r(GRID)), rtol=1e-14, atol=1e-300)
    left, hint = B.left_tail()
    assert (left is None) == (want_left is None)
    assert hint == want_hint
    if left is not None:
        ys = -GRID[1:25]
        np.testing.assert_allclose(np.asarray(left(ys)), np.asarray(want_left(ys)), rtol=1e-7)


def test_left_tail():
    assert Exponential(1.0).left_tail() == (None, None)
    assert MIX_12.left_tail() == (None, None)
    # two-sided law with no stated left tail: unknown, not "none"
    assert E2_B.left_tail() is None
    left, hint = Difference(Exponential(2.0), Exponential(3.0)).left_tail()
    assert hint == 3.0
    assert left(-1.0) == pytest.approx((2.0 / 5.0) * math.exp(-3.0), rel=1e-12)


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
