"""The transform of X: closed for A ~ Beta(lam, 1) and a two-sided hyperexponential B, a product for constant A.

With B = R - L, R = sum w_i Exp(r_i) and L = sum v_j Exp(l_j), the tree's
`exp_weights()` gives the partial fractions ((alpha_i, r_i), (beta_j, l_j)),
and X =d B + sum Gamma(lam alpha_i, r_i) - sum Gamma(lam beta_j, l_j).
Three independent references hold the closed forms to that identity: the
exponent quadrature, the Thm2 constant as a product over the weights, and
the series sampler.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from perpetuity.asymptotics import (
    PredictionRefused,
    _mgf_by_quadrature,
    perpetuity_cf,
    perpetuity_mgf,
    thm2_inputs,
    thm2_K,
)
from perpetuity.distributions import Beta, Difference, Exponential, Gamma, JointInput, Mixture, PointMass
from perpetuity.oracle import get_case
from perpetuity.simulate import SimConfig, sample_batch


def _exp_mixture(parts):
    """sum w Exp(r) over the (w, r) pairs, the weights normalized; one part is Exponential itself."""
    total = sum(w for w, _ in parts)
    laws = tuple((w / total, Exponential(r)) for w, r in parts)
    return laws[0][1] if len(laws) == 1 else Mixture(laws)


def _closed_K(lam, weights):
    """alpha_b b^c / Gamma(c + 1) prod_{r_i > b} (1 - b/r_i)^{-lam alpha_i} prod_j (1 + b/l_j)^{-lam beta_j}."""
    right, left = weights
    b = min(r for _, r in right)
    c = lam * sum(a for a, r in right if r == b)
    K = (c / lam) * b ** c / math.gamma(c + 1.0)
    for a, r in right:
        if r > b:
            K *= (1.0 - b / r) ** (-lam * a)
    for a, l in left:
        K *= (1.0 + b / l) ** (-lam * a)
    return K


_PART = st.tuples(st.floats(0.1, 1.0), st.floats(0.5, 5.0))


@settings(deadline=None)
@given(right=st.lists(_PART, min_size=1, max_size=3), left=st.lists(_PART, max_size=3),
       lam=st.floats(0.2, 4.0), t=st.floats(-8.0, 8.0))
def test_closed_transform_and_constant_match_their_references(right, left, lam, t):
    B = _exp_mixture(right) if not left else Difference(_exp_mixture(right), _exp_mixture(left))
    joint = JointInput(Beta(lam, 1.0), B)
    weights = B.exp_weights()
    assert sum(a for a, _ in weights[0]) + sum(a for a, _ in weights[1]) == pytest.approx(1.0, abs=1e-14)
    closed = perpetuity_mgf(joint, 1j * t)
    assert abs(closed - _mgf_by_quadrature(B, lam, 1j * t, 1e-10)) <= 1e-12
    pred = thm2_K(*thm2_inputs(joint))
    assert pred.constant == pytest.approx(_closed_K(lam, weights), rel=1e-12, abs=0.0)


# B's two smallest rates within 1%: the remainder decays too slowly for the semi-infinite quadrature
@pytest.mark.parametrize("rates", [(1.0, 1.01), (1.0, 1.003), (2.0, 2.02), (3.9, 3.93)], ids=str)
def test_close_rates_give_the_closed_constant(rates):
    B = Mixture(((0.5, Exponential(rates[0])), (0.5, Exponential(rates[1]))))
    pred = thm2_K(*thm2_inputs(JointInput(Beta(1.0, 1.0), B)))
    assert pred.constant == pytest.approx(_closed_K(1.0, B.exp_weights()), rel=1e-12, abs=0.0)
    if rates == (1.0, 1.01):
        assert pred.constant == pytest.approx(5.670035141386942, rel=1e-12, abs=0.0)


def test_transform_on_the_real_axis_and_off_the_strip():
    # E1: A ~ Beta(2, 1), B ~ Exp(1), X ~ Gamma(3, 1)
    joint = JointInput(Beta(2.0, 1.0), Exponential(1.0))
    for s in (-2.0, 0.5, 0.9 + 3j):
        assert perpetuity_mgf(joint, s) == pytest.approx((1.0 - s) ** -3, rel=1e-14, abs=0.0)
    assert perpetuity_mgf(joint, 1.0) == math.inf
    two_sided = JointInput(Beta(1.0, 1.0), Difference(Exponential(2.0), Exponential(1.0)))
    assert perpetuity_mgf(two_sided, -1.0 + 0.5j) == math.inf
    assert perpetuity_mgf(two_sided, 0.0) == 1.0


def test_transform_outside_the_class_integrates_or_refuses():
    gamma_B = JointInput(Beta(1.5, 1.0), Gamma(2.0, 1.0))
    assert gamma_B.B.exp_weights() is None
    assert perpetuity_mgf(gamma_B, 0.7j) == _mgf_by_quadrature(gamma_B.B, 1.5, 0.7j, 1e-10)
    with pytest.raises(PredictionRefused, match="Beta"):
        perpetuity_mgf(JointInput(Beta(2.0, 2.0), Exponential(1.0)), 0.5j)


def test_series_sampler_matches_the_gamma_identity():
    lam = 1.7
    B = Difference(Mixture(((0.3, Exponential(1.0)), (0.7, Exponential(3.0)))), Exponential(2.0))
    n = 40_000
    series = sample_batch(JointInput(Beta(lam, 1.0), B), SimConfig(n_samples=n, master_seed=11)).values
    rng = np.random.default_rng(12)
    right, left = B.exp_weights()
    identity = B.sample(rng, n)
    for a, r in right:
        identity += rng.gamma(lam * a, 1.0 / r, n)
    for a, l in left:
        identity -= rng.gamma(lam * a, 1.0 / l, n)
    assert stats.ks_2samp(series, identity).pvalue > 1e-3


# -- constant A = gamma: M_X(s) = prod_k M_B(s gamma^k) ------------------------

@pytest.mark.parametrize("s", [0.3, -1.5 + 7j, 0.9 + 0.1j, -1.9, 2j, 0.999], ids=str)
def test_constant_coefficient_gives_the_exact_law_of_E2(s):
    # E2: A = 1/2 and X = Exp(1) - Exp(2), so M_X(s) = (1/(1 - s)) (2/(2 + s)), off the real axis too
    got = perpetuity_mgf(get_case("E2").joint, s)
    assert got == pytest.approx((1.0 / (1.0 - s)) * (2.0 / (2.0 + s)), rel=1e-14, abs=0.0)


def test_constant_coefficient_product_stops_where_the_weights_round_below_one():
    # 0.7 + 0.2 + 0.1 rounds to 1 - 2^-53, so no factor comes within 1e-16 of 1
    B = Mixture(((0.7, Exponential(1.0)), (0.2, Exponential(2.0)), (0.1, Exponential(3.0))))
    assert abs(B.mgf(0.0) - 1.0) > 1e-16
    s, want = 0.5 + 2j, 1.0
    for k in range(60):
        want *= B.mgf(s * 0.5 ** k)
    assert perpetuity_mgf(JointInput(PointMass(0.5), B), s) == pytest.approx(want, rel=1e-14, abs=0.0)


_CRIT5 = JointInput(Beta(1.0, 1.0), Difference(Exponential(2.0), Exponential(1.0)))


@pytest.mark.parametrize("joint", [get_case("E1").joint, get_case("E2").joint, get_case("E4").joint, _CRIT5],
                         ids=["E1", "E2", "E4", "crit5"])
def test_an_array_of_s_gives_the_scalar_bits(joint):
    s = np.array([[0.3, -1.5 + 7j, 0.0], [2j, -0.25 - 0.5j, 0.9 + 0.1j]])
    got = perpetuity_mgf(joint, s)
    assert got.shape == s.shape and got.dtype == complex
    scalar = [[perpetuity_mgf(joint, v) for v in row] for row in s.tolist()]
    assert all(type(v) is complex for row in scalar for v in row)
    assert got.tolist() == scalar
    t = np.array([0.25, 1.0, 4.0])
    assert perpetuity_cf(joint, t).tolist() == [perpetuity_cf(joint, v) for v in t.tolist()]
