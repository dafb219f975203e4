import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from perpetuity.distributions import (
    Affine,
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
    Shifted,
    SurvivalDefined,
    ThresholdDependent,
    Uniform,
    ValidationError,
    sample_pair,
    validate_nondegeneracy,
)

E2_MIXTURE = Mixture((
    (0.25, PointMass(0.0)),
    (0.25, Exponential(1.0)),
    (0.25, Negated(Exponential(2.0))),
    (0.25, Difference(Exponential(1.0), Exponential(2.0))),
))

ATOMS = Mixture(((0.3, PointMass(-1.0)), (0.5, PointMass(0.5)), (0.2, PointMass(2.0))))
VARIANTS = {
    "PointMass": PointMass(0.7),
    "Exponential": Exponential(1.3),
    "Gamma": Gamma(2.5, 1.0),
    "Beta": Beta(2.0, 1.0),
    "Uniform": Uniform(-1.0, 2.0),
    "Negated": Negated(Exponential(2.0)),
    "Shifted": Shifted(Exponential(1.0), -0.5),
    "Scaled": Scaled(Gamma(1.5, 1.0), 0.5),
    "Mixture": E2_MIXTURE,
    "Difference": Difference(Exponential(1.0), Exponential(2.0)),
    "SurvivalDefined": SurvivalDefined(lambda x: (1.0 + np.asarray(x, dtype=float)) ** -2
                                       * np.exp(-np.asarray(x, dtype=float)), 0.0, 1.0, "poly-exp"),
    # negative scales: atoms count only strictly below the mapped point, a density through 1 - S
    "Negated-atoms": Negated(ATOMS),
    "Scaled-atoms": Scaled(ATOMS, -2.0),
    "Scaled-negative": Scaled(Exponential(1.0), -2.0),
}


@pytest.mark.parametrize("dist", VARIANTS.values(), ids=list(VARIANTS))
def test_sampling_matches_survival_at_ten_points(dist):
    rng = np.random.default_rng(2024)
    n = 1_000_000
    draws = dist.sample(rng, n)
    grid = np.quantile(draws, np.linspace(0.05, 0.95, 10))
    for x in grid:
        p = float(np.asarray(dist.survival(x)))
        p_hat = float((draws > x).mean())
        se = math.sqrt(p * (1.0 - p) / n)
        assert abs(p_hat - p) <= 3.0 * se + 1e-12, (x, p, p_hat)


@pytest.mark.parametrize("dist", VARIANTS.values(), ids=list(VARIANTS))
def test_mgf_at_zero_is_one(dist):
    assert dist.mgf(0.0) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("dist", VARIANTS.values(), ids=list(VARIANTS))
def test_charfn_bounded_by_one(dist):
    for t in (-3.0, -0.7, 0.0, 0.4, 1.0, 5.0):
        assert abs(dist.charfn(t)) <= 1.0 + 1e-9


@pytest.mark.parametrize("rate", [0.3, 1.0, 2.0, 7.5])
def test_exponential_is_the_gamma_law_of_shape_one(rate):
    law, gamma = Exponential(rate), Gamma(1.0, rate)
    assert isinstance(law, Gamma)
    for fact in ("mean", "support", "mgf_domain", "mgf_pole"):
        assert getattr(law, fact)() == getattr(gamma, fact)(), fact
    for v in (-1.0, 0.0, 0.5):
        assert law.atom_at(v) == gamma.atom_at(v)
    assert repr(Exponential(2.0)) == "Exponential(rate=2.0)"
    assert Exponential(2.0) == Exponential(2.0) and Exponential(2.0) != Gamma(1.0, 2.0)
    with pytest.raises(ValidationError, match="Exponential rate must be > 0"):
        Exponential(0.0)
    # same law, two computations: exp and a product against gammaincc and a density taken in logs.  To
    # r x = 8 they agree within 1e-15; beyond, gammaincc's own rounding reaches 3.8e-15 by r x = 40
    z = np.linspace(0.01, 40.0, 4000)
    for zs, rel in ((z[z <= 8.0], 1e-15), (z, 5e-15)):
        x = np.concatenate(([-1.0, 0.0], zs / rate))
        np.testing.assert_allclose(law.survival(x), gamma.survival(x), rtol=rel, atol=0.0)
        off = x[x != 0.0]  # at 0 itself Gamma's density reads 0 and Exponential's the right limit, rate
        np.testing.assert_allclose(law.pdf(off), gamma.pdf(off), rtol=rel, atol=0.0)
    s = np.concatenate((np.linspace(-20.0, 0.999 * rate, 200), [rate, 2.0 * rate]))
    np.testing.assert_allclose(law.mgf(s), gamma.mgf(s), rtol=1e-15, atol=0.0)


# points on every VARIANTS law's closed strip, and each leaf's MGF by an independent formula, in mpmath
STRIP = [complex(re, im) for re in (-0.5, 0.3, 0.8) for im in (-7.0, -1.5, 0.4, 2.0, 12.0)]
LEAF_MGF = {
    "PointMass": lambda s: mp.exp(0.7 * s),
    "Exponential": lambda s: 1.3 / (1.3 - s),
    "Gamma": lambda s: (1.0 / (1.0 - s)) ** 2.5,
    "Beta": lambda s: 2.0 * (mp.exp(s) * (s - 1.0) + 1.0) / s ** 2,  # Beta(2, 1) has density 2u
    "Uniform": lambda s: (mp.exp(2.0 * s) - mp.exp(-s)) / (3.0 * s),
}


@pytest.mark.parametrize("dist", VARIANTS.values(), ids=list(VARIANTS))
def test_mgf_on_the_complex_strip(dist):
    name = type(dist).__name__
    for s in STRIP:
        z = dist.mgf(s)
        assert type(z) is complex
        assert dist.mgf(s.conjugate()) == pytest.approx(z.conjugate(), rel=1e-12, abs=0.0)
        assert abs(z) <= dist.mgf(s.real) * (1.0 + 1e-12)
        if name in LEAF_MGF:
            with mp.workdps(30):
                want = complex(LEAF_MGF[name](mp.mpc(s)))
            assert z == pytest.approx(want, rel=1e-13, abs=0.0)
    hi = dist.mgf_domain()[1]
    if name == "SurvivalDefined":
        # E e^{sB} = 1 + s int_0^inf e^{sy} (1+y)^{-2} e^{-y} dy
        s = mp.mpc(0.3, 2.0)
        with mp.workdps(30):
            want = complex(1 + s * mp.quad(lambda y: mp.exp((s - 1) * y) / (1 + y) ** 2, [0, 1, 5, 20, 60, mp.inf]))
        assert dist.mgf(0.3 + 2.0j) == pytest.approx(want, rel=0.0, abs=1e-9)
        with pytest.raises(NoClosedForm, match="decay_rate"):
            dist.mgf(complex(hi, 2.0))
    elif hi < math.inf:
        assert dist.mgf(complex(hi + 0.5, 2.0)) == math.inf


@pytest.mark.parametrize("dist,lo,hi", [
    (Exponential(2.0), -1.0, 1.5),
    (Gamma(2.0, 3.0), -1.0, 2.0),
    (Beta(2.0, 1.0), -2.0, 2.0),
    (Uniform(0.0, 1.0), -2.0, 2.0),
    (E2_MIXTURE, -1.0, 0.8),
])
def test_mgf_midpoint_log_convexity(dist, lo, hi):
    s = np.linspace(lo, hi, 21)
    for s1, s2 in zip(s[:-2], s[2:]):
        mid = 0.5 * (s1 + s2)
        lhs = math.log(dist.mgf(s1)) + math.log(dist.mgf(s2))
        assert lhs >= 2.0 * math.log(dist.mgf(mid)) - 1e-9


# Laws with E[D e^{sD}] in closed form, each of one sign, so that it stays away from 0
# and a relative test holds; then more whose MGF also takes an array of s.
TILTED_LAWS = [
    Uniform(0.0, 1.0),
    Uniform(0.25, 1.0),
    Uniform(-0.9, -0.1),
    Beta(2.0, 1.0),
    Beta(0.5, 3.0),
    PointMass(0.7),
    PointMass(-1.3),
    Mixture(((0.3, PointMass(0.2)), (0.7, PointMass(0.9)))),
]
ARRAY_MGF_LAWS = TILTED_LAWS + [
    Mixture(((0.2, PointMass(0.25)), (0.5, Beta(2.0, 1.0)), (0.3, Uniform(-1.0, 2.0)))),
    Shifted(Scaled(Beta(2.0, 1.0), 0.5), 0.25),
    Exponential(1.5),
    Negated(Exponential(2.0)),
    Difference(Exponential(1.0), Exponential(2.0)),
    Gamma(2.5, 1.0),
    E2_MIXTURE,
]
S_VALUES = st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=64)


@pytest.mark.parametrize("dist", ARRAY_MGF_LAWS, ids=repr)
@settings(deadline=None)
@given(s=S_VALUES, im=S_VALUES)
def test_array_mgf_is_the_scalar_mgf_to_the_bit(dist, s, im):
    # real s, then complex s with the same real parts
    for s, kind in ((s, float), ([complex(v, w) for v, w in zip(s, im)], complex)):
        got = dist.mgf(np.array(s))
        want = [dist.mgf(v) for v in s]
        assert all(type(w) is kind for w in want)
        assert got.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("dist", TILTED_LAWS, ids=repr)
@settings(deadline=None)
@given(s=S_VALUES)
def test_tilted_mgf_is_the_derivative_of_the_mgf(dist, s):
    sa, h = np.array(s), 1e-3
    central = (dist.mgf(sa + h) - dist.mgf(sa - h)) / (2.0 * h)
    np.testing.assert_allclose(dist.tilted_mgf(sa), central, rtol=1e-6, atol=0.0)
    assert type(dist.tilted_mgf(s[0])) is float


@pytest.mark.parametrize("dist", ARRAY_MGF_LAWS[len(TILTED_LAWS):] + [Exponential(1.0)], ids=repr)
def test_tilted_mgf_is_none_without_a_closed_form(dist):
    assert dist.tilted_mgf(0.5) is None


def test_threshold_coefficient_is_a_deterministic_function_of_b():
    joint = JointInput(None, Exponential(1.0), ThresholdDependent(0.3, 0.7, 1.0))
    rng = np.random.default_rng(8)
    a, b = sample_pair(joint, rng, 200_000)
    assert np.array_equal(a == 0.3, b > 1.0)
    # conditional frequencies are exact, not approximate
    assert float((a == 0.3).mean()) == float((b > 1.0).mean())
    marg = joint.A_marginal()
    assert marg.atom_at(0.3) == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_atom_bookkeeping_through_the_tree():
    assert E2_MIXTURE.atom_at(0.0) == pytest.approx(0.25)
    d = Difference(Mixture(((0.5, PointMass(1.0)), (0.5, PointMass(3.0)))),
                   Mixture(((0.5, PointMass(1.0)), (0.5, PointMass(2.0)))))
    assert d.atom_at(0.0) == pytest.approx(0.25)
    assert d.atom_at(1.0) == pytest.approx(0.25)
    assert sum(d.atoms().values()) == pytest.approx(1.0)
    # a half-continuous difference is not symbolically resolvable: unknown, not 0
    half = Difference(Mixture(((0.5, PointMass(1.0)), (0.5, Exponential(1.0)))),
                      Mixture(((0.5, PointMass(1.0)), (0.5, Exponential(2.0)))))
    assert half.atom_at(0.0) is None
    assert Negated(E2_MIXTURE).atom_at(0.0) == pytest.approx(0.25)
    assert Shifted(PointMass(1.0), 2.0).atom_at(3.0) == pytest.approx(1.0)


@pytest.mark.parametrize("x", [-2.0, -1.0, -0.5])
def test_negated_survival_counts_an_atom_away_from_zero_only_below(x):
    # P{-I > x} = P{I < -x} for I = 0.5 delta_1 + 0.5 Exp(1): the atom at 1 counts only when 1 < -x
    inner = Mixture(((0.5, PointMass(1.0)), (0.5, Exponential(1.0))))
    exact = 0.5 * (1.0 < -x) + 0.5 * (1.0 - math.exp(x))
    assert Negated(inner).survival(x) == pytest.approx(exact, rel=1e-15, abs=0.0)
    assert Negated(inner).survival(np.array([x]))[0] == pytest.approx(exact, rel=1e-15, abs=0.0)


def test_e2_mixture_atom_mass_sampled():
    rng = np.random.default_rng(77)
    n = 100_000
    draws = E2_MIXTURE.sample(rng, n)
    freq = float((draws == 0.0).mean())
    se = math.sqrt(0.25 * 0.75 / n)
    assert abs(freq - 0.25) <= 3.0 * se


def test_difference_closed_form_vs_quadrature():
    d = Difference(Exponential(1.0), Exponential(2.0))
    # independent numerical convolution of the two exponential marginals
    from perpetuity.quadrature import integrate_semi_infinite
    for x in (-1.5, -0.2, 0.0, 0.4, 2.0):
        conv = integrate_semi_infinite(
            lambda y: 2.0 * math.exp(-2.0 * y) * math.exp(-max(x + y, 0.0)), 0.0, 1e-11, 2.0)
        assert float(np.asarray(d.survival(x))) == pytest.approx(conv.value, abs=1e-9)


def _mp_exp_difference(lam, mu, x):
    """P{Exp(lam) - Exp(mu) > x} in mpmath."""
    if x >= 0:
        return mu / (lam + mu) * mp.exp(-lam * x)
    return 1 - lam / (lam + mu) * mp.exp(mu * x)


def test_difference_of_exponential_mixtures_is_the_double_sum():
    # the laws of the tail_thm2_remainder golden config
    left = ((0.5, 1.0), (0.2, 2.0), (0.3, 3.5))
    right = ((0.3, 2.0), (0.7, 3.0))
    d = Difference(Mixture(tuple((w, Exponential(r)) for w, r in left)),
                   Mixture(tuple((w, Exponential(r)) for w, r in right)))
    xs = np.linspace(-10.0, 10.0, 81)
    with mp.workdps(30):
        want = [float(sum(mp.mpf(p) * mp.mpf(q) * _mp_exp_difference(mp.mpf(lam), mp.mpf(mu), mp.mpf(x))
                          for p, lam in left for q, mu in right)) for x in xs]
    np.testing.assert_allclose(np.asarray(d.survival(xs)), want, rtol=1e-13, atol=0)


def test_difference_of_gammas_keeps_relative_digits_in_the_far_tail():
    d = Difference(Gamma(1.5, 1.0), Gamma(1.5, 1.0))
    a = mp.mpf(1.5)
    f = lambda y: mp.gammainc(a, 50 + y, mp.inf, regularized=True) * y ** (a - 1) * mp.exp(-y) / mp.gamma(a)
    with mp.workdps(30):
        exact = float(mp.quad(f, [0, 1, 5, 20, mp.inf]))
    assert float(d.survival(50.0)) == pytest.approx(exact, rel=1e-6, abs=0.0)


_ATOMS_BELOW_HALF = Mixture(((0.3, PointMass(-1.0)), (0.7, PointMass(0.5))))
_RATE = 1.9155904382257622


@pytest.mark.parametrize("law,x,exact", [
    # P{U - E > x} = (h - (1 - e^{-h})) / 1.5 with h = 0.5 - x, for U ~ Uniform(-1, 0.5)
    (Difference(Uniform(-1.0, 0.5), Exponential(1.0)), 0.45, 8.196163338093390e-4),
    (Difference(Uniform(-1.0, 0.5), Exponential(1.0)), 0.49, 3.322249944536911e-05),
    # only the atom at 0.5 lies above x: 0.7 P{E < 0.5 - x}
    (Difference(_ATOMS_BELOW_HALF, Exponential(_RATE)), 0.45, -0.7 * math.expm1(-0.05 * _RATE)),
], ids=["uniform-0.45", "uniform-0.49", "atoms-0.45"])
def test_difference_survival_near_the_top_of_a_bounded_left_part(law, x, exact):
    # the integrand S_L(x + y) f_R(y) is 0 past y = sup L - x, a sliver the quadrature must not miss
    assert law.survival(x) == pytest.approx(exact, rel=1e-13, abs=0.0)
    assert law.survival(np.array([x]))[0] == pytest.approx(exact, rel=1e-13, abs=0.0)


_NEG_ATOMS = Negated(ATOMS)  # atoms at 1, -0.5 and -2
_C = 0.5381220831028846


def test_difference_survival_with_an_atomic_left_part_counts_each_atom():
    # P{L - R > x} = sum w P{R < v - x} for R = -c Beta(2, 1), where P{R < t} = 1 - (t/c)^2 on [-c, 0];
    # at x = 0.036 the atom at -0.5 puts a jump 0.002 above the integral's lower end -c
    xs = np.array([-1.9, -0.45, 0.0359913256420504, 0.6])
    exact = sum(w * (1.0 - np.clip((xs - v) / _C, 0.0, 1.0) ** 2) for v, w in ((1.0, 0.3), (-0.5, 0.5), (-2.0, 0.2)))
    got = Difference(_NEG_ATOMS, Scaled(Beta(2.0, 1.0), -_C)).survival(xs)
    np.testing.assert_allclose(got, exact, rtol=1e-13, atol=0.0)


def test_difference_survival_of_a_mixture_left_part_has_no_kink_inside_an_integral():
    # the Beta part of L tops out at 1, a kink of S_L inside the range of a single integral; by mpmath at 30
    # digits, held to the survival's own budget of 1e-10 times a bound on the value
    law = Difference(Mixture(((2.0 / 3.0, Beta(2.0, 1.0)), (1.0 / 3.0, Exponential(1.3)))), Gamma(2.5, 1.0))
    exact = [0.21093955268984958718, 0.10203500145609009238, 0.04691885589560526454]
    np.testing.assert_allclose(law.survival(np.array([-0.5, -0.05, 0.3])), exact, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("scale,atom", [(1.1, 1.5), (-2.7, -1.25), (-2.7, 1.5)])
def test_affine_survival_at_the_image_of_an_atom_counts_it_as_drawn(scale, atom):
    # the draw of an atom a is scale * a + 1.1 in floating point; survival there must not count it,
    # though (x - 1.1) / scale misses a by an ulp
    inner = Mixture(((0.375, PointMass(-1.25)), (0.25, Exponential(1.0)), (0.375, PointMass(1.5))))
    x = scale * atom + 1.1
    y = (x - 1.1) / scale
    exact = 0.25 * (math.exp(-max(y, 0.0)) if scale > 0 else -math.expm1(-max(y, 0.0)))
    exact += sum(w for a, w in ((-1.25, 0.375), (1.5, 0.375)) if scale * a + 1.1 > x)
    assert Affine(inner, scale, 1.1).survival(x) == pytest.approx(exact, rel=1e-14, abs=0.0)


def test_difference_left_tail_across_the_kink_of_a_bounded_left_part():
    # P{E - U < -0.1} = int_0^0.9 (0.9 - e) e^{-e} de = e^{-0.9} - 0.1
    below = Difference(Exponential(1.0), Uniform(0.0, 1.0)).prob_below(-0.1)
    assert float(below) == pytest.approx(math.exp(-0.9) - 0.1, rel=1e-13, abs=0.0)


_POLY_EXP = VARIANTS["SurvivalDefined"]


_SCALAR_FACT_LAWS = {
    "PointMass": PointMass(0.5),
    "atomic-Mixture": ATOMS,
    "Exponential": Exponential(1.0),
    "Difference": Difference(Exponential(1.0), Uniform(0.0, 1.0)),
    "SurvivalDefined": _POLY_EXP,
    "Scaled-negative": Scaled(Exponential(1.0), -2.0),
}
_SURVIVAL_LAWS = {**_SCALAR_FACT_LAWS, **{k: VARIANTS[k] for k in ("Gamma", "Beta", "Uniform", "Shifted", "Mixture")}}


@pytest.mark.parametrize("fact, law", [
    pytest.param("prob_below", law, id=name) for name, law in _SCALAR_FACT_LAWS.items()
] + [
    pytest.param("survival", law, id=f"{name}-survival") for name, law in _SURVIVAL_LAWS.items()
])
@pytest.mark.parametrize("y", [-1.5, -0.1, 0.5, 2.0])
def test_prob_below_of_a_scalar_is_a_float_with_the_array_bits(fact, law, y):
    # P{D < y}, and P{D > y}, which callers read as a number without converting it
    got = getattr(law, fact)(y)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.asarray(getattr(law, fact)(np.array([y])), dtype=float)[:1].tobytes()


def test_survival_defined_mgf_of_an_array_is_the_scalar_calls():
    # the charfn path for a Beta(lam, 1) coefficient and a poly-exp increment asks B.mgf on arrays of complex s
    s = np.array([[0.3 + 1.0j, -0.5 + 2.0j, 0.0j], [0.1j, 0.5 + 0.0j, -2.0 - 0.25j]])
    got = _POLY_EXP.mgf(s)
    assert got.shape == s.shape and got.dtype == complex
    want = np.array([_POLY_EXP.mgf(v) for v in s.ravel().tolist()]).reshape(s.shape)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("x", [-6.0, -1.0, -0.25, 0.5])
def test_negated_survival_defined_is_one_minus_its_survival(x):
    # P{-D > x} = P{D < -x} = 1 - (1 + y)^-2 e^-y at y = -x > 0, and 0 where -x <= 0 = inf D
    y = -x
    exact = 1.0 - (1.0 + y) ** -2 * math.exp(-y) if y > 0 else 0.0
    assert Negated(_POLY_EXP).survival(x) == pytest.approx(exact, rel=1e-15, abs=1e-300)


def test_negated_difference_is_the_mirrored_difference():
    # P{-(E - G) > x} by the mirrored difference G - E, against 1 - P{E - G > -x}: two quadratures
    inner = Difference(Exponential(1.0), Gamma(2.0, 1.0))
    xs = np.array([-3.0, -0.7, 0.0, 0.4, 2.5])
    np.testing.assert_allclose(Negated(inner).survival(xs), 1.0 - inner.survival(-xs), rtol=0.0, atol=1e-9)


def test_affine_pdf_mean_and_log_moment_follow_the_map():
    inner = Gamma(2.5, 1.0)
    law = Affine(inner, -0.5, 0.3)
    xs = np.array([-2.0, -0.4, 0.1, 0.29])
    np.testing.assert_allclose(law.pdf(xs), inner.pdf((xs - 0.3) / -0.5) / 0.5, rtol=1e-15, atol=0.0)
    assert law.pdf(0.5) == 0.0  # above 0.3, the image of inf inner = 0
    assert law.mean() == pytest.approx(-0.5 * 2.5 + 0.3, rel=1e-15)
    assert Affine(Beta(2.0, 1.0), -2.0).log_abs_moment() == pytest.approx(-0.5 + math.log(2.0), rel=1e-14)
    assert law.log_abs_moment() is None  # E log|aD + c| is not stated for an offset
    assert Affine(PointMass(1.0), 3.0).pdf(0.3) is None  # no density to map


def test_unconverged_difference_survival_raises():
    # no double-precision sum meets tol 1e-30, so every member misses it
    with pytest.raises(NoClosedForm, match=r"Difference survival did not converge at x = "):
        Difference(Gamma(1.5, 1.0), Gamma(1.5, 1.0)).survival(np.linspace(-5.0, 5.0, 11), tol=1e-30)


def _mp_gamma_difference(kl, rl, kr, rr, x):
    """P{L - R > x} for L ~ Gamma(kl, rl), R ~ Gamma(kr, rr), as P{R < lo} + int_lo^inf S_L(x + y) f_R(y) dy.

    The integral is taken in u = y^kr, where f_R(y) dy = rr^kr e^{-rr y} du / Gamma(kr + 1) has no
    singularity at y = 0; below lo = max(0, -x), S_L(x + y) is 1.  mp.re drops the imaginary part of
    rounding size that gammainc gives where x + y dips below 0 at u = lo^kr.
    """
    kl, rl, kr, rr, x = map(mp.mpf, (kl, rl, kr, rr, x))
    lo = max(mp.mpf(0), -x)
    f = lambda u: mp.gammainc(kl, rl * (x + u ** (1 / kr)), mp.inf, regularized=True) * mp.exp(-rr * u ** (1 / kr))
    body = mp.quad(f, [lo**kr, (lo + 4) ** kr, mp.inf])
    return mp.gammainc(kr, 0, rr * lo, regularized=True) + rr**kr / mp.gamma(kr + 1) * mp.re(body)


def test_difference_of_small_shape_gammas_matches_mpmath():
    # bound stated before the run: 1e-10 relative.  R's density blows up like y^{-0.6} at 0, where
    # the quadrature in the variable y itself refused every x >= 0 at tol 1e-10
    xs = [-3.0, -0.5, 0.0, 0.2, 1.0, 4.0, 10.0]
    got = Difference(Gamma(0.3, 1.0), Gamma(0.4, 2.0)).survival(np.array(xs))
    with mp.workdps(20):
        exact = [float(_mp_gamma_difference(0.3, 1.0, 0.4, 2.0, x)) for x in xs]
    assert got == pytest.approx(exact, rel=1e-10, abs=0.0)


def test_difference_mgf_and_domain():
    d = Difference(Exponential(1.0), Exponential(2.0))
    assert d.mgf(0.5) == pytest.approx((1.0 / 0.5) * (2.0 / 2.5), rel=1e-12)
    lo, hi = d.mgf_domain()
    assert lo == pytest.approx(-2.0)
    assert hi == pytest.approx(1.0)


def test_survival_defined_round_trip():
    S = lambda x: (1.0 + np.asarray(x, dtype=float)) ** -2 * np.exp(-np.asarray(x, dtype=float))
    d = SurvivalDefined(S, 0.0, 1.0, "poly-exp")
    xs = np.linspace(0.1, 15.0, 40)
    back = d.inverse_survival(np.asarray(d.survival(xs)))
    assert np.max(np.abs(back - xs)) < 1e-6


@pytest.mark.parametrize("p", [2.0, 0.5])
def test_beta_p_1_draws_ks(p):
    d = Beta(p, 1.0)
    draws = d.sample(np.random.default_rng(606), 200_000)
    res = stats.kstest(draws, lambda x: 1.0 - np.asarray(d.survival(x)))
    assert res.pvalue > 1e-3


def test_survival_defined_round_trip_in_u():
    S = lambda x: (1.0 + np.asarray(x, dtype=float)) ** -2 * np.exp(-np.asarray(x, dtype=float))
    d = SurvivalDefined(S, 0.0, 1.0, "poly-exp")
    u = np.logspace(0.0, -16.0, 161)
    back = np.asarray(d.survival(d.inverse_survival(u)))
    assert np.max(np.abs(back / u - 1.0)) < 1e-6
    assert d.inverse_survival(1.0) == 0.0


def test_survival_defined_draws_ks():
    S = lambda x: (1.0 + np.asarray(x, dtype=float)) ** -2 * np.exp(-np.asarray(x, dtype=float))
    d = SurvivalDefined(S, 0.0, 1.0, "poly-exp")
    draws = d.sample(np.random.default_rng(607), 200_000)
    res = stats.kstest(draws, lambda x: 1.0 - np.asarray(d.survival(x)))
    assert res.pvalue > 1e-3


def test_survival_defined_mgf_near_its_decay_rate():
    # E e^{sB} = 1 + s int_0^inf e^{-(1-s)y} (1+y)^{-2} dy; 1.9496227367 at s = 0.99 (mpmath)
    S = lambda x: (1.0 + np.asarray(x, dtype=float)) ** -2 * np.exp(-np.asarray(x, dtype=float))
    d = SurvivalDefined(S, 0.0, 1.0, "poly-exp")
    assert d.mgf(0.99 * d.decay_rate) == pytest.approx(1.9496227367, abs=1e-6)
    # at and past the certified rate the handle cannot settle convergence: refused, not overflowed
    for factor in (1.0, 1.01):
        with pytest.raises(NoClosedForm, match="decay_rate"):
            d.mgf(factor * d.decay_rate)


def test_density_left_limit():
    assert Uniform(0.0, 1.0).density_left_limit(1.0) == 1.0
    assert Uniform(0.0, 0.5).density_left_limit(1.0) == 0.0
    assert Beta(2.0, 1.0).density_left_limit(1.0) == 2.0
    assert Beta(2.0, 2.0).density_left_limit(1.0) == 0.0
    assert Beta(2.0, 0.5).density_left_limit(1.0) == math.inf
    assert Beta(2.0, 2.0).density_left_limit(0.5) == pytest.approx(1.5, rel=1e-12)
    assert PointMass(1.0).density_left_limit(1.0) == 0.0
    mix = Mixture(((0.5, PointMass(0.25)), (0.5, Uniform(0.0, 1.0))))
    assert mix.density_left_limit(1.0) == 0.5
    assert Exponential(1.0).density_left_limit(1.0) is None


def test_survival_defined_rejects_bad_handles():
    with pytest.raises(ValidationError):
        SurvivalDefined(lambda x: 0.5 * np.ones_like(np.asarray(x, dtype=float)), 0.0, 1.0)
    with pytest.raises(ValidationError):
        SurvivalDefined(lambda x: np.exp(np.asarray(x, dtype=float)) / math.e, 1.0, 1.0)


def test_sign_and_unit_atom_facts():
    A = Beta(2.0, 1.0)
    assert A.positive() is True
    assert A.support() == (0.0, 1.0)
    assert A.atom_at(1.0) == 0.0
    assert A.prob_negative() == 0.0
    A2 = PointMass(-0.5)
    assert A2.positive() is False
    assert A2.atom_at(-1.0) == 0.0
    assert A2.prob_negative() == 1.0
    # an all-negative atomic law: 1 - P{A > 0} - P{A = 0} is exactly 1, which the mixed-sign criterion reads
    assert Mixture(((0.1, PointMass(-0.3)), (0.2, PointMass(-0.7)), (0.7, PointMass(-0.9)))).prob_negative() == 1.0
    # lower end 0: positive exactly when there is no atom there
    assert Mixture(((0.5, PointMass(0.0)), (0.5, Exponential(1.0)))).positive() is False
    assert Uniform(0.0, 1.0).positive() is True
    # lower end 0 and no stated atom there (no part has atoms or a density): sign and P{A < 0} unknown
    spread = Difference(Uniform(0.0, 1.0), Uniform(0.0, 1.0))
    unknown = Shifted(Difference(spread, spread), 2.0)
    assert unknown.support()[0] == 0.0 and unknown.atom_at(0.0) is None
    assert unknown.positive() is None and unknown.prob_negative() is None


def test_nondegeneracy_flags_constant_fixed_point():
    rep = validate_nondegeneracy(JointInput(PointMass(0.5), PointMass(1.0)))
    assert not rep.ok
    assert any("c = 2" in v for v in rep.violations)
    rep2 = validate_nondegeneracy(JointInput(PointMass(0.5), PointMass(0.0)))
    assert not rep2.ok
    rep3 = validate_nondegeneracy(JointInput(Mixture(((0.5, PointMass(0.0)), (0.5, PointMass(0.5)))),
                                             Exponential(1.0)))
    assert not rep3.ok
    ok = validate_nondegeneracy(JointInput(PointMass(0.5), Exponential(1.0)))
    assert ok.ok
    # B = 0 a.s. written as a one-atom mixture, beside a continuous A
    rep4 = validate_nondegeneracy(JointInput(Uniform(0.2, 0.8), Mixture(((1.0, PointMass(0.0)),))))
    assert not rep4.ok
    assert "degeneracy: P{B=0} = 1" in rep4.violations


def test_joint_input_shape_validation():
    with pytest.raises(ValidationError):
        JointInput(None, Exponential(1.0))
    with pytest.raises(ValidationError):
        JointInput(PointMass(0.5), Exponential(1.0), ThresholdDependent(0.3, 0.7, 1.0))
    with pytest.raises(ValidationError):
        ThresholdDependent(0.5, 0.5, 1.0)


def test_tail_model_callables():
    g = GammaLike(2.0, -1.0, 1.0)
    assert g(2.0) == pytest.approx(2.0 * 0.5 * math.exp(-2.0), rel=1e-12)
    with pytest.raises(ValidationError):
        GammaLike(-1.0, 0.0, 1.0)
    epr = ExpPlusRemainder(C=0.5, b=1.0, r=lambda x: 0.25 * np.exp(-2.0 * np.asarray(x, dtype=float)))
    assert epr(0.0) == pytest.approx(0.75)
