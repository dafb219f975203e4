import cmath
import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from perpetuity import asymptotics, criteria, quadrature
from perpetuity.asymptotics import _mgf_by_quadrature, thm2_inputs, thm2_K
from perpetuity.distributions import (
    Beta,
    Difference,
    ExpPlusRemainder,
    Exponential,
    Gamma,
    JointInput,
    Mixture,
    SurvivalDefined,
    Uniform,
)
from perpetuity.oracle import get_case
from perpetuity.quadrature import (
    QuadResult,
    expm1_over,
    frullani,
    integrate_batch,
    integrate_finite,
    integrate_semi_infinite,
)


def test_polynomial_exactness_on_single_panel():
    # the embedded 15-point rule integrates polynomials up to degree 22
    for k in range(0, 23, 2):
        res = integrate_finite(lambda x, k=k: x ** k, 0.0, 1.0, 1e-10)
        assert res.converged
        assert abs(res.value - 1.0 / (k + 1)) < 1e-13


def test_entire_integrand_reference_value():
    res = integrate_finite(lambda y: expm1_over(1.0, y), 0.0, 1.0, 1e-12)
    assert res.converged
    assert abs(res.value - 1.3179021514544038) < 1e-12


def test_linearity_on_random_poly_exp_products():
    rng = np.random.default_rng(5)
    for _ in range(10):
        c1 = rng.uniform(-2, 2, size=3)
        c2 = rng.uniform(-2, 2, size=3)
        al, be = rng.uniform(-3, 3, size=2)
        f = lambda x: (c1[0] + c1[1] * x + c1[2] * x * x) * math.exp(-x)
        g = lambda x: (c2[0] + c2[1] * x + c2[2] * x * x) * math.exp(-2 * x)
        h = lambda x: al * f(x) + be * g(x)
        rf = integrate_finite(f, 0.0, 4.0, 1e-11)
        rg = integrate_finite(g, 0.0, 4.0, 1e-11)
        rh = integrate_finite(h, 0.0, 4.0, 1e-11)
        combined_err = rh.abs_error_estimate + abs(al) * rf.abs_error_estimate + abs(be) * rg.abs_error_estimate
        assert abs(rh.value - (al * rf.value + be * rg.value)) <= combined_err + 1e-13


def test_complex_integrand_shared_panels():
    res = integrate_finite(lambda x: np.exp(1j * x), 0.0, 1.0, 1e-12)
    exact = math.sin(1.0) + 1j * (1.0 - math.cos(1.0))
    assert abs(res.value - exact) < 1e-12


def test_semi_infinite_exponential_moments():
    r0 = integrate_semi_infinite(lambda y: math.exp(-y), 0.0, 1e-10, 1.0)
    r1 = integrate_semi_infinite(lambda y: y * math.exp(-y), 0.0, 1e-10, 1.0)
    assert r0.converged and abs(r0.value - 1.0) < 1e-9
    assert r1.converged and abs(r1.value - 1.0) < 1e-9


def test_frullani_cross_check_50_random_pairs():
    rng = np.random.default_rng(17)
    for _ in range(50):
        a, b = rng.uniform(0.1, 10.0, size=2)
        f = lambda y: (math.exp(-a * y) - math.exp(-(a + b) * y)) / y if y > 0 else b
        res = integrate_semi_infinite(f, 0.0, 1e-11, a)
        expect = frullani(a, b)
        assert res.converged
        assert abs(res.value - expect) <= 1e-8 * abs(expect)


def test_frullani_closed_form():
    assert frullani(1.0, 1.0) == pytest.approx(math.log(2.0), abs=1e-15)
    assert frullani(2.0, 6.0) == pytest.approx(math.log(4.0), abs=1e-15)


def test_series_branch_matches_direct_at_switch():
    # the small-argument series takes over below |b*y| = 1e-4
    for b in (1.0, -1.0, 2.5):
        for y in (0.99e-4 / abs(b), 1.01e-4 / abs(b)):
            direct = math.expm1(b * y) / y
            assert abs(expm1_over(b, y) - direct) <= 1e-12 * abs(direct)


def test_expm1_over_vectorized_and_limit():
    assert expm1_over(2.0, 0.0) == pytest.approx(2.0, abs=1e-15)
    ys = np.array([0.0, 1e-9, 0.1, 3.0])
    vals = expm1_over(1.5, ys)
    assert vals.shape == ys.shape
    assert vals[0] == pytest.approx(1.5, abs=1e-12)
    assert vals[-1] == pytest.approx(math.expm1(4.5) / 3.0, rel=1e-12)
    # complex y: the series below |b y| < 1e-4 (first two), the direct expm1 form above it
    zs = np.array([3e-5 + 4e-5j, 1e-9j, 2e-4 + 1e-4j, 0.1 - 2.0j, 3.0 + 7.0j])
    vals = expm1_over(1.5, zs)
    assert vals.shape == zs.shape
    for z, v in zip(zs.tolist(), vals.tolist()):
        assert type(expm1_over(1.5, z)) is complex
        assert expm1_over(1.5, z) == pytest.approx(v, rel=1e-15, abs=0.0)
        assert v == pytest.approx(complex(mp.expm1(1.5 * mp.mpc(z)) / mp.mpc(z)), rel=1e-13, abs=0.0)


def test_nonconvergence_is_reported_not_raised(monkeypatch):
    # a needle the subdivision cap cannot resolve at this tolerance
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 8)
    res = integrate_finite(lambda x: 1.0 / math.sqrt(abs(x - 0.123456789) + 1e-300), 0.0, 1.0, 1e-15)
    assert isinstance(res, QuadResult)
    assert not res.converged


@pytest.mark.parametrize("hint", [math.inf, math.nan, 0.0, -1.0])
def test_semi_infinite_refuses_bad_decay_hint(hint):
    # an infinite hint made the probe step 0 and the scan never ended
    with pytest.raises(ValueError, match="decay_hint"):
        integrate_semi_infinite(lambda y: math.exp(-y), 0.0, 1e-10, hint)


# (scalar integrand of member c, batch integrand, member parameters, limits)
_BATCH_CASES = {
    "smooth": (lambda y, c: math.exp(-c * y) * math.cos(3.0 * y),
               lambda y, c: np.exp(-c * y) * np.cos(3.0 * y),
               np.array([0.5, 1.0, 2.0, 4.0]), (np.zeros(4), np.array([1.0, 2.5, 4.0, 7.0]))),
    "kinked": (lambda y, c: abs(y - c),
               lambda y, c: np.abs(y - c),
               np.array([0.1, 0.3337, 0.5, 0.9]), (np.zeros(4), np.ones(4))),
    "sqrt-singular": (lambda y, c: math.sqrt(y - c) * math.exp(-y),
                      lambda y, c: np.sqrt(np.maximum(y - c, 0.0)) * np.exp(-y),
                      np.array([0.0, 0.25, 1.0]), (np.array([0.0, 0.25, 1.0]), np.array([1.0, 3.0, 2.0]))),
}


@pytest.mark.parametrize("name", sorted(_BATCH_CASES))
def test_batch_agrees_with_integrate_finite(name):
    scalar, vec, params, (lo, hi) = _BATCH_CASES[name]
    tol = 1e-10
    res = integrate_batch(lambda y, i: vec(y, params[i, None, None]), lo, hi, tol)
    assert res.value.shape == params.shape and res.converged.all()
    assert np.all(res.abs_error_estimate <= tol)
    for k, c in enumerate(params):
        ref = integrate_finite(lambda y: scalar(y, c), lo[k], hi[k], tol)
        assert ref.converged
        assert abs(res.value[k] - ref.value) <= res.abs_error_estimate[k] + ref.abs_error_estimate + 1e-14


def test_batch_of_one_and_complex_values():
    res = integrate_batch(lambda y, i: np.exp(1j * y), 0.0, 1.0, 1e-12)
    assert res.value.shape == (1,) and np.iscomplexobj(res.value)
    assert abs(res.value[0] - (math.sin(1.0) + 1j * (1.0 - math.cos(1.0)))) < 1e-12
    assert res.converged[0]
    # complex members with their own limits
    his = np.array([0.5, 2.0, 10.0])
    res = integrate_batch(lambda y, i: np.exp((1j - 0.5) * y), 0.0, his, 1e-12)
    exact = (np.exp((1j - 0.5) * his) - 1.0) / (1j - 0.5)
    assert np.all(np.abs(res.value - exact) < 1e-12)


def test_batch_reports_nonconvergence_under_a_small_panel_budget(monkeypatch):
    monkeypatch.setattr(quadrature, "_BATCH_MAX_PANELS", 8)
    needle = lambda y, i: 1.0 / np.sqrt(np.abs(y - 0.123456789) + 1e-300)
    res = integrate_batch(needle, 0.0, np.array([1.0, 2.0]), 1e-15)
    assert isinstance(res, QuadResult)
    assert not res.converged.any()
    assert np.all(res.subdivisions <= 8)
    assert np.all(res.abs_error_estimate > 1e-15)


def test_batch_chunks_agree_with_one_chunk():
    # more members than one chunk holds; each must match its own one-member batch
    his = np.linspace(0.5, 6.0, 600)
    f = lambda y, i: np.sqrt(y) * np.exp(-y)
    res = integrate_batch(f, 0.0, his, 1e-11)
    assert res.converged.all()
    for k in (0, 255, 256, 599):
        one = integrate_batch(f, 0.0, his[k], 1e-11)
        assert abs(res.value[k] - one.value[0]) <= res.abs_error_estimate[k] + one.abs_error_estimate[0]


class _Points:
    """Integrand wrapper that counts the points it is evaluated at, one by one or as arrays."""

    def __init__(self, f):
        self.f = f
        self.points = 0

    def __call__(self, y):
        self.points += np.size(y)
        return self.f(y)


# numpy integrands, called with one point on the scalar path and with node
# arrays on the vectorized one: the same arithmetic on both
_PATH_CASES = {
    "smooth": lambda y: np.exp(-y) * np.cos(3.0 * y),
    "kinked": lambda y: np.abs(y - 0.3337) * np.exp(-y),
    "complex": lambda y: np.exp((5j - 0.7) * y),
}


@pytest.mark.parametrize("name", sorted(_PATH_CASES))
def test_vectorized_path_returns_the_scalar_result(name):
    f = _PATH_CASES[name]
    for tol in (1e-8, 1e-12):
        want = integrate_finite(f, 0.0, 3.0, tol)
        got = integrate_finite(f, 0.0, 3.0, tol, vectorized=True)
        assert want.subdivisions > 1
        assert got == want


@pytest.mark.parametrize("name", sorted(_PATH_CASES))
def test_vectorized_scan_picks_the_same_truncation_point(name, monkeypatch):
    f = _PATH_CASES[name]
    his = []
    finite = quadrature.integrate_finite

    def spy(f, lo, hi, tol, **kw):
        his.append(hi)
        return finite(f, lo, hi, tol, **kw)

    monkeypatch.setattr(quadrature, "integrate_finite", spy)
    want = integrate_semi_infinite(f, 0.0, 1e-11, 0.7)
    got = integrate_semi_infinite(f, 0.0, 1e-11, 0.7, vectorized=True)
    assert want.converged
    assert got == want
    assert len(his) == 2 and his[0] == his[1]


@pytest.mark.parametrize("vectorized", [False, True])
def test_refusal_costs_no_more_than_the_scan(vectorized):
    # |cos| never stays below the threshold, so no truncation point exists;
    # integrating [0, 1e4] instead would take thousands of panels
    f = _Points(np.cos if vectorized else math.cos)
    res = integrate_semi_infinite(f, 0.0, 1e-10, 1.0, vectorized=vectorized)
    assert not res.converged
    assert math.isnan(res.value) and res.abs_error_estimate == math.inf
    assert f.points <= 10_000 + quadrature._PROBE_CHUNK



@pytest.mark.parametrize("decay_hint", [0.7, 2.0], ids=["one-chunk", "two-chunks"])
def test_scalar_scan_stops_at_the_truncation_point(decay_hint, monkeypatch):
    # e^{-y} falls below 1e-13 at the 21st of the 0.7 probes and the 60th of the 2.0 ones, so the scan
    # ends 2 probes later, inside a chunk of _PROBE_CHUNK = 32: f is called at no probe past that point
    f = _Points(lambda y: math.exp(-y))
    scanned = []
    finite = quadrature.integrate_finite

    def spy(g, lo, hi, tol, **kw):
        scanned.append((f.points, hi))
        return finite(g, lo, hi, tol, **kw)

    monkeypatch.setattr(quadrature, "integrate_finite", spy)
    assert integrate_semi_infinite(f, 0.0, 1e-10, decay_hint).converged
    (points, trunc), = scanned
    step = 1.0 / decay_hint
    y, probes = step, 1
    while y != trunc:
        y += step
        probes += 1
    assert probes == {0.7: 23, 2.0: 62}[decay_hint]
    assert points == probes

# -- the scalar path's Python-float nodes give the np.float64 nodes' results --

def _reference_panels(f, edges, vectorized):
    """(Kronrod, Gauss) values as `_panels` formed them before Python-float nodes: numpy nodes, np.add.reduce."""
    mid_half = np.array([(0.5 * (a + b), 0.5 * (b - a)) for a, b in zip(edges[:-1], edges[1:])])
    xs = mid_half[:, :1] + mid_half[:, 1:] * quadrature._NODES
    fs = np.asarray(f(xs.ravel()) if vectorized else [f(x) for x in xs.ravel()]).reshape(xs.shape)
    k, g = mid_half[:, 1] * np.add.reduce(quadrature._WEIGHTS_KG * fs[:, None, :], axis=2).T
    return list(zip(k.tolist(), g.tolist()))


def _reference_panel(f, a, b):
    """`_panel` the reference's way, numpy nodes and np.add.reduce on each panel; its sums are never None."""
    return (), None, _reference_panels(f, (a, b), False)[0]


_REFERENCE = (lambda f, edges: _reference_panels(f, edges, True), _reference_panel)


def _bits(res):
    v = complex(res.value)
    return (type(res.value), v.real.hex(), v.imag.hex(), float(res.abs_error_estimate).hex(),
            res.subdivisions, res.converged)


def _quad_results(kernels, run, monkeypatch):
    """Every QuadResult integrate_finite returns while run() runs on the given (_panels, _panel), and repr(run())."""
    seen = []
    finite = quadrature.integrate_finite

    def spy(*args, **kwargs):
        seen.append(finite(*args, **kwargs))
        return seen[-1]

    with monkeypatch.context() as m:
        m.setattr(quadrature, "_panels", kernels[0])
        m.setattr(quadrature, "_panel", kernels[1])
        m.setattr(quadrature, "integrate_finite", spy)
        m.setattr(asymptotics, "integrate_finite", spy)
        out = repr(run())
    return [_bits(r) for r in seen], out


def _frullani_50():
    rng = np.random.default_rng(17)
    out = []
    for a, b in rng.uniform(0.1, 10.0, size=(50, 2)).tolist():
        f = lambda y, a=a, b=b: (math.exp(-a * y) - math.exp(-(a + b) * y)) / y if y > 0 else b
        out.append(integrate_semi_infinite(f, 0.0, 1e-11, a))
    return out


_POLY_EXP = SurvivalDefined(lambda x: (1.0 + np.asarray(x, dtype=float)) ** -2
                            * np.exp(-np.asarray(x, dtype=float)), 0.0, 1.0, "poly-exp")
_CRIT5 = JointInput(Beta(1.0, 1.0), Difference(Exponential(2.0), Exponential(1.0)))
_T_GRID = (0.25, 1.0, 2.5, 6.0)


def _cf_by_quadrature(joint):
    """The CF on _T_GRID by the exponent quadrature, which perpetuity_cf skips for these two-sided hyperexponential B's."""
    return [_mgf_by_quadrature(joint.B, joint.A.beta_lam(), 1j * t) for t in _T_GRID]


def _thm2_by_quadrature():
    """thm2_K where it still integrates: a zero remainder that states no terms, a gamma part's remainder, and tails
    given as callables."""
    y = lambda v: np.asarray(v, dtype=float)
    gamma_part = JointInput(Beta(2.0, 1.0), Mixture(((0.5, Exponential(1.0)), (0.5, Gamma(2.0, 3.0)))))
    hand_written = thm2_K(1.0, ExpPlusRemainder(C=7.0 / 24.0, b=1.0, r=lambda v: (5.0 / 24.0) * np.exp(-2.0 * y(v))),
                          left_tail=lambda v: (7.0 * np.exp(y(v)) + 5.0 * np.exp(2.0 * y(v))) / 24.0,
                          left_decay_hint=1.0)
    return [thm2_K(2.0, ExpPlusRemainder(C=1.0, b=1.0)), thm2_K(*thm2_inputs(gamma_part)), hand_written]


def _overflowing():
    """Finite values whose weighted Kronrod sum overflows on the right half of (0, 1): numpy's sums and warning."""
    with pytest.warns(RuntimeWarning, match="overflow"):
        return quadrature.integrate_finite(lambda y: 1.7e308 * y, 0.0, 1.0, 1e-10)


_SCALAR_CASES = {
    "frullani-50": _frullani_50,
    "exp-1j-x": lambda: quadrature.integrate_finite(lambda x: np.exp(1j * x), 0.0, 1.0, 1e-12),
    "expm1-over": lambda: quadrature.integrate_finite(lambda y: expm1_over(1.0, y), 0.0, 1.0, 1e-12),
    "exp-tilted-poly-exp": lambda: [_POLY_EXP.mgf(0.3), _POLY_EXP.mgf(0.9), _POLY_EXP.mean(), _POLY_EXP.charfn(2.0)],
    "cf-E1": lambda: _cf_by_quadrature(get_case("E1").joint),
    "cf-crit5": lambda: _cf_by_quadrature(_CRIT5),
    "criteria-phi-rA": lambda: [criteria._integrate_phi_rA(Beta(2.0, 1.0), Exponential(1.0), 0.5),
                                criteria._integrate_phi_rA(Uniform(0.0, 1.0), Uniform(-1.0, 2.0), 1.5)],
    # thm2_K's two integrals take the vectorized path, whose sums share the scalar path's code
    "vectorized-thm2": _thm2_by_quadrature,
    # a Python int 0 right of the jump: panels of ints alone go to numpy's sums, mixed ones to Python's
    "int-jump": lambda: quadrature.integrate_finite(lambda y: math.exp(-y) if y < 0.3 else 0, 0.0, 1.0, 1e-10),
    "numpy-float64": lambda: quadrature.integrate_finite(lambda y: np.exp(-y) * np.sqrt(y), 0.0, 2.0, 1e-12),
    "python-complex": lambda: quadrature.integrate_finite(lambda y: cmath.exp((3j - 0.5) * y) / (1.0 + y),
                                                          0.0, 5.0, 1e-12),
    "overflowing-sum": _overflowing,
}


@pytest.mark.parametrize("name", sorted(_SCALAR_CASES))
def test_float_nodes_give_the_reference_results_to_the_bit(name, monkeypatch):
    run = _SCALAR_CASES[name]
    want, want_out = _quad_results(_REFERENCE, run, monkeypatch)
    got, got_out = _quad_results((quadrature._panels, quadrature._panel), run, monkeypatch)
    assert want
    assert got == want
    assert got_out == want_out


def test_scalar_integrand_receives_python_floats():
    seen = set()

    def f(y):
        seen.add(type(y))
        return math.exp(-y)

    integrate_finite(f, np.float64(0.0), np.float64(3.0), 1e-13)
    integrate_semi_infinite(f, np.float64(0.5), 1e-10, np.float64(1.0))
    assert seen == {float}


def test_gamma_mgf_past_the_double_range_is_inf_for_a_python_float():
    # (rate / (rate - s))^shape overflows near the pole: pow raises where a numpy scalar gives inf,
    # and the criteria integrand now receives Python floats
    assert Gamma(40.0, 1.0).mgf(1.0 - 1e-15) == math.inf
    # the infinite integrand reaches the quadrature's sums on purpose
    with pytest.warns(RuntimeWarning, match="invalid value"):
        assert criteria._integrate_phi_rA(Uniform(0.0, 1.0), Gamma(40.0, 1.0), 1.0 - 1e-15) is None


# -- the scalar kernel: numpy's sums to the bit, numpy's warnings, one call of f per node --

def test_panel_sums_are_numpys_to_the_bit_and_warn_as_numpy_does(monkeypatch):
    # rows of both signs and magnitudes 1e-30..1e30, where any other order of the additions misses often;
    # on (-1, 1) the nodes are _NODE_LIST itself and h = 1, so the kernel's (Kronrod, Gauss) are its bare sums
    rng = np.random.default_rng(31)
    rows = rng.choice([-1.0, 1.0], size=(10_000, 15)) * 10.0 ** rng.uniform(-30.0, 30.0, size=(10_000, 15))
    want = np.add.reduce(quadrature._WEIGHTS_KG * rows[:, None, :], axis=-1).tolist()
    got = [quadrature._panel(dict(zip(quadrature._NODE_LIST, row)).__getitem__, -1.0, 1.0)[2]
           for row in rows.tolist()]
    assert [(k.hex(), g.hex()) for k, g in got] == [(k.hex(), g.hex()) for k, g in want]

    def warned(panel):
        with warnings.catch_warnings(record=True) as caught, monkeypatch.context() as m:
            warnings.simplefilter("always")
            m.setattr(quadrature, "_panel", panel)
            integrate_finite(lambda y: 1.7e308 * y, 0.0, 1.0, 1e-10)
        return [(w.category, str(w.message)) for w in caught]

    assert warned(_reference_panel) == warned(quadrature._panel) == [(RuntimeWarning, "overflow encountered in reduce")]


_CALL_CASES = {
    "real": (lambda y: abs(y - 0.3337) * math.exp(-y), 0.0, 3.0),
    "complex": (lambda y: cmath.exp((3j - 0.5) * y), 0.0, 5.0),
    "non-finite-sum": (lambda y: 1.7e308 * y, 0.0, 1.0),
}


@pytest.mark.parametrize("name", sorted(_CALL_CASES))
def test_scalar_path_calls_f_where_the_reference_does(name, monkeypatch):
    # numpy's sums take the values already in hand: f is called once per node, in the reference's order
    g, lo, hi = _CALL_CASES[name]

    def points(panel):
        seen = []

        def f(y):
            seen.append(float(y).hex())
            return g(y)

        with warnings.catch_warnings(), monkeypatch.context() as m:
            warnings.simplefilter("ignore", RuntimeWarning)
            m.setattr(quadrature, "_panel", panel)
            integrate_finite(f, lo, hi, 1e-10)
        return seen

    want = points(_reference_panel)
    assert len(want) >= 45
    assert points(quadrature._panel) == want


def test_a_scalar_integrand_complex_on_part_of_the_range_gives_the_vectorized_result():
    # sqrt is imaginary left of 0: where one half of a bisection is complex, numpy sums both halves' 30 values
    # as one complex array, as the vectorized path does with an array of the same values
    scalar = lambda y: complex(0.0, math.sqrt(-y)) if y < 0.0 else math.sqrt(y)
    vec = lambda ys: np.array([scalar(y) for y in ys.tolist()])
    for tol in (1e-8, 1e-12):
        want = integrate_finite(vec, -1.0, 2.0, tol, vectorized=True)
        got = integrate_finite(scalar, -1.0, 2.0, tol)
        assert got.subdivisions > 1
        assert got == want
