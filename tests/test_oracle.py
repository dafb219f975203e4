import json
import math

import mpmath as mp
import numpy as np
import pytest

from perpetuity import oracle, quadrature
from perpetuity.distributions import Gamma
from perpetuity.oracle import (
    ClosedTransform,
    compare_empirical,
    get_case,
    list_cases,
    reference_survival,
    survival_from_transform,
)
from perpetuity.simulate import SimConfig, sample_batch


def test_registry_contents():
    ids = [c.id for c in list_cases()]
    assert ids == ["E1", "E2-const-A", "E3-gamma-diff", "E4-mixture", "E5-neglog"]
    with pytest.raises(KeyError):
        get_case("E9")


def test_get_case_accepts_short_ids():
    for case in list_cases():
        short = case.id.split("-")[0]
        assert get_case(short).id == case.id
        assert get_case(case.id).id == case.id
    for unknown in ("E6", "E", "E3-gamma", "gamma-diff", ""):
        with pytest.raises(KeyError):
            get_case(unknown)


def test_reference_survival_gamma_identity():
    case = get_case("E1")
    assert reference_survival(case, 5.0) == pytest.approx(0.1246520, abs=1e-6)
    assert reference_survival(case, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_reference_survival_constant_coefficient_piecewise():
    case = get_case("E2-const-A")
    assert reference_survival(case, 2.0) == pytest.approx((2.0 / 3.0) * math.exp(-2.0), rel=1e-9)
    assert reference_survival(case, 2.0) == pytest.approx(0.0902235, abs=1e-6)
    assert reference_survival(case, -1.0) == pytest.approx(1.0 - math.exp(-2.0) / 3.0, rel=1e-9)


@pytest.mark.parametrize("case_id", ["E1", "E2-const-A", "E3-gamma-diff", "E4-mixture", "E5-neglog"])
def test_reference_survival_is_monotone(case_id):
    case = get_case(case_id)
    xs = np.linspace(-3.0, 14.0, 60)
    sv = np.array([reference_survival(case, float(x)) for x in xs])
    assert np.all(np.diff(sv) <= 1e-9)
    assert np.all((sv >= -1e-12) & (sv <= 1.0 + 1e-12))


@pytest.mark.parametrize("case_id", ["E1", "E2-const-A", "E3-gamma-diff", "E4-mixture", "E5-neglog"])
def test_predicted_constant_equals_closed_form(case_id):
    case = get_case(case_id)
    pred = case.predict()
    # form.a folds the increment-tail coefficient into the constant
    assert pred.form.a == pytest.approx(case.asymptote.a, rel=1e-6)
    assert pred.form.b == pytest.approx(case.asymptote.b, rel=1e-12)
    assert pred.form.c == pytest.approx(case.asymptote.c, abs=1e-12)


def test_exact_law_approaches_the_asymptote():
    # the relative gap decays like 1/x for the symmetric-difference law
    case = get_case("E3-gamma-diff")
    ratios = [reference_survival(case, x) / case.asymptote(x) for x in (12.0, 20.0, 50.0)]
    assert abs(ratios[0] - 1.0) < 0.075
    assert abs(ratios[1] - 1.0) < 0.05
    assert abs(ratios[2] - 1.0) < 0.02
    assert ratios[0] > ratios[1] > ratios[2] > 1.0


# x (ratio - 1) of exact over predicted survival, ratio = P{X > x} / form(x),
# stays in these bands over x = 20..60; the 1/x term of each expansion sets
# them (2 + 2/x for E1's Gamma(3, 1) law, 2 for E5).  A constant off by
# 1e-3 relative, a wrong b, or a power drift x^delta from a wrong c leaves
# the band.  E4's band is its closed kappa = 0.995081 less a second-order
# term of about 0.51/x.
_SETTLED = {"E1": (2.02, 2.11), "E2": (-1e-9, 1e-9), "E3": (0.84, 0.875), "E4": (0.96, 0.9951),
            "E5": (1.999, 2.001)}


@pytest.mark.parametrize("case_id", sorted(_SETTLED))
def test_predicted_asymptote_settles_against_the_exact_law(case_id):
    case = get_case(case_id)
    form = case.predict().form
    xs = np.array([20.0, 30.0, 40.0, 60.0])
    ratio = np.asarray(reference_survival(case, xs, tol=1e-12)) / np.asarray(form(xs))
    lo, hi = _SETTLED[case_id]
    scaled = xs * (ratio - 1.0)
    assert np.all((scaled >= lo) & (scaled <= hi)), scaled


def test_compare_empirical_gamma_identity_passes():
    report = compare_empirical(get_case("E1"), SimConfig(n_samples=1_000_000, master_seed=42, n_streams=4))
    assert report.passed
    assert report.ks < 0.004
    assert not report.low_N


@pytest.mark.parametrize("case_id", ["E1", "E2", "E3", "E4", "E5"])
def test_every_case_passes_at_the_cli_defaults(case_id):
    # seed 0 and 10^5 draws: `perpetuity validate <case>` with no config, as CI's installed-script step runs it
    report = compare_empirical(get_case(case_id), SimConfig(n_samples=100_000, master_seed=0))
    assert report.passed, report.table()


def test_tail_rows_count_exceedances_against_binomial_bands():
    from scipy.stats import binom

    cfg = SimConfig(n_samples=20_000, master_seed=3)
    report = compare_empirical(get_case("E2"), cfg)
    values = np.sort(sample_batch(get_case("E2").joint, cfg).values)
    assert report.tail_alpha == oracle.TAIL_ALPHA == 1e-3 and report.verdict_rule == oracle.VERDICT_RULE
    for row in report.tail_rows:
        count = report.n - int(np.searchsorted(values, row["x"], side="right"))
        lo, hi = binom.ppf(5e-4, report.n, row["reference"]), binom.isf(5e-4, report.n, row["reference"])
        assert row["count"] == count and row["band"] == [lo, hi] and row["checked"] is True
        assert row["in_band"] == (lo <= count <= hi)
    assert report.passed == (report.ks < report.ks_threshold and all(r["in_band"] for r in report.tail_rows))


def test_compare_empirical_small_sample_smoke():
    report = compare_empirical(get_case("E1"), SimConfig(n_samples=100, master_seed=7))
    assert report.low_N
    assert report.ks <= 1.0
    blob = json.dumps(report.as_dict())
    assert "ks" in blob


def test_compare_empirical_report_table():
    report = compare_empirical(get_case("E2-const-A"), SimConfig(n_samples=20_000, master_seed=3))
    text = report.table()
    assert "E2-const-A" in text
    assert "KS" in text


def _mp_e3(x: float):
    """P{G1 - G2 > x}, G1, G2 ~ Gamma(1.5, 1), by mpmath quadrature split at the kink y = -x."""
    a, x = mp.mpf(1.5), mp.mpf(x)
    lo = max(mp.mpf(0), -x)
    f = lambda y: mp.gammainc(a, x + y, mp.inf, regularized=True) * y ** (a - 1) * mp.exp(-y) / mp.gamma(a)
    return mp.gammainc(a, 0, lo, regularized=True) + mp.quad(f, [lo, lo + 1, lo + 5, lo + 20, mp.inf])


def _mp_e5(x: float):
    """P{-log Y + B > x}, Y ~ Beta(1, 2), B ~ (Exp(1) + Exp(2))/2, as E S_B(x + log Y) in mpmath."""
    x = mp.mpf(x)
    y0 = mp.exp(-x)
    f = lambda y: (mp.exp(-(x + mp.log(y))) + mp.exp(-2 * (x + mp.log(y)))) / 2 * 2 * (1 - y)
    return 1 - (1 - y0) ** 2 + mp.quad(f, [y0, 2 * y0, 10 * y0, 1])


@pytest.mark.parametrize("case_id,x", [("E3", -7.716), ("E3", 0.0), ("E3", 12.0), ("E3", 20.0),
                                        ("E3", 50.0), ("E5", 2.0), ("E5", 10.0), ("E5", 15.0)])
def test_reference_survival_matches_mpmath(case_id, x):
    # -7.716 sits on the validate grid next to E3's kink; 50 is deep in the tail
    with mp.workdps(30):
        exact = float((_mp_e3 if case_id == "E3" else _mp_e5)(x))
    got = reference_survival(get_case(case_id), x, tol=1e-9)
    assert abs(got - exact) <= 2e-9
    assert abs(got - exact) <= 1e-6 * exact


@pytest.mark.parametrize("x", [-7.716, 0.0, 12.0, 20.0, 50.0])
def test_e3_reference_keeps_relative_digits_at_a_tight_tolerance(x):
    # bound stated before the run: 1e-13 relative (the quadrature in y itself read 3.5e-14 here, 5.1e-12 at tol 1e-10)
    with mp.workdps(30):
        exact = float(_mp_e3(x))
    assert reference_survival(get_case("E3"), x, tol=1e-12) == pytest.approx(exact, rel=1e-13, abs=0.0)


def test_e3_reference_takes_a_few_refinement_rounds(monkeypatch):
    # bound stated before the run: at most 6 integrand calls; bisecting toward y^{1/2} at the
    # lower end, as the variable y itself needs, took 21
    calls = []
    batch = quadrature.integrate_batch

    def counted(f, *args, **kwargs):
        def g(y, i):
            calls.append(y.shape)
            return f(y, i)
        return batch(g, *args, **kwargs)

    monkeypatch.setattr(quadrature, "integrate_batch", counted)
    reference_survival(get_case("E3"), np.linspace(0.5, 10.0, 8))
    assert 0 < len(calls) <= 6


def test_e3_exact_law_keeps_its_gamma_parameters():
    # perfbench builds its Difference(Gamma, Gamma) timing law from these fields
    law = get_case("E3").exact_X_law
    assert (law.shape1, law.rate1, law.shape2, law.rate2) == (1.5, 1.0, 1.5, 1.0)


# The closed transforms of the exact laws of E1, E2, E3 and E5, each held to the law
# the registry states for the case: Gamma(3, 1); Exp(1) - Exp(2); Gamma(1.5, 1) -
# Gamma(1.5, 1); -log Y + B with E Y^{-s} = 2/((1 - s)(2 - s)) for Y ~ Beta(1, 2)
# and B the half-half mixture of Exp(1) and Exp(2).
_TRANSFORMS = {
    "E1": ClosedTransform(lambda s: (1.0 - s) ** -3, 1.0, math.inf),
    "E2": ClosedTransform(lambda s: 2.0 / ((1.0 - s) * (2.0 + s)), 1.0, 2.0),
    "E3": ClosedTransform(lambda s: ((1.0 - s) * (1.0 + s)) ** -1.5, 1.0, 1.0),
    "E5": ClosedTransform(lambda s: 2.0 / ((1.0 - s) * (2.0 - s)) * (0.5 / (1.0 - s) + 1.0 / (2.0 - s)),
                          1.0, math.inf),
}


def test_inverted_transform_matches_mpmath():
    # mpmath quadosc of E4's uncut theta = 0 inversion integral, at 25 digits; mpmath quad along the
    # parabola at 40 digits agrees to 2e-16 at x <= 9.5 and puts the x = 30 literal 7.6e-14 low
    xs = np.array([1.3, 4.0, 9.5, 30.0])
    exact = np.array([0.139747240566754716, 0.00958887264783792063, 0.0000447172945604770337,
                      7.33509722992416108e-14])
    got = reference_survival(get_case("E4"), xs, tol=1e-12)
    assert np.max(np.abs(got - exact)) < 1e-12
    assert np.max(np.abs(got - exact) / exact) < 1e-12


def test_inverted_transform_gives_the_gamma_survival():
    # E1's X ~ Gamma(3, 1) has E e^{sX} = (1 - s)^-3, with no cut on the left
    xs = np.array([0.5, 1.5, 3.0, 6.0])
    got = survival_from_transform(_TRANSFORMS["E1"], xs, 1e-10)
    np.testing.assert_allclose(got, Gamma(3.0, 1.0).survival(xs), rtol=0.0, atol=1e-7)


@pytest.mark.parametrize("case_id", sorted(_TRANSFORMS))
def test_inverted_transform_matches_the_other_exact_laws(case_id):
    xs = np.linspace(-8.0, 60.0, 69)
    got = survival_from_transform(_TRANSFORMS[case_id], xs, 1e-10)
    exact = np.asarray(reference_survival(get_case(case_id), xs, tol=1e-12))
    assert got == pytest.approx(exact, rel=1e-10, abs=0.0)


def test_inverted_transform_refuses_a_tolerance_it_misses():
    with pytest.raises(oracle.ReferenceNotConverged, match=r"did not converge at x = 1\.3, "):
        reference_survival(get_case("E4"), np.array([1.3, 4.0, 30.0]), tol=1e-30)


def test_unconverged_reference_is_refused():
    # E5 through the oracle's own batch, E3 through the tree's Difference quadrature
    xs = np.linspace(0.5, 12.0, 16)
    for case_id in ("E5", "E3"):
        with pytest.raises(oracle.ReferenceNotConverged, match=r"did not converge at x = 0\.5, "):
            reference_survival(get_case(case_id), xs, tol=1e-30)


@pytest.mark.parametrize("case_id", ["E3", "E5"])
def test_validate_grid_is_one_batch(case_id, monkeypatch):
    # a per-x loop of adaptive quadratures would call its integrand thousands of times
    calls = []
    batch = quadrature.integrate_batch

    def counted(f, *args, **kwargs):
        def g(y, i):
            calls.append(y.shape)
            return f(y, i)
        return batch(g, *args, **kwargs)

    # E3 integrates through the tree's Difference, which looks the batch up in quadrature; E5 through oracle
    monkeypatch.setattr(quadrature, "integrate_batch", counted)
    monkeypatch.setattr(oracle, "integrate_batch", counted)
    grid = np.linspace(-8.0, 16.0, 512)
    sv = reference_survival(get_case(case_id), grid, tol=1e-9)
    assert sv.shape == grid.shape and np.all(np.diff(sv) <= 1e-9)
    assert 0 < len(calls) <= 100


def test_compare_empirical_makes_one_tail_call(monkeypatch):
    seen = []
    ref = oracle.reference_survival

    def spy(case, x, *args, **kwargs):
        seen.append(np.size(x))
        return ref(case, x, *args, **kwargs)

    monkeypatch.setattr(oracle, "reference_survival", spy)
    report = compare_empirical(get_case("E3"), SimConfig(n_samples=5_000, master_seed=3))
    # one call for the CDF grid, one for the five tail anchors
    assert seen == [512, 5]
    xs, refs = zip(*((row["x"], row["reference"]) for row in report.tail_rows))
    assert list(refs) == pytest.approx(ref(get_case("E3"), list(xs)), rel=1e-8)
