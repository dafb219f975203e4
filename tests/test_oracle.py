import json
import math

import numpy as np
import pytest

from perpetuity.oracle import (
    compare_empirical,
    get_case,
    list_cases,
    reference_survival,
)
from perpetuity.simulate import SimConfig


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


def test_compare_empirical_gamma_identity_passes():
    report = compare_empirical(get_case("E1"), SimConfig(n_samples=1_000_000, master_seed=42, n_streams=4))
    assert report.passed
    assert report.ks < 0.004
    assert not report.low_N


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
