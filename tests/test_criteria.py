import json
import math

import pytest

from perpetuity import quadrature
from perpetuity.criteria import (
    DispatchError,
    dispatch_exp_moment,
    exp_moment_criterion_mixedA,
    exp_moment_criterion_positiveA,
    expected_phi_rA,
    prop_main_part1,
    prove_support_unbounded,
    two_sided_criterion_AIR,
)
from perpetuity.distributions import (
    Beta,
    Difference,
    Exponential,
    Gamma,
    JointInput,
    Mixture,
    Negated,
    PointMass,
    Uniform,
)


def atoms(*pairs):
    return Mixture(tuple((w, PointMass(v)) for v, w in pairs))


# -- positive coefficient criterion -----------------------------------------

def test_positive_A_finite():
    joint = JointInput(Beta(2.0, 1.0), Exponential(1.0))
    v = exp_moment_criterion_positiveA(joint, 0.5, support_unbounded_right=True)
    assert v.verdict == "Finite"
    names = [c.name for c in v.condition_trace]
    assert any("e^{rB}" in n for n in names)


def test_positive_A_infinite_outside_mgf_domain():
    joint = JointInput(Beta(2.0, 1.0), Exponential(1.0))
    v = exp_moment_criterion_positiveA(joint, 1.5, support_unbounded_right=True)
    assert v.verdict == "Infinite"


def test_positive_A_boundary_weighted_mgf_exactly_one_is_infinite():
    joint = JointInput(Mixture(((0.5, PointMass(1.0)), (0.5, Uniform(0.0, 1.0)))), Exponential(2.0))
    v = exp_moment_criterion_positiveA(joint, 1.0, support_unbounded_right=True)
    assert v.verdict == "Infinite"
    w = [c for c in v.condition_trace if "1{A=1}" in c.name][0]
    assert w.witness == pytest.approx(1.0)


def test_positive_A_unknown_support_is_inconclusive():
    # violated condition but support not provable either way: no verdict
    joint = JointInput(Uniform(0.5, 1.5), Uniform(0.0, 1.0))
    v = exp_moment_criterion_positiveA(joint, 1.0, support_unbounded_right=None)
    assert v.verdict == "Inconclusive"
    support = [c for c in v.condition_trace if "unbounded" in c.name][0]
    assert support.status == "unknown"


def test_positive_A_none_defers_to_the_unboundedness_helper():
    joint = JointInput(Beta(2.0, 1.0), Exponential(1.0))
    v = exp_moment_criterion_positiveA(joint, 1.5, support_unbounded_right=None)
    assert v.verdict == "Infinite"


def test_positive_A_rejects_signed_coefficient():
    with pytest.raises(DispatchError):
        exp_moment_criterion_positiveA(JointInput(PointMass(-0.5), Exponential(1.0)), 1.0)


# -- mixed-sign coefficient criterion ----------------------------------------

def test_mixed_sign_finite_for_nonnegative_increment():
    joint = JointInput(atoms((0.5, 0.5), (-0.5, 0.5)), Exponential(2.0))
    v = exp_moment_criterion_mixedA(joint, 1.0)
    assert v.verdict == "Finite"


def test_all_negative_product_mgf_finite():
    joint = JointInput(PointMass(-0.5), Exponential(1.0))
    v = exp_moment_criterion_mixedA(joint, 0.5)
    assert v.verdict == "Finite"
    # the composed expectation phi(r) phi(-r/2) = 2 * (1/1.25) = 1.6
    w = [c.witness for c in v.condition_trace if c.witness is not None]
    assert any(abs(x - 1.6) < 1e-12 for x in w if isinstance(x, float))


def test_all_negative_divergent_r_term():
    joint = JointInput(PointMass(-0.5), Exponential(1.0))
    v = exp_moment_criterion_mixedA(joint, 1.2)
    assert v.verdict == "Infinite"


def test_mixed_sign_two_sided_increment_is_open_territory():
    joint = JointInput(atoms((0.5, 0.5), (-0.5, 0.5)),
                       Difference(Exponential(1.0), Exponential(2.0)))
    v = dispatch_exp_moment(joint, 0.3)
    assert v.verdict == "Inconclusive"


# -- absolute-moment criterion with unit atoms --------------------------------

def test_no_unit_atoms_part():
    joint = JointInput(PointMass(0.5), Exponential(2.0))
    v = two_sided_criterion_AIR(joint, 1.0)
    assert v.verdict == "Finite"
    assert "no unit atoms" in v.theorem_used


def test_unit_atom_inequality_finite():
    joint = JointInput(atoms((-1.0, 0.3), (0.5, 0.7)), PointMass(0.1))
    v = two_sided_criterion_AIR(joint, 1.0)
    assert v.verdict == "Finite"
    assert "unit atoms" in v.theorem_used


def test_unit_atom_inequality_infinite():
    joint = JointInput(atoms((-1.0, 0.999), (0.5, 0.001)), Exponential(1.0))
    v = two_sided_criterion_AIR(joint, 0.9)
    assert v.verdict == "Infinite"


# -- finiteness of the coefficient-composed moment ----------------------------

def test_composed_moment_case_a_divergent_integral():
    joint = JointInput(Beta(2.0, 1.0), Exponential(1.0))
    v = prop_main_part1(joint, 1.0)
    assert v.verdict == "Infinite"


def test_composed_moment_case_a_finite():
    joint = JointInput(PointMass(0.5), Exponential(1.0))
    v = prop_main_part1(joint, 1.0)
    assert v.verdict == "Finite"


def test_composed_moment_constant_negative_coefficient():
    joint = JointInput(PointMass(-0.5), Exponential(1.0))
    v = prop_main_part1(joint, 1.0)
    assert v.verdict == "Finite"


def test_composed_moment_negative_continuous_coefficient_is_inconclusive():
    # A on (-1, 0) with no atoms and B >= 0: no closed form for this A, and no exception
    joint = JointInput(Uniform(-0.9, -0.1), Exponential(1.0))
    v = prop_main_part1(joint, 1.0)
    assert v.verdict == "Inconclusive"
    assert v.condition_trace[-1].witness == "no closed form for this A"


def test_composed_moment_rejects_dependent_joints():
    from perpetuity.distributions import ThresholdDependent

    joint = JointInput(None, Exponential(1.0), ThresholdDependent(0.3, 0.7, 1.0))
    with pytest.raises(DispatchError):
        prop_main_part1(joint, 1.0)


def test_expected_phi_rA_boundary_classification():
    # integrable boundary: density vanishing fast enough at the top end
    st, val = expected_phi_rA(Beta(1.0, 2.0), Gamma(1.5, 1.0), 1.0)
    assert st is True
    st2, _ = expected_phi_rA(Beta(1.0, 1.0), Gamma(1.5, 1.0), 1.0)
    assert st2 is False
    st3, val3 = expected_phi_rA(Uniform(0.0, 0.5), Exponential(1.0), 1.0)
    assert st3 is True
    assert val3 == pytest.approx(2.0 * math.log(2.0), rel=1e-9)


@pytest.mark.parametrize("lo", [-0.9, -0.5])
def test_expected_phi_rA_reads_the_lower_end_of_the_mgf_domain(lo):
    # phi(s) = 1/(1+s) for s > -1: E phi(2A) diverges when A reaches -1/2, at the open end as well as past it;
    # the domain is conservative, so the status is unknown, never infinite
    A, B = Uniform(lo, -0.1), Negated(Exponential(1.0))
    assert expected_phi_rA(A, B, 2.0) == (None, None)
    assert exp_moment_criterion_mixedA(JointInput(A, B), 2.0).verdict == "Inconclusive"
    assert prop_main_part1(JointInput(A, B), 2.0).verdict == "Inconclusive"
    st, val = expected_phi_rA(Uniform(-0.4, -0.1), B, 2.0)
    assert st is True
    assert val == pytest.approx(0.5 * math.log(4.0) / 0.3, rel=1e-9)


def test_unconverged_phi_integral_gives_no_witness(monkeypatch):
    # finiteness of E phi(rA) is symbolic; an integral that missed its tolerance feeds no number into the trace
    joint = JointInput(Uniform(0.0, 0.5), Exponential(1.0))
    before = prop_main_part1(joint, 1.0)
    assert before.condition_trace[-1].witness == pytest.approx(2.0 * math.log(2.0), rel=1e-9)
    monkeypatch.setattr(quadrature, "integrate_finite",
                        lambda *args, **kwargs: quadrature.QuadResult(1.0, 1.0, 10_000, False))
    assert expected_phi_rA(joint.A, joint.B, 1.0) == (True, None)
    after = prop_main_part1(joint, 1.0)
    assert after.verdict == before.verdict == "Finite"
    assert [c.status for c in after.condition_trace] == [c.status for c in before.condition_trace]
    assert after.condition_trace[-1].witness is None


# -- dispatch -----------------------------------------------------------------

def test_dispatch_routes_each_shape_once():
    routes = {
        "positive": JointInput(Beta(2.0, 1.0), Exponential(1.0)),
        "mixed": JointInput(atoms((0.5, 0.5), (-0.5, 0.5)), Exponential(2.0)),
        "unit_atom": JointInput(atoms((-1.0, 0.3), (0.5, 0.7)), PointMass(0.1)),
    }
    used = set()
    for joint in routes.values():
        v = dispatch_exp_moment(joint, 0.5)
        assert v.verdict in ("Finite", "Infinite", "Inconclusive")
        used.add(v.theorem_used)
    assert len(used) == 3


def test_dispatch_never_silently_falls_through():
    # negative coefficient, two-sided increment: documented no-theorem outcome
    joint = JointInput(PointMass(-0.5), Difference(Exponential(1.0), Exponential(2.0)))
    v = dispatch_exp_moment(joint, 0.2)
    assert v.verdict in ("Finite", "Infinite", "Inconclusive")
    assert v.theorem_used


def test_support_unboundedness_helper():
    assert prove_support_unbounded(JointInput(Beta(2.0, 1.0), Exponential(1.0))) is True
    assert prove_support_unbounded(JointInput(Beta(2.0, 1.0), Uniform(0.0, 1.0))) is not True


def test_strictness_of_the_boundary_inequality():
    below = JointInput(Mixture(((0.49, PointMass(1.0)), (0.51, Uniform(0.0, 1.0)))), Exponential(2.0))
    v = exp_moment_criterion_positiveA(below, 1.0, support_unbounded_right=True)
    assert v.verdict == "Finite"  # weighted MGF 2*0.49 = 0.98 < 1
    at = JointInput(Mixture(((0.5, PointMass(1.0)), (0.5, Uniform(0.0, 1.0)))), Exponential(2.0))
    v2 = exp_moment_criterion_positiveA(at, 1.0, support_unbounded_right=True)
    assert v2.verdict == "Infinite"  # exactly 1 fails the strict inequality


def test_verdict_serializes_to_json():
    v = dispatch_exp_moment(JointInput(Beta(2.0, 1.0), Exponential(1.0)), 0.5)
    blob = json.dumps(v.as_dict())
    back = json.loads(blob)
    assert back["verdict"] == "Finite"
    assert isinstance(back["condition_trace"], list)
    assert all({"name", "status", "witness"} <= set(c) for c in back["condition_trace"])
