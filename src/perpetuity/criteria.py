"""Sound symbolic verdicts on finiteness of exponential moments of X.

Every Finite/Infinite answer is backed by a symbolically established
hypothesis set of the matched criterion; anything that cannot be
established from the structural description alone yields Inconclusive.
The closed-form expectation table covers point masses, finite mixtures,
exponential/gamma laws and the negation/scaling/shift closure; numbers
outside the table are never "decided" numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import (
    JointInput,
    Mixture,
    NoClosedForm,
    PointMass,
    ScalarDistribution,
    structural_flags,
    validate_nondegeneracy,
)

__all__ = [
    "MomentVerdict",
    "DispatchError",
    "exp_moment_criterion_positiveA",
    "exp_moment_criterion_mixedA",
    "two_sided_criterion_AIR",
    "prop_main_part1",
    "dispatch_exp_moment",
    "prove_support_unbounded",
    "expected_phi_rA",
]

_INF = math.inf

FINITE = "Finite"
INFINITE = "Infinite"
INCONCLUSIVE = "Inconclusive"


class DispatchError(ValueError):
    """Input shape does not match the requested criterion."""


@dataclass
class Condition:
    name: str
    status: str  # "satisfied" | "violated" | "unknown"
    witness: object = None

    def as_dict(self):
        return {"name": self.name, "status": self.status, "witness": self.witness}


@dataclass
class MomentVerdict:
    verdict: str
    theorem_used: str
    condition_trace: list = field(default_factory=list)

    def as_dict(self):
        return {
            "verdict": self.verdict,
            "theorem_used": self.theorem_used,
            "condition_trace": [c.as_dict() for c in self.condition_trace],
        }


# ---------------------------------------------------------------------------
# Closed-form expectation helpers
# ---------------------------------------------------------------------------

def _mgf_closed(B: ScalarDistribution, s: float):
    """E e^{sB} from the closed-form table, or None when unavailable."""
    try:
        return B.mgf(s, numeric_ok=False)
    except NoClosedForm:
        return None


def _weighted_mgf_at_atom(joint: JointInput, r: float, a_val: float):
    """E e^{rB} 1{A = a_val}: (status, value)."""
    A = joint.A_marginal()
    p = A.atom_at(a_val)
    if p is None:
        return ("unknown", None)
    if p == 0.0:
        return ("ok", 0.0)
    if not joint.independent:
        return ("unknown", None)
    phi = _mgf_closed(joint.B, r)
    if phi is None:
        return ("unknown", None)
    if phi == _INF:
        return ("infinite", _INF)
    return ("ok", phi * p)


def expected_phi_rA(A: ScalarDistribution, B: ScalarDistribution, r: float):
    """E phi(rA) with phi(s) = E e^{sB}: (status, value).

    status: "finite" (value may be None for boundary cases), "infinite",
    or "unknown".
    """
    atoms = A.atoms()
    if atoms is not None:
        total = 0.0
        for v, w in atoms.items():
            phi = _mgf_closed(B, r * v)
            if phi is None:
                return ("unknown", None)
            if phi == _INF:
                return ("infinite", None)
            total += w * phi
        return ("finite", total)
    pole = B.mgf_pole()
    if pole is None:
        return ("unknown", None)
    s_max, order = pole
    if s_max == _INF:
        return ("finite", _integrate_phi_rA(A, B, r))
    a_lo, a_hi = A.support()
    if r * a_hi < s_max:
        return ("finite", _integrate_phi_rA(A, B, r))
    if r * a_hi > s_max:
        # positive mass strictly above the pole
        try:
            mass = float(np.asarray(A.survival(s_max / r)))
        except NoClosedForm:
            return ("unknown", None)
        if mass > 0:
            return ("infinite", None)
        return ("unknown", None)
    # r * a_hi == s_max: the boundary depends on the density decay at a_hi.
    q_exp = A.upper_density_exponent()
    if q_exp is None:
        return ("unknown", None)
    if q_exp > order:
        return ("finite", None)
    return ("infinite", None)


def _integrate_phi_rA(A: ScalarDistribution, B: ScalarDistribution, r: float):
    from .quadrature import integrate_finite

    lo, hi = A.support()
    if A.pdf(0.5 * (lo + hi)) is None or not (math.isfinite(lo) and math.isfinite(hi)):
        return None
    res = integrate_finite(lambda u: B.mgf(r * u) * float(np.asarray(A.pdf(u))), lo, hi, 1e-10)
    return res.value


def prove_support_unbounded(joint: JointInput):
    """Right-unboundedness of the law of X for simple cases; None if undecided."""
    flags = structural_flags(joint)
    b_lo, b_hi = joint.B.support()
    A = joint.A_marginal()
    a_lo, a_hi = A.support()
    if b_hi == _INF and flags.A_positive:
        return True
    if b_hi < _INF and flags.A_positive and a_hi < 1.0:
        return False
    return None


def _tv(cond: bool | None) -> str:
    if cond is None:
        return "unknown"
    return "satisfied" if cond else "violated"


# ---------------------------------------------------------------------------
# Criterion for a.s. positive A
# ---------------------------------------------------------------------------

def exp_moment_criterion_positiveA(joint: JointInput, r: float, support_unbounded_right=None) -> MomentVerdict:
    """Finiteness of E e^{rX} when P{A > 0} = 1.

    Sufficient: P{A<=1}=1, E e^{rB} < inf and E e^{rB} 1{A=1} < 1.
    Necessary (when the support of X is unbounded to the right): the same
    three conditions; the boundary E e^{rB} 1{A=1} = 1 is Infinite as soon
    as P{A in (0,1]} = 1.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    flags = structural_flags(joint)
    if flags.A_positive is not True:
        raise DispatchError("A is not a.s. positive; use the mixed-sign criterion")
    rep = validate_nondegeneracy(joint)
    if not rep.ok:
        raise DispatchError("degenerate input: " + "; ".join(rep.violations))
    if support_unbounded_right is None:
        support_unbounded_right = prove_support_unbounded(joint)

    A = joint.A_marginal()
    _, a_hi = A.support()
    trace = []
    c_bound = a_hi <= 1.0
    trace.append(Condition("P{A<=1}=1", _tv(c_bound), a_hi))
    phi = _mgf_closed(joint.B, r)
    c_mgf = None if phi is None else (phi < _INF)
    trace.append(Condition("E e^{rB} < inf", _tv(c_mgf), phi))
    status, wval = _weighted_mgf_at_atom(joint, r, 1.0)
    if status == "ok":
        c_atom = wval < 1.0
        boundary = wval == 1.0
    elif status == "infinite":
        c_atom, boundary = False, False
    else:
        c_atom, boundary = None, False
    trace.append(Condition("E e^{rB} 1{A=1} < 1", _tv(c_atom), wval))
    trace.append(Condition("support of X unbounded right", _tv(support_unbounded_right), None))

    if c_bound is True and c_mgf is True and c_atom is True:
        return MomentVerdict(FINITE, "positive-A exponential-moment criterion", trace)
    if boundary and c_bound is True:
        trace.append(Condition("boundary E e^{rB}1{A=1} = 1 forces divergence", "satisfied", wval))
        return MomentVerdict(INFINITE, "positive-A exponential-moment criterion", trace)
    if support_unbounded_right is True and (c_bound is False or c_mgf is False or c_atom is False):
        return MomentVerdict(INFINITE, "positive-A exponential-moment criterion", trace)
    return MomentVerdict(INCONCLUSIVE, "positive-A exponential-moment criterion", trace)


# ---------------------------------------------------------------------------
# Criterion for A taking negative values, no atom at -1
# ---------------------------------------------------------------------------

def exp_moment_criterion_mixedA(joint: JointInput, r: float) -> MomentVerdict:
    """Finiteness of E e^{rX} when P{A=-1}=0 and P{A<0}>0.

    Mixed signs with B >= 0: Finite iff P{|A|<=1}=1 and the positive-A
    moment conditions on B hold.  All-negative A: Finite iff P{|A|<=1}=1
    and E e^{r(B1 + A1 B2)} < inf.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    flags = structural_flags(joint)
    if flags.p_A_eq_neg1 is None or flags.p_A_eq_neg1 > 0:
        raise DispatchError("P{A=-1} > 0: use the two-sided (absolute-moment) criterion")
    if flags.p_A_neg is None or flags.p_A_neg == 0:
        raise DispatchError("A has no negative part; use the positive-A criterion")
    rep = validate_nondegeneracy(joint)
    if not rep.ok:
        raise DispatchError("degenerate input: " + "; ".join(rep.violations))

    A = joint.A_marginal()
    trace = [Condition("P{|A|<=1}=1", _tv(flags.A_bounded_by_1), A.support())]
    name = "mixed-sign-A exponential-moment criterion"

    if flags.p_A_neg == 1.0:
        # all-negative A: need E e^{r(B1 + A1 B2)} = phi(r) * E phi(rA) < inf
        if not joint.independent:
            trace.append(Condition("E e^{r(B1+A1B2)} < inf", "unknown", "dependent joint"))
            return MomentVerdict(INCONCLUSIVE, name, trace)
        phi = _mgf_closed(joint.B, r)
        if phi is None:
            trace.append(Condition("E e^{r(B1+A1B2)} < inf", "unknown", None))
            return MomentVerdict(INCONCLUSIVE, name, trace)
        if phi == _INF:
            trace.append(Condition("E e^{r(B1+A1B2)} < inf", "violated", "E e^{rB} = inf"))
            return MomentVerdict(INFINITE, name, trace)
        status, val = expected_phi_rA(A, joint.B, r)
        comp = None if status == "unknown" else (phi * val if (status == "finite" and val is not None) else None)
        trace.append(Condition("E e^{r(B1+A1B2)} < inf", _tv(None if status == "unknown" else status == "finite"), comp))
        if status == "unknown":
            return MomentVerdict(INCONCLUSIVE, name, trace)
        if status == "infinite":
            return MomentVerdict(INFINITE, name, trace)
        if flags.A_bounded_by_1 is True:
            return MomentVerdict(FINITE, name, trace)
        if flags.A_bounded_by_1 is False:
            return MomentVerdict(INFINITE, name, trace)
        return MomentVerdict(INCONCLUSIVE, name, trace)

    if flags.B_nonneg is not True:
        trace.append(Condition("B >= 0 a.s.", _tv(flags.B_nonneg), joint.B.support()))
        trace.append(Condition("criterion open for two-sided B with mixed-sign A", "unknown", None))
        return MomentVerdict(INCONCLUSIVE, name, trace)
    trace.append(Condition("B >= 0 a.s.", "satisfied", joint.B.support()))
    phi = _mgf_closed(joint.B, r)
    c_mgf = None if phi is None else phi < _INF
    trace.append(Condition("E e^{rB} < inf", _tv(c_mgf), phi))
    status, wval = _weighted_mgf_at_atom(joint, r, 1.0)
    c_atom = None if status == "unknown" else (status == "ok" and wval < 1.0)
    trace.append(Condition("E e^{rB} 1{A=1} < 1", _tv(c_atom), wval))
    conds = [flags.A_bounded_by_1, c_mgf, c_atom]
    if all(c is True for c in conds):
        return MomentVerdict(FINITE, name, trace)
    if any(c is False for c in conds):
        return MomentVerdict(INFINITE, name, trace)
    return MomentVerdict(INCONCLUSIVE, name, trace)


# ---------------------------------------------------------------------------
# Two-sided absolute-moment criterion
# ---------------------------------------------------------------------------

def _unit_atom_inequality(phi_m: float, phi_p: float, p1: float, pm1: float):
    """(phi(-r) phi(r) P{A=-1}^2 < (1 - phi(-r) P{A=1})(1 - phi(r) P{A=1}) with both factors > 0, witness)."""
    lhs = phi_m * phi_p * pm1 * pm1
    rhs = (1.0 - phi_m * p1) * (1.0 - phi_p * p1)
    return lhs < rhs and phi_m * p1 < 1.0 and phi_p * p1 < 1.0, {"lhs": lhs, "rhs": rhs}


def two_sided_criterion_AIR(joint: JointInput, r: float) -> MomentVerdict:
    """Finiteness of E e^{r|X|} (and, with P{A=-1}>0, of E e^{rX})."""
    if r <= 0:
        raise ValueError("r must be positive")
    flags = structural_flags(joint)
    rep = validate_nondegeneracy(joint)
    if not rep.ok:
        raise DispatchError("degenerate input: " + "; ".join(rep.violations))
    p1 = flags.p_A_eq_1
    pm1 = flags.p_A_eq_neg1
    if p1 is None or pm1 is None:
        raise DispatchError("atoms of A at +-1 not symbolically derivable")
    p_abs1 = p1 + pm1
    A = joint.A_marginal()
    a_lo, a_hi = A.support()
    phi_p = _mgf_closed(joint.B, r)
    phi_m = _mgf_closed(joint.B, -r)
    c_absB = None if phi_p is None or phi_m is None else (phi_p < _INF and phi_m < _INF)
    name = "two-sided absolute-moment criterion"
    trace = [Condition("E e^{r|B|} < inf", _tv(c_absB), (phi_m, phi_p))]

    if p_abs1 == 0.0:
        c_contr = -1.0 <= a_lo and a_hi <= 1.0
        trace.insert(0, Condition("P{|A|<1}=1", _tv(c_contr), (a_lo, a_hi)))
        if c_contr and c_absB is True:
            return MomentVerdict(FINITE, name + " (no unit atoms)", trace)
        if c_contr is False or c_absB is False:
            return MomentVerdict(INFINITE, name + " (no unit atoms)", trace)
        return MomentVerdict(INCONCLUSIVE, name + " (no unit atoms)", trace)

    if 0.0 < p_abs1 < 1.0:
        trace.insert(0, Condition("P{|A|<=1}=1", _tv(flags.A_bounded_by_1), (a_lo, a_hi)))
        if not joint.independent or phi_p is None or phi_m is None:
            trace.append(Condition("unit-atom inequality", "unknown", None))
            return MomentVerdict(INCONCLUSIVE, name + " (unit atoms)", trace)
        if phi_p == _INF or phi_m == _INF:
            return MomentVerdict(INFINITE, name + " (unit atoms)", trace)
        c_ineq, witness = _unit_atom_inequality(phi_m, phi_p, p1, pm1)
        trace.append(Condition("E e^{-rB}1{A=-1} E e^{rB}1{A=-1} < (1-E e^{-rB}1{A=1})(1-E e^{rB}1{A=1})",
                               _tv(c_ineq), witness))
        conds = [flags.A_bounded_by_1, c_absB, c_ineq]
        if all(c is True for c in conds):
            return MomentVerdict(FINITE, name + " (unit atoms)", trace)
        if any(c is False for c in conds):
            return MomentVerdict(INFINITE, name + " (unit atoms)", trace)
        return MomentVerdict(INCONCLUSIVE, name + " (unit atoms)", trace)

    raise DispatchError("P{|A|=1} = 1 is outside both parts of the two-sided criterion")


# ---------------------------------------------------------------------------
# Criterion for E psi(rA) (the tail constant of the inheritance result)
# ---------------------------------------------------------------------------

def prop_main_part1(joint: JointInput, r: float) -> MomentVerdict:
    """Finiteness of E psi(rA) with psi(s) = E e^{sX}, for independent (A, B)."""
    if r <= 0:
        raise ValueError("r must be positive")
    if not joint.independent:
        raise DispatchError("the E psi(rA) criterion assumes independent A and B")
    flags = structural_flags(joint)
    A = joint.A
    B = joint.B
    a_lo, a_hi = A.support()
    p1 = flags.p_A_eq_1
    pm1 = flags.p_A_eq_neg1
    if p1 is not None and p1 >= 1.0:
        raise DispatchError("P{A=1} must be < 1")
    name = "E psi(rA) finiteness criterion"
    trace = []

    in_01 = flags.A_positive is True and a_hi <= 1.0
    in_m10 = a_hi <= 0.0 and a_lo >= -1.0 and (pm1 == 0.0) and (A.atom_at(0.0) == 0.0)
    case_c = (
        pm1 is not None and 0.0 < pm1 < 1.0
        and flags.A_bounded_by_1 is True and A.atom_at(0.0) == 0.0
    )

    if in_01:
        trace.append(Condition("P{A in (0,1]}=1", "satisfied", (a_lo, a_hi)))
        if p1 == 0.0:
            status, val = expected_phi_rA(A, B, r)
            trace.append(Condition("E phi(rA) < inf", _tv(None if status == "unknown" else status == "finite"), val))
            if status == "finite":
                return MomentVerdict(FINITE, name + " (a)", trace)
            if status == "infinite":
                return MomentVerdict(INFINITE, name + " (a)", trace)
            return MomentVerdict(INCONCLUSIVE, name + " (a)", trace)
        phi = _mgf_closed(B, r)
        if phi is None or p1 is None:
            trace.append(Condition("phi(r) P{A=1} < 1", "unknown", None))
            return MomentVerdict(INCONCLUSIVE, name + " (a)", trace)
        ok = phi < _INF and phi * p1 < 1.0
        trace.append(Condition("phi(r) P{A=1} < 1", _tv(ok), None if phi == _INF else phi * p1))
        return MomentVerdict(FINITE if ok else INFINITE, name + " (a)", trace)

    if in_m10:
        trace.append(Condition("P{A in (-1,0)}=1", "satisfied", (a_lo, a_hi)))
        return _str_condition(joint, r, trace, name + " (b)")

    if case_c:
        trace.append(Condition("P{|A| in (0,1]}=1 and P{A=-1} in (0,1)", "satisfied", pm1))
        phi_p = _mgf_closed(B, r)
        phi_m = _mgf_closed(B, -r)
        if phi_p is None or phi_m is None:
            trace.append(Condition("unit-atom inequality", "unknown", None))
            return MomentVerdict(INCONCLUSIVE, name + " (c)", trace)
        if phi_p == _INF or phi_m == _INF:
            trace.append(Condition("E e^{rB}, E e^{-rB} < inf", "violated", None))
            return MomentVerdict(INFINITE, name + " (c)", trace)
        ok, witness = _unit_atom_inequality(phi_m, phi_p, p1, pm1)
        trace.append(Condition("E e^{-rB} E e^{rB} P{A=-1}^2 < (1-E e^{-rB}P{A=1})(1-E e^{rB}P{A=1})",
                               _tv(ok), witness))
        return MomentVerdict(FINITE if ok else INFINITE, name + " (c)", trace)

    raise DispatchError("A matches none of the cases (0,1], (-1,0), or |A| in (0,1] with an atom at -1")


def _str_condition(joint: JointInput, r: float, trace: list, name: str) -> MomentVerdict:
    """E e^{r A1 (B2 + A2 B3)} < inf for P{A in (-1,0)} = 1."""
    A, B = joint.A, joint.B
    flags = structural_flags(joint)
    atoms = A.atoms()
    if atoms is not None:
        # E prod over pair draws: sum_{i,j} w_i w_j phi(r a_i) phi(r a_i a_j)
        total = 0.0
        for ai, wi in atoms.items():
            phi_i = _mgf_closed(B, r * ai)
            if phi_i is None:
                trace.append(Condition("E e^{rA1(B2+A2B3)} < inf", "unknown", None))
                return MomentVerdict(INCONCLUSIVE, name, trace)
            if phi_i == _INF:
                trace.append(Condition("E e^{rA1(B2+A2B3)} < inf", "violated", f"phi({r * ai:g}) = inf"))
                return MomentVerdict(INFINITE, name, trace)
            for aj, wj in atoms.items():
                phi_ij = _mgf_closed(B, r * ai * aj)
                if phi_ij is None:
                    trace.append(Condition("E e^{rA1(B2+A2B3)} < inf", "unknown", None))
                    return MomentVerdict(INCONCLUSIVE, name, trace)
                if phi_ij == _INF:
                    trace.append(Condition("E e^{rA1(B2+A2B3)} < inf", "violated", f"phi({r * ai * aj:g}) = inf"))
                    return MomentVerdict(INFINITE, name, trace)
                total += wi * wj * phi_i * phi_ij
        trace.append(Condition("E e^{rA1(B2+A2B3)} < inf", "satisfied", total))
        return MomentVerdict(FINITE, name, trace)
    if flags.B_nonneg is True:
        trace.append(Condition("B >= 0: reduces to E phi(rA1A2) < inf", "satisfied", None))
        status, val = expected_phi_rA(_product_of_two(A), B, r)
        trace.append(Condition("E phi(rA1A2) < inf", _tv(None if status == "unknown" else status == "finite"), val))
        return MomentVerdict(
            {"finite": FINITE, "infinite": INFINITE, "unknown": INCONCLUSIVE}[status], name, trace
        )
    if flags.B_nonpos is True:
        trace.append(Condition("B <= 0: reduces to E phi(rA) < inf", "satisfied", None))
        status, val = expected_phi_rA(A, B, r)
        trace.append(Condition("E phi(rA) < inf", _tv(None if status == "unknown" else status == "finite"), val))
        return MomentVerdict(
            {"finite": FINITE, "infinite": INFINITE, "unknown": INCONCLUSIVE}[status], name, trace
        )
    trace.append(Condition("E e^{rA1(B2+A2B3)} < inf", "unknown", "no closed form for this A"))
    return MomentVerdict(INCONCLUSIVE, name, trace)


def _product_of_two(A: ScalarDistribution):
    at = A.atoms()
    if at is None:
        raise NoClosedForm("product law needs atomic A")
    out: dict[float, float] = {}
    for v1, w1 in at.items():
        for v2, w2 in at.items():
            out[v1 * v2] = out.get(v1 * v2, 0.0) + w1 * w2
    return Mixture(tuple((w, PointMass(v)) for v, w in out.items()))


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def dispatch_exp_moment(joint: JointInput, r: float, support_unbounded_right=None) -> MomentVerdict:
    """Route a finiteness query for E e^{rX} to the applicable criterion."""
    flags = structural_flags(joint)
    if flags.A_positive is True:
        return exp_moment_criterion_positiveA(joint, r, support_unbounded_right)
    if flags.p_A_eq_neg1 is not None and flags.p_A_eq_neg1 > 0:
        return two_sided_criterion_AIR(joint, r)
    if flags.p_A_neg is not None and flags.p_A_neg > 0:
        return exp_moment_criterion_mixedA(joint, r)
    return MomentVerdict(
        INCONCLUSIVE,
        "none",
        [Condition("sign structure of A", "unknown", "no applicable criterion")],
    )
