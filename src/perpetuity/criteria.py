"""Sound symbolic verdicts on finiteness of exponential moments of X.

Each criterion evaluates and traces its hypotheses once, each as holding,
failing or unknown from the structural description alone.  One rule,
`_decide`, turns them into the verdict: Finite when every condition holds,
Infinite when one fails, Inconclusive otherwise.  Four exits depart from it
on purpose, and each stays in its criterion:
  - positive A: the boundary E e^{rB} 1{A=1} = 1 is Infinite;
  - positive A: a failed condition gives Infinite only when the support of
    X is unbounded to the right, Inconclusive otherwise;
  - unit atoms of A: an unknown unit-atom inequality gives Inconclusive
    before the bound P{|A|<=1}=1 is read;
  - all-negative A: the status of E e^{r(B1 + A1 B2)} decides before the
    bound P{|A|<=1}=1.
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
    NoClosedForm,
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

def _mgf_closed(B: ScalarDistribution, s):
    """E e^{sB} from the closed-form table, or None when unavailable."""
    try:
        return B.mgf(s, numeric_ok=False)
    except NoClosedForm:
        return None


def _weighted_mgf_at_atom(joint: JointInput, phi, a_val: float):
    """E e^{rB} 1{A = a_val} from phi = E e^{rB}: inf, or None when it cannot be derived."""
    p = joint.A_marginal().atom_at(a_val)
    if p == 0.0:
        return 0.0
    if p is None or phi is None or not joint.independent:
        return None
    return phi * p  # inf when phi is


def expected_phi_rA(A: ScalarDistribution, B: ScalarDistribution, r: float):
    """E phi(rA) with phi(s) = E e^{sB}: (status, value).

    status: "finite" (value may be None for boundary cases), "infinite",
    or "unknown".
    """
    atoms = A.atoms()
    if atoms is not None:
        # one array MGF call; summed in atom order, it has the bits of a scalar call per atom
        phi = _mgf_closed(B, r * np.array(list(atoms)))
        if phi is None:
            return ("unknown", None)
        if np.any(phi == _INF):
            return ("infinite", None)
        total = 0.0
        for w, p in zip(atoms.values(), phi.tolist()):
            total += w * p
        return ("finite", total)
    pole = B.mgf_pole()
    if pole is None:
        return ("unknown", None)
    s_max, order = pole
    if s_max == _INF:
        return ("finite", _integrate_phi_rA(A, B, r))
    a_hi = A.support()[1]
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
    return res.value if res.converged else None


def prove_support_unbounded(joint: JointInput):
    """Right-unboundedness of the law of X for simple cases; None if undecided."""
    if not structural_flags(joint).A_positive:
        return None
    if joint.B.support()[1] == _INF:
        return True
    return False if joint.A_marginal().support()[1] < 1.0 else None


def _check(name: str, holds, witness=None) -> Condition:
    """The traced condition: holds is True, False, or None when it cannot be established."""
    return Condition(name, "unknown" if holds is None else "satisfied" if holds else "violated", witness)


def _decide(conds, name: str, trace: list) -> MomentVerdict:
    """The verdict rule: Finite when every condition holds, Infinite when one fails, else Inconclusive."""
    known = [bool(c) for c in conds if c is not None]
    if not all(known):
        return MomentVerdict(INFINITE, name, trace)
    return MomentVerdict(FINITE if len(known) == len(conds) else INCONCLUSIVE, name, trace)


def _require_nondegenerate(joint: JointInput):
    rep = validate_nondegeneracy(joint)
    if not rep.ok:
        raise DispatchError("degenerate input: " + "; ".join(rep.violations))


def _b_moment_conditions(joint: JointInput, r: float, trace: list):
    """Trace E e^{rB} < inf and E e^{rB} 1{A=1} < 1; return their truth values and E e^{rB} 1{A=1}."""
    phi = _mgf_closed(joint.B, r)
    w = _weighted_mgf_at_atom(joint, phi, 1.0)
    c_mgf = None if phi is None else phi < _INF
    c_atom = None if w is None else w < 1.0
    trace += [_check("E e^{rB} < inf", c_mgf, phi), _check("E e^{rB} 1{A=1} < 1", c_atom, w)]
    return c_mgf, c_atom, w


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
    if structural_flags(joint).A_positive is not True:
        raise DispatchError("A is not a.s. positive; use the mixed-sign criterion")
    _require_nondegenerate(joint)
    if support_unbounded_right is None:
        support_unbounded_right = prove_support_unbounded(joint)

    name = "positive-A exponential-moment criterion"
    a_hi = joint.A_marginal().support()[1]
    c_bound = a_hi <= 1.0
    trace = [_check("P{A<=1}=1", c_bound, a_hi)]
    c_mgf, c_atom, w = _b_moment_conditions(joint, r, trace)
    trace.append(_check("support of X unbounded right", support_unbounded_right))
    if w == 1.0 and c_bound:
        trace.append(_check("boundary E e^{rB}1{A=1} = 1 forces divergence", True, w))
        return MomentVerdict(INFINITE, name, trace)
    conds = [c_bound, c_mgf, c_atom]
    if False in conds and support_unbounded_right is not True:  # a failed condition refutes only an unbounded X
        return MomentVerdict(INCONCLUSIVE, name, trace)
    return _decide(conds, name, trace)


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
    _require_nondegenerate(joint)

    A = joint.A_marginal()
    trace = [_check("P{|A|<=1}=1", flags.A_bounded_by_1, A.support())]
    name = "mixed-sign-A exponential-moment criterion"

    if flags.p_A_neg == 1.0:
        # all-negative A: need E e^{r(B1 + A1 B2)} = phi(r) * E phi(rA) < inf
        phi = _mgf_closed(joint.B, r)
        c, witness = None, None
        if not joint.independent:
            witness = "dependent joint"
        elif phi == _INF:
            c, witness = False, "E e^{rB} = inf"
        elif phi is not None:
            c, val = _phi_rA(A, joint.B, r)
            witness = phi * val if c and val is not None else None
        trace.append(_check("E e^{r(B1+A1B2)} < inf", c, witness))
        # this condition decides before the bound: an unknown one leaves P{|A|<=1}=1 unread
        return _decide([c, flags.A_bounded_by_1] if c else [c], name, trace)

    trace.append(_check("B >= 0 a.s.", flags.B_nonneg, joint.B.support()))
    if flags.B_nonneg is not True:
        trace.append(_check("criterion open for two-sided B with mixed-sign A", None))
        return _decide([None], name, trace)
    c_mgf, c_atom, _ = _b_moment_conditions(joint, r, trace)
    return _decide([flags.A_bounded_by_1, c_mgf, c_atom], name, trace)


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
    _require_nondegenerate(joint)
    p1 = flags.p_A_eq_1
    pm1 = flags.p_A_eq_neg1
    if p1 is None or pm1 is None:
        raise DispatchError("atoms of A at +-1 not symbolically derivable")
    a_lo, a_hi = joint.A_marginal().support()
    phi_p = _mgf_closed(joint.B, r)
    phi_m = _mgf_closed(joint.B, -r)
    c_absB = None if phi_p is None or phi_m is None else (phi_p < _INF and phi_m < _INF)
    name = "two-sided absolute-moment criterion"
    trace = [_check("E e^{r|B|} < inf", c_absB, (phi_m, phi_p))]

    if p1 + pm1 == 0.0:
        c_contr = -1.0 <= a_lo and a_hi <= 1.0
        trace.insert(0, _check("P{|A|<1}=1", c_contr, (a_lo, a_hi)))
        return _decide([c_contr, c_absB], name + " (no unit atoms)", trace)
    if not 0.0 < p1 + pm1 < 1.0:
        raise DispatchError("P{|A|=1} = 1 is outside both parts of the two-sided criterion")

    name += " (unit atoms)"
    trace.insert(0, _check("P{|A|<=1}=1", flags.A_bounded_by_1, (a_lo, a_hi)))
    if not joint.independent or c_absB is None:  # an unknown inequality decides before the bound
        trace.append(_check("unit-atom inequality", None))
        return MomentVerdict(INCONCLUSIVE, name, trace)
    conds = [flags.A_bounded_by_1, c_absB]
    if c_absB:
        c_ineq, witness = _unit_atom_inequality(phi_m, phi_p, p1, pm1)
        trace.append(_check("E e^{-rB}1{A=-1} E e^{rB}1{A=-1} < (1-E e^{-rB}1{A=1})(1-E e^{rB}1{A=1})",
                            c_ineq, witness))
        conds.append(c_ineq)
    return _decide(conds, name, trace)


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

    if flags.A_positive is True and a_hi <= 1.0:
        part, trace = "(a)", [_check("P{A in (0,1]}=1", True, (a_lo, a_hi))]
        if p1 == 0.0:
            label, (c, witness) = "E phi(rA) < inf", _phi_rA(A, B, r)
        else:
            phi = _mgf_closed(B, r)
            c = None if phi is None or p1 is None else (phi < _INF and phi * p1 < 1.0)
            label, witness = "phi(r) P{A=1} < 1", None if c is None or phi == _INF else phi * p1
    elif a_hi <= 0.0 and a_lo >= -1.0 and pm1 == 0.0 and A.atom_at(0.0) == 0.0:
        part, trace = "(b)", [_check("P{A in (-1,0)}=1", True, (a_lo, a_hi))]
        label, c, witness = _str_condition(A, B, r, flags.B_nonpos, trace)
    elif pm1 is not None and 0.0 < pm1 < 1.0 and flags.A_bounded_by_1 is True and A.atom_at(0.0) == 0.0:
        part, trace = "(c)", [_check("P{|A| in (0,1]}=1 and P{A=-1} in (0,1)", True, pm1)]
        phi_p = _mgf_closed(B, r)
        phi_m = _mgf_closed(B, -r)
        if phi_p is None or phi_m is None:
            label, c, witness = "unit-atom inequality", None, None
        elif phi_p == _INF or phi_m == _INF:
            label, c, witness = "E e^{rB}, E e^{-rB} < inf", False, None
        else:
            label = "E e^{-rB} E e^{rB} P{A=-1}^2 < (1-E e^{-rB}P{A=1})(1-E e^{rB}P{A=1})"
            c, witness = _unit_atom_inequality(phi_m, phi_p, p1, pm1)
    else:
        raise DispatchError("A matches none of the cases (0,1], (-1,0), or |A| in (0,1] with an atom at -1")
    trace.append(_check(label, c, witness))
    return _decide([c], f"E psi(rA) finiteness criterion {part}", trace)


def _phi_rA(A: ScalarDistribution, B: ScalarDistribution, r: float):
    """(E phi(rA) < inf as a truth value, E phi(rA))."""
    status, val = expected_phi_rA(A, B, r)
    return {"finite": True, "infinite": False, "unknown": None}[status], val


def _str_condition(A: ScalarDistribution, B: ScalarDistribution, r: float, B_nonpos, trace: list):
    """(label, truth value, witness) of E e^{r A1 (B2 + A2 B3)} < inf for P{A in (-1,0)} = 1."""
    label = "E e^{rA1(B2+A2B3)} < inf"
    atoms = A.atoms()
    if atoms is not None:
        # E prod over pair draws: sum_{i,j} w_i w_j phi(r a_i) phi(r a_i a_j)
        total = 0.0
        for ai, wi in atoms.items():
            phis = []
            for s in [r * ai] + [r * ai * aj for aj in atoms]:
                phi = _mgf_closed(B, s)
                if phi is None:
                    return label, None, None
                if phi == _INF:
                    return label, False, f"phi({s:g}) = inf"
                phis.append(phi)
            for wj, phi_ij in zip(atoms.values(), phis[1:]):
                total += wi * wj * phis[0] * phi_ij
        return label, True, total
    if B_nonpos is True:
        trace.append(_check("B <= 0: reduces to E phi(rA) < inf", True))
        return ("E phi(rA) < inf", *_phi_rA(A, B, r))
    return label, None, "no closed form for this A"


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
    return _decide([None], "none", [_check("sign structure of A", None, "no applicable criterion")])
