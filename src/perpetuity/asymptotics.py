"""Tail-asymptote constants and the perpetuity characteristic function.

Three routes to a predicted right tail of X:
  * constant-times-increment-tail with constant E psi(bA),
  * the smoothed-tail route with constant E f(X) / (1 - E e^{bB}1{A=1}),
    carried with the 1/x term of its own expansion,
    P{X > x} = P{B > x} (K0 + K1/x + o(1/x)),
  * the power-corrected route K x^{lam C} e^{-bx} for A ~ Beta(lam, 1).
Plus an evaluator for the characteristic function of X via the
compound-Poisson exponent representation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy import special

from .criteria import FINITE, MomentVerdict, prop_main_part1
from .distributions import (
    Beta,
    ExpPlusRemainder,
    GammaLike,
    JointInput,
    NoClosedForm,
    PointMass,
    ScalarDistribution,
    ThresholdDependent,
    Uniform,
    _exp_tilted_survival,
)
from .quadrature import QuadResult, expm1_over, integrate_finite, integrate_semi_infinite
from .simulate import SimConfig, median_of_means, sample_batch, _chunk_rng, CHUNK

__all__ = [
    "TailPrediction",
    "PredictionRefused",
    "prop_main_constant",
    "f_function",
    "f_function_vec",
    "tilted_moment_vec",
    "SmoothedTail",
    "thm1_constant",
    "thm2_K",
    "perpetuity_cf",
]


class PredictionRefused(RuntimeError):
    """A precondition of the requested asymptote failed; details attached."""

    def __init__(self, message, verdict: Optional[MomentVerdict] = None, quad: Optional[QuadResult] = None):
        super().__init__(message)
        self.verdict = verdict
        self.quad = quad


@dataclass(frozen=True)
class SmoothedTail:
    """Two-term smoothed-tail prediction P{B > x} (K0 + K1/x).

    `a`, `c`, `b` are those of the one-term asymptote K0 a_B x^c e^{-bx};
    `survival_B` is the increment's own survival, not its tail model.
    """

    a: float
    c: float
    b: float
    K0: float
    K1: float
    survival_B: Callable = field(repr=False, compare=False)

    def __call__(self, x):
        xa = np.asarray(x, dtype=float)
        out = np.asarray(self.survival_B(xa), dtype=float) * (self.K0 + self.K1 / xa)
        return float(out) if out.ndim == 0 else out


@dataclass
class TailPrediction:
    form: GammaLike | SmoothedTail  # predicted P{X > x}, coefficient included
    constant: float
    constant_source: str          # "ClosedForm" | "Quadrature" | "MonteCarlo"
    theorem: str
    preconditions_trace: list = field(default_factory=list)
    std_err: Optional[float] = None

    def __post_init__(self):
        if not (self.constant > 0 and math.isfinite(self.constant)):
            raise ValueError("tail constant must be finite and positive")

    @property
    def K1(self) -> Optional[float]:
        """1/x coefficient of the smoothed-tail route; None where the form has one term."""
        return self.form.K1 if isinstance(self.form, SmoothedTail) else None

    def as_dict(self):
        out = {
            "theorem": self.theorem,
            "form": {"a": self.form.a, "c": self.form.c, "b": self.form.b},
            "constant": self.constant,
            "source": self.constant_source,
            "preconditions_trace": list(self.preconditions_trace),
        }
        if self.std_err is not None:
            out["std_err"] = self.std_err
        if self.K1 is not None:
            out["K1"] = self.K1
        return out


# ---------------------------------------------------------------------------
# Constant E psi(bA): tail inherited with a multiplicative constant
# ---------------------------------------------------------------------------

def prop_main_constant(joint: JointInput, b: float, cfg: SimConfig,
                       tail_of_B: Optional[GammaLike] = None) -> TailPrediction:
    """Predicted tail E psi(bA) * P{B > x} for an independent pair.

    Requires a Finite verdict on E psi(bA).  For constant A = gamma the
    constant is the convergent product psi(b gamma) = prod_k phi(b gamma^k);
    otherwise it is a median-of-means average of e^{b a_i x_i} with fresh
    A-draws a_i independent of the perpetuity draws x_i.
    """
    verdict = prop_main_part1(joint, b)
    if verdict.verdict != FINITE:
        raise PredictionRefused(f"E psi(bA) not established finite: {verdict.verdict}", verdict=verdict)
    trace = [f"E psi(bA) finite via {verdict.theorem_used}"]
    if tail_of_B is None:
        tail = joint.B.exp_tail()
        if tail is None:
            raise PredictionRefused("no tail model supplied and none derivable for B")
        if tail.b != b:
            raise PredictionRefused(f"B's exponential tail has rate {tail.b:g}, not b = {b:g}")
        tail_of_B = GammaLike(tail.C, 0.0, b)
        trace.append("tail model of B derived from its law")
    A = joint.A
    if isinstance(A, PointMass) and 0.0 < A.value < 1.0:
        gamma = A.value
        prod = 1.0
        s = b * gamma
        for _ in range(100_000):
            factor = joint.B.mgf(s, numeric_ok=False)
            prod *= factor
            if abs(factor - 1.0) < 1e-16:
                break
            s *= gamma
        trace.append("constant by convergent MGF product")
        const, se, source = prod, None, "ClosedForm"
    else:
        batch = sample_batch(joint, cfg)
        rng = _chunk_rng(cfg.master_seed, batch.values.size // CHUNK + 101)
        a = A.sample(rng, batch.values.size)
        w = np.exp(np.minimum(b * a * batch.values, 700.0))
        const, se = median_of_means(w)
        source = "MonteCarlo"
        trace.append(f"constant by median-of-means over {batch.values.size} draws")
    form = GammaLike(tail_of_B.a * const, tail_of_B.c, tail_of_B.b)
    return TailPrediction(form, const, source, "PropMainII", trace, std_err=se)


# ---------------------------------------------------------------------------
# Smoothing function f
# ---------------------------------------------------------------------------

def f_function(joint: JointInput, b: float, y: float) -> float:
    """The tail-smoothing factor: lim P{Ay + B > x} / P{B > x}."""
    if joint.independent:
        return joint.A.mgf(b * y)
    if isinstance(joint.dependence, ThresholdDependent):
        return math.exp(b * y * joint.dependence.zeta1)
    raise ValueError(f"unsupported dependence: {joint.dependence!r}")


def f_function_vec(joint: JointInput, b: float, y: np.ndarray) -> np.ndarray:
    ya = np.asarray(y, dtype=float)
    if not joint.independent:
        return np.exp(b * ya * joint.dependence.zeta1)
    A = joint.A
    if isinstance(A, Uniform) and A.lo == 0.0 and A.hi == 1.0:
        return np.asarray(expm1_over(b, ya)) / b
    if isinstance(A, Beta):
        return special.hyp1f1(A.p, A.p + A.q, b * ya)
    atoms = A.atoms()
    if atoms is not None:
        out = np.zeros_like(ya)
        for v, w in atoms.items():
            out += w * np.exp(np.minimum(b * v * ya, 700.0))
        return out
    return np.array([A.mgf(b * float(v)) for v in ya])


def tilted_moment_vec(joint: JointInput, b: float, y: np.ndarray) -> Optional[np.ndarray]:
    """E_A[A y e^{bAy}], the companion of f_function_vec in the 1/x term.

    Closed forms for Uniform, Beta and atomic A; None otherwise.
    """
    ya = np.asarray(y, dtype=float)
    A = joint.A
    if isinstance(A, Uniform):
        # A = lo + w U with U ~ Beta(1, 1)
        lo, w = A.lo, A.hi - A.lo
        s = b * ya
        return ya * np.exp(lo * s) * (lo * special.hyp1f1(1.0, 2.0, w * s)
                                      + 0.5 * w * special.hyp1f1(2.0, 3.0, w * s))
    if isinstance(A, Beta):
        return ya * (A.p / (A.p + A.q)) * special.hyp1f1(A.p + 1.0, A.p + A.q + 1.0, b * ya)
    atoms = A.atoms()
    if atoms is not None:
        out = np.zeros_like(ya)
        for v, w in atoms.items():
            out += w * v * ya * np.exp(np.minimum(b * v * ya, 700.0))
        return out
    return None


# ---------------------------------------------------------------------------
# E f(X) / (1 - E e^{bB} 1{A=1})
# ---------------------------------------------------------------------------

def thm1_constant(joint: JointInput, tail_of_B: GammaLike, cfg: SimConfig) -> TailPrediction:
    """Predicted tail for P{A in (0,1]} = 1 and a gamma-like B tail with c < -1.

    `constant` is the limit K0 = E f(X) / (1 - E e^{bB}1{A=1}).  `form` is
    the two-term expansion P{B > x} (K0 + K1/x) with
    K1 = -c E[AX e^{bAX}] + E e^{bB} g_A(1-) K0 / b, from the same draws
    as K0 (see `_one_over_x_term`).  Where K1 is not derivable (threshold
    dependence, P{A=1} > 0, an infinite density of A at 1, no closed form)
    `form` stays the one-term asymptote K0 a x^c e^{-bx}, and the trace
    says why.
    """
    from .distributions import structural_flags

    flags = structural_flags(joint)
    A = joint.A_marginal()
    _, a_hi = A.support()
    trace = []
    if not (flags.A_positive is True and a_hi <= 1.0):
        raise PredictionRefused("precondition P{A in (0,1]} = 1 not established")
    trace.append("P{A in (0,1]} = 1")
    if not tail_of_B.c < -1.0:
        raise PredictionRefused(f"tail exponent c = {tail_of_B.c} must be < -1")
    trace.append(f"gamma-like tail with c = {tail_of_B.c} < -1")
    _, b_hi = joint.B.support()
    if b_hi < math.inf:
        raise PredictionRefused("B bounded above: gamma-like tail model unsatisfiable")
    p1 = A.atom_at(1.0)
    if p1 is None:
        raise PredictionRefused("P{A=1} not symbolically derivable")
    b = tail_of_B.b
    if p1 == 0.0:
        denom = 1.0
        trace.append("P{A=1} = 0, denominator 1")
    else:
        try:
            phi_b = joint.B.mgf(b, numeric_ok=False)
        except NoClosedForm:
            raise PredictionRefused("E e^{bB} has no closed form, denominator undecidable")
        if not joint.independent or not phi_b * p1 < 1.0:
            raise PredictionRefused("E e^{bB} 1{A=1} < 1 not established")
        denom = 1.0 - phi_b * p1
        trace.append(f"denominator 1 - E e^{{bB}}1{{A=1}} = {denom:.6g}")
    if flags.log_moment_B_minus_finite is not True:
        raise PredictionRefused("E log(1 + B^-) < inf not established")
    trace.append("E log(1+B^-) < inf")
    batch = sample_batch(joint, cfg)
    fx = f_function_vec(joint, b, batch.values)
    est, se = median_of_means(fx)
    const = est / denom
    trace.append(f"E f(X) by median-of-means over {batch.values.size} draws")
    K1 = _one_over_x_term(joint, tail_of_B, p1, const, batch.values, trace)
    if K1 is None:
        form = GammaLike(tail_of_B.a * const, tail_of_B.c, b)
    else:
        form = SmoothedTail(tail_of_B.a * const, tail_of_B.c, b, const, K1, joint.B.survival)
    return TailPrediction(form, const, "MonteCarlo", "Thm1", trace, std_err=se / denom)


def _one_over_x_term(joint: JointInput, tail_of_B: GammaLike, p1: float, K0: float,
                     x: np.ndarray, trace: list) -> Optional[float]:
    """K1 = -c E[AX e^{bAX}] + E e^{bB} g_A(1-) K0 / b, or None with the reason traced.

    g_A(1-) is the left limit of A's density at 1.  The first term comes
    from AX' << x, the second from AX' close to x; both expectations are
    finite exactly when c < -1.
    """
    def omit(reason):
        trace.append(f"1/x term omitted: {reason}")
        return None

    if not joint.independent:
        return omit("threshold-dependent joint")
    if p1 > 0.0:
        return omit("P{A=1} > 0")
    g = joint.A.density_left_limit(1.0)
    if g is None:
        return omit("density of A at 1- not derivable")
    if g == math.inf:
        return omit("density of A at 1- is infinite")
    tilted = tilted_moment_vec(joint, tail_of_B.b, x)
    if tilted is None:
        return omit("E[A y e^{bAy}] has no closed form for A")
    try:
        joint.B.survival(float(x[0]))
    except NoClosedForm:
        return omit("P{B > x} has no closed form")
    a, c, b = tail_of_B.a, tail_of_B.c, tail_of_B.b
    t_est, t_se = median_of_means(tilted)
    note = f"E[AX e^{{bAX}}] = {t_est:.6g} (se {t_se:.2g}), g_A(1-) = {g:.6g}"
    K1 = -c * t_est
    if g > 0.0:
        mgf = _mgf_at_tail_rate(joint.B, tail_of_B)
        if not mgf.converged:
            return omit(f"E e^{{bB}} quadrature did not converge ({mgf.subdivisions} panels)")
        K1 += mgf.value * g * K0 / b
        note += (f", E e^{{bB}} = {mgf.value:.6g} (err {mgf.abs_error_estimate:.2g}, "
                 f"{mgf.subdivisions} panels)")
    trace.append(f"1/x term K1 = {K1:.6g}: {note}")
    return K1


def _mgf_at_tail_rate(B: ScalarDistribution, tail_of_B: GammaLike) -> QuadResult:
    """E e^{bB} for P{B > x} ~ a x^c e^{-bx} with c < -1.

    E e^{bB} = e^{b lo} + b int_lo^M e^{by} S_B(y) dy + b a M^{c+1} / (-c-1),
    the last term being the tail model's remainder.  M doubles until two
    successive estimates agree to 1e-4 (relative); if S_B underflows first, or a panel
    integral fails, the result is flagged not converged.
    """
    a, c, b = tail_of_B.a, tail_of_B.c, tail_of_B.b
    lo, _ = B.support()
    if not math.isfinite(lo):
        return QuadResult(math.nan, math.inf, 0, False)
    f = _exp_tilted_survival(B.survival, b)
    total, err, panels = math.exp(b * lo), 0.0, 0
    left, M = lo, max(lo, 0.0) + 16.0 / b
    prev = None
    while f(M) > 0.0:
        res = integrate_finite(f, left, M, 1e-10)
        panels += res.subdivisions
        if not res.converged:
            break
        total += b * res.value
        err += b * res.abs_error_estimate
        est = total + b * a * M ** (c + 1.0) / (-c - 1.0)
        if prev is not None and abs(est - prev) <= 1e-4 * abs(est):
            return QuadResult(est, err + abs(est - prev), panels, True)
        prev, left, M = est, M, 2.0 * M
    return QuadResult(math.nan if prev is None else prev, math.inf, panels, False)


# ---------------------------------------------------------------------------
# K for A ~ Beta(lam, 1) and an exponential-plus-remainder B tail
# ---------------------------------------------------------------------------

def thm2_K(lam: float, tail: ExpPlusRemainder,
           left_tail: Optional[Callable] = None,
           left_decay_hint: Optional[float] = None,
           tol: float = 1e-10) -> TailPrediction:
    """Predicted tail K x^{lam C} e^{-bx}.

    `left_tail(y)` is P{B <= y} for y < 0 (omit for nonnegative B).  The
    left integral is evaluated in the reflected variable so both integrals
    share the semi-infinite routine.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    trace = []
    if not (tail.r_vanishes and tail.r_integrable):
        raise PredictionRefused("remainder flags r_vanishes/r_integrable not asserted")
    trace.append("remainder vanishing and integrability asserted")
    C, b = tail.C, tail.b

    def right_integrand(y):
        return expm1_over(b, y) * float(np.asarray(tail.r(y)))

    res_r = integrate_semi_infinite(right_integrand, 0.0, tol, max(tail.r_decay_margin, 1e-3))
    if not res_r.converged:
        raise PredictionRefused("remainder integral did not converge", quad=res_r)
    trace.append(f"remainder integral = {res_r.value:.12g} (err {res_r.abs_error_estimate:.2g})")

    if left_tail is not None:
        hint = left_decay_hint if left_decay_hint is not None else b

        def left_integrand(y):
            # -(e^{-by}-1)/y * P{B <= -y}, the y -> -y image of the original
            return -expm1_over(-b, y) * float(left_tail(-y))

        res_l = integrate_semi_infinite(left_integrand, 0.0, tol, hint)
        if not res_l.converged:
            raise PredictionRefused("left-tail integral did not converge", quad=res_l)
        trace.append(f"left-tail integral = {res_l.value:.12g} (err {res_l.abs_error_estimate:.2g})")
        left_val = res_l.value
    else:
        left_val = 0.0
        trace.append("no left tail (B >= 0)")

    K = (C * b ** (C * lam) / math.gamma(C * lam + 1.0)) * math.exp(lam * (res_r.value - left_val))
    form = GammaLike(K, lam * C, b)
    return TailPrediction(form, K, "Quadrature", "Thm2", trace)


# ---------------------------------------------------------------------------
# Characteristic function of X
# ---------------------------------------------------------------------------

def perpetuity_cf(joint: JointInput, t: float, tol: float = 1e-10) -> complex:
    """Psi(t) = Phi(t) exp(lam int_0^t (Phi(u)-1)/u du) for A ~ Beta(lam, 1)."""
    if not joint.independent:
        raise PredictionRefused("the CF representation needs independent (A, B)")
    lam = joint.A.beta_lam()
    if lam is None:
        raise PredictionRefused("the CF representation needs A ~ Beta(lam, 1)")
    B = joint.B
    if B.log1p_neg_moment_finite() is not True:
        raise PredictionRefused("E log(1 + B^-) < inf not established")
    if t == 0.0:
        return 1.0 + 0.0j
    if t < 0.0:
        return complex(np.conj(perpetuity_cf(joint, -t, tol)))
    try:
        mean_b = B.mean()
    except NoClosedForm:
        mean_b = None

    def g(u):
        if abs(u) < 1e-9:
            if mean_b is not None:
                return 1j * mean_b
            u = 1e-9
        return (B.charfn(u) - 1.0) / u

    res = integrate_finite(g, 0.0, t, tol)
    if not res.converged:
        raise PredictionRefused("CF exponent integral did not converge", quad=res)
    psi = B.charfn(t) * np.exp(lam * res.value)
    return complex(psi)
