"""Tail-asymptote constants and the perpetuity characteristic function.

Three routes to a predicted right tail of X:
  * constant-times-increment-tail with constant E psi(bA),
  * the smoothed-tail route with constant E f(X) / (1 - E e^{bB}1{A=1}),
    carried with the 1/x term of its own expansion,
    P{X > x} = P{B > x} (K0 + K1/x + o(1/x)),
  * the power-corrected route K x^{lam C} e^{-bx} for A ~ Beta(lam, 1).
Plus the transform of X, E e^{sX}: a product over the powers of a constant
coefficient, or for A ~ Beta(lam, 1) the compound-Poisson exponent
representation, closed in logs for a two-sided hyperexponential increment.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .criteria import FINITE, MomentVerdict, prop_main_part1
from .distributions import (
    ExpPlusRemainder,
    GammaLike,
    JointInput,
    NoClosedForm,
    ScalarDistribution,
    _exp_tilted_survival,
)
from .quadrature import QuadResult, expm1_over, integrate_finite, integrate_semi_infinite
from .simulate import SampleBatch, SimConfig, median_of_means, sample_batch, _chunk_rng, CHUNK

__all__ = [
    "TailPrediction",
    "PredictionRefused",
    "prop_main_constant",
    "f_function_vec",
    "tilted_moment_vec",
    "SmoothedTail",
    "thm1_constant",
    "thm2_inputs",
    "thm2_K",
    "perpetuity_mgf",
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
    # the perpetuity draws a Monte Carlo constant came from, for `tail --verify` to reuse
    batch: Optional[SampleBatch] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not (self.constant > 0 and math.isfinite(self.constant)):
            raise PredictionRefused(f"tail constant {self.constant!r} leaves double range (overflow or underflow)")

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

def prop_main_constant(joint: JointInput, b: float, cfg: SimConfig) -> TailPrediction:
    """Predicted tail E psi(bA) * P{B > x} for an independent pair, P{B > x} ~ C e^{-bx} read off `B.exp_tail()`.

    Requires a Finite verdict on E psi(bA).  For constant A = gamma the
    constant is psi(b gamma) = M_X(b gamma), `perpetuity_mgf`'s product;
    otherwise it is a median-of-means average of e^{b a_i x_i} with fresh
    A-draws a_i independent of the perpetuity draws x_i.
    """
    verdict = prop_main_part1(joint, b)
    if verdict.verdict != FINITE:
        raise PredictionRefused(f"E psi(bA) not established finite: {verdict.verdict}", verdict=verdict)
    trace = [f"E psi(bA) finite via {verdict.theorem_used}"]
    tail = joint.B.exp_tail()
    if tail is None:
        raise PredictionRefused("no tail model supplied and none derivable for B")
    if tail.b != b:
        raise PredictionRefused(f"B's exponential tail has rate {tail.b:g}, not b = {b:g}")
    trace.append("tail model of B derived from its law")
    if (gamma := _constant_coefficient(joint.A)) is not None:
        const, se, source, batch = perpetuity_mgf(joint, b * gamma).real, None, "ClosedForm", None
        trace.append("constant by convergent MGF product")
    else:
        batch = sample_batch(joint, cfg)
        rng = _chunk_rng(cfg.master_seed, batch.values.size // CHUNK + 101)
        a = joint.A.sample(rng, batch.values.size)
        w = np.exp(np.minimum(b * a * batch.values, 700.0))
        const, se = median_of_means(w)
        source = "MonteCarlo"
        trace.append(f"constant by median-of-means over {batch.values.size} draws")
    form = GammaLike(tail.C * const, 0.0, b)
    return TailPrediction(form, const, source, "PropMainII", trace, std_err=se, batch=batch)


def _constant_coefficient(A: ScalarDistribution) -> Optional[float]:
    """gamma when A = gamma a.s. with 0 < gamma < 1, read off a one-atom `atoms()`; else None."""
    atoms = list(A.atoms() or ())
    return atoms[0] if len(atoms) == 1 and 0.0 < atoms[0] < 1.0 else None


# ---------------------------------------------------------------------------
# Smoothing function f
# ---------------------------------------------------------------------------

def f_function_vec(joint: JointInput, b: float, y: np.ndarray) -> np.ndarray:
    """The tail-smoothing factor lim P{Ay + B > x} / P{B > x} = E e^{bAy}, at each point of y."""
    ya = np.asarray(y, dtype=float)
    if not joint.independent:
        return np.exp(b * ya * joint.dependence.zeta1)
    return joint.A.mgf(b * ya)


def tilted_moment_vec(joint: JointInput, b: float, y: np.ndarray) -> Optional[np.ndarray]:
    """E_A[A y e^{bAy}], the companion of f_function_vec in the 1/x term; None where A's law has no closed form."""
    ya = np.asarray(y, dtype=float)
    tilted = joint.A.tilted_mgf(b * ya)
    return None if tilted is None else ya * tilted


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
    A = joint.A_marginal()
    _, a_hi = A.support()
    trace = []
    if not (A.positive() is True and a_hi <= 1.0):
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
    if joint.B.log1p_neg_moment_finite() is not True:
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
    return TailPrediction(form, const, "MonteCarlo", "Thm1", trace, std_err=se / denom, batch=batch)


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

def thm2_inputs(joint: JointInput) -> tuple[float, ExpPlusRemainder, Optional[Callable], Optional[float]]:
    """(lam, tail, left_tail, left_decay_hint) for thm2_K, asked of the tree; refused, naming the first missing one.

    For B >= 0 there is no left tail, (None, None).  Otherwise left_tail is `B.prob_below`, and the hint B's left
    decay rate, -(lower end of `mgf_domain()`), where that is finite and positive, else 1.
    """
    lam = joint.A.beta_lam() if joint.independent else None
    if lam is None:
        raise PredictionRefused("A is not a Beta(lam, 1) law")
    B = joint.B
    tail = B.exp_tail()
    if tail is None:
        raise PredictionRefused("no exponential-plus-remainder model for B")
    if B.support()[0] >= 0.0:
        return (lam, tail, None, None)
    rate = -B.mgf_domain()[0]
    return (lam, tail, B.prob_below, rate if 0.0 < rate < math.inf else 1.0)


def thm2_K(lam: float, tail: ExpPlusRemainder,
           left_tail: Optional[Callable] = None,
           left_decay_hint: Optional[float] = None,
           tol: float = 1e-10) -> TailPrediction:
    """Predicted tail K x^{lam C} e^{-bx}, K = (C b^{C lam} / Gamma(C lam + 1)) exp(lam (right - left)).

    right = int_0^inf (e^{by} - 1)/y r(y) dy, left = int_0^inf (1 - e^{-by})/y P{B < -y} dy.  Each is a
    Frullani sum where `tail` states it as an exponential sum (`r_terms`: sum c log(beta/(beta - b));
    `left_terms`: sum d log(1 + b/l)), else a quadrature: `left_tail` is y -> P{B < y} for y < 0 (omit for
    nonnegative B; an atom does not change the integral), taken in the reflected variable so both integrals
    share the semi-infinite routine, and `tail.r` and `left_tail` are called on 1-d arrays of nodes, one call
    per bisection.  An integrand that raises NoClosedForm refuses, naming its integral.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    trace = []
    if not (tail.r_vanishes and tail.r_integrable):
        raise PredictionRefused("remainder flags r_vanishes/r_integrable not asserted")
    trace.append("remainder vanishing and integrability asserted")
    C, b = tail.C, tail.b
    source = "ClosedForm"

    def integral(name, terms, log_factor, integrand, hint):
        nonlocal source
        if terms is not None:
            value = sum(c * log_factor(rate) for c, rate in terms)
            trace.append(f"{name} integral by Frullani sum = {value:.12g}")
            return value
        try:
            res = integrate_semi_infinite(integrand, 0.0, tol, hint, vectorized=True)
        except NoClosedForm as err:
            raise PredictionRefused(f"{name} integrand has no closed form: {err}") from err
        if not res.converged:
            raise PredictionRefused(f"{name} integral did not converge", quad=res)
        trace.append(f"{name} integral = {res.value:.12g} (err {res.abs_error_estimate:.2g})")
        source = "Quadrature"
        return res.value

    right = integral("remainder", tail.r_terms, lambda beta: math.log(beta / (beta - b)),
                     lambda y: expm1_over(b, y) * np.asarray(tail.r(y), dtype=float),
                     max(tail.r_decay_margin, 1e-3))
    if left_tail is not None:
        # -(e^{-by}-1)/y * P{B < -y}, the y -> -y image of the original
        left = integral("left-tail", tail.left_terms, lambda l: math.log1p(b / l),
                        lambda y: -expm1_over(-b, y) * np.asarray(left_tail(-y), dtype=float),
                        left_decay_hint if left_decay_hint is not None else b)
    else:
        left = 0.0
        trace.append("no left tail (B >= 0)")

    try:
        K = (C * b ** (C * lam) / math.gamma(C * lam + 1.0)) * math.exp(lam * (right - left))
    except OverflowError as err:
        raise PredictionRefused(f"K overflows double range: {err}") from err
    form = GammaLike(K, lam * C, b)
    return TailPrediction(form, K, source, "Thm2", trace)


# ---------------------------------------------------------------------------
# The transform of X: E e^{sX} and the characteristic function
# ---------------------------------------------------------------------------

def perpetuity_mgf(joint: JointInput, s):
    """M_X(s) = E e^{sX} for constant A = gamma in (0, 1) or A ~ Beta(lam, 1), at a complex s or each s of an array.

    Constant A: prod_{k >= 0} M_B(s gamma^k) (`_mgf_product`).  Beta(lam, 1): M_B(s) exp(lam int_0^s (M_B(u) - 1)/u du),
    closed in logs for a two-sided hyperexponential B (`_mgf_closed`), else a quadrature (`_mgf_by_quadrature`).  The
    joint's facts are read once per call; each s of an array has a scalar s's bits, and a scalar s gives a complex.
    """
    if not joint.independent:
        raise PredictionRefused("the transform of X needs independent (A, B)")
    B = joint.B
    gamma = _constant_coefficient(joint.A)
    lam = None if gamma is not None else joint.A.beta_lam()
    if gamma is None and lam is None:
        raise PredictionRefused("the transform of X needs A ~ Beta(lam, 1) or a constant A in (0, 1)")
    if B.log1p_neg_moment_finite() is not True:
        raise PredictionRefused("E log(1 + B^-) < inf not established")
    if gamma is not None:
        try:
            at_zero = B.mgf(0.0, numeric_ok=False)
        except NoClosedForm as err:
            raise PredictionRefused(f"the product form needs B's MGF in closed form: {err}") from err
        value_at = lambda v: _mgf_product(B, gamma, at_zero, v)
    elif (weights := B.exp_weights()) is not None:
        value_at = lambda v: _mgf_closed(weights, lam, v)
    else:
        value_at = lambda v: _mgf_by_quadrature(B, lam, v, 1e-10)
    sa = np.asarray(s)
    vals = [1.0 + 0.0j if v == 0 else value_at(v) for v in sa.ravel().tolist()]
    return vals[0] if sa.ndim == 0 else np.array(vals, dtype=complex).reshape(sa.shape)


def _mgf_product(B: ScalarDistribution, gamma: float, at_zero: float, s) -> complex:
    """prod_{k >= 0} M_B(s gamma^k), or +inf once the product is not finite.  B's MGF is asked at the running products
    s gamma^k (the bits of repeated `s *= gamma`), one array call per block of doubling size, up to the first factor
    within 1e-16 of M_B(0): that is 1 up to the rounding of B's weights, and every factor once s gamma^k is 0."""
    prod, size = 1.0, 64
    while True:
        ss = np.cumprod(np.concatenate(([s], np.full(size - 1, gamma))))
        for factor in B.mgf(ss, numeric_ok=False).tolist():
            prod *= factor
            if not cmath.isfinite(prod):
                return complex(math.inf)
            if abs(factor - at_zero) < 1e-16:
                return complex(prod)
        s, size = ss[-1] * gamma, min(2 * size, 1 << 16)  # the cap bounds a block's memory, not the count


def _mgf_closed(weights, lam: float, s) -> complex:
    """M_B(s) prod (1 - s/r_i)^{-lam alpha_i} prod (1 + s/l_j)^{-lam beta_j} from B's `exp_weights()`, that is
    X = B + sum Gamma(lam alpha_i, r_i) - sum Gamma(lam beta_j, l_j); +inf off the strip -min l_j < Re s < min r_i."""
    right, left = weights
    if not -min((l for _, l in left), default=math.inf) < s.real < min(r for _, r in right):
        return complex(math.inf)
    mgf_B = sum(a * r / (r - s) for a, r in right) + sum(a * l / (l + s) for a, l in left)
    log = sum(a * cmath.log(1.0 - s / r) for a, r in right) + sum(a * cmath.log(1.0 + s / l) for a, l in left)
    return mgf_B * cmath.exp(-lam * log)


def _mgf_by_quadrature(B: ScalarDistribution, lam: float, s: complex, tol: float) -> complex:
    """M_B(s) exp(lam int_0^s (M_B(u) - 1)/u du), the exponent integrated along the segment u = tau s, 0 < tau < 1.

    The quadrature asks B's MGF for each bisection's nodes in one array call.
    """
    try:
        mean_b = B.mean()
    except NoClosedForm:
        mean_b = None

    def g(tau):
        # (M_B(tau s) - 1)/tau -> s E B as tau -> 0; without the mean, M_B is read at tau = 1e-9
        small = tau < 1e-9
        tau = np.where(small, 1e-9, tau)
        out = (B.mgf(tau * s) - 1.0) / tau
        return out if mean_b is None else np.where(small, s * mean_b, out)

    res = integrate_finite(g, 0.0, 1.0, tol, vectorized=True)
    if not res.converged:
        raise PredictionRefused("CF exponent integral did not converge", quad=res)
    return complex(B.mgf(s) * np.exp(lam * res.value))


def perpetuity_cf(joint: JointInput, t):
    """Psi(t) = E e^{itX}, the MGF of X on the imaginary axis, at a scalar t or each t of an array."""
    return perpetuity_mgf(joint, 1j * t)
