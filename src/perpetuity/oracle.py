"""Registry of closed-form reference cases.

Five input pairs whose perpetuity law is known exactly.  Tests and the
validate command treat these survival functions as ground truth for the
simulation engine and the asymptote constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .distributions import (
    Beta,
    Difference,
    ExpPlusRemainder,
    Exponential,
    GammaLike,
    Gamma,
    JointInput,
    Mixture,
    Negated,
    PointMass,
)
from .quadrature import integrate_finite
from .simulate import SimConfig, sample_batch

__all__ = [
    "ReferenceCase",
    "OracleReport",
    "list_cases",
    "get_case",
    "reference_survival",
    "compare_empirical",
    "survival_from_cf",
]


# -- exact-law tags ---------------------------------------------------------

@dataclass(frozen=True)
class GammaLaw:
    shape: float
    rate: float


@dataclass(frozen=True)
class DifferenceOfGammas:
    shape1: float
    rate1: float
    shape2: float
    rate2: float


@dataclass(frozen=True)
class ShiftedNegLogBeta:
    """-log Y + B with Y ~ Beta(b, lam) independent of the case's B."""

    b: float
    lam: float


@dataclass(frozen=True)
class ExplicitSurvival:
    handle: Callable
    label: str = "explicit"
    cheap: bool = True  # cheap handles are evaluated per sample; others on a grid


@dataclass(frozen=True)
class ReferenceCase:
    id: str
    joint: JointInput
    exact_X_law: object
    asymptote: GammaLike          # closed-form predicted P{X>x} coefficient
    predict: Callable             # () -> TailPrediction through the asymptotics module
    label: str = ""


# ---------------------------------------------------------------------------
# Case construction
# ---------------------------------------------------------------------------

def _case_E1() -> ReferenceCase:
    c, b = 2.0, 1.0
    joint = JointInput(Beta(c, 1.0), Exponential(b))

    def predict():
        from .asymptotics import thm2_K

        return thm2_K(c, ExpPlusRemainder(C=1.0, b=b))

    return ReferenceCase(
        id="E1",
        joint=joint,
        exact_X_law=GammaLaw(c + 1.0, b),
        asymptote=GammaLike(b ** c / math.gamma(c + 1.0), c, b),
        predict=predict,
        label="gamma identity for a beta coefficient and exponential increment",
    )


def _case_E2() -> ReferenceCase:
    gamma_, a, b = 0.5, 1.0, 2.0
    B = Mixture((
        (gamma_ ** 2, PointMass(0.0)),
        (gamma_ * (1 - gamma_), Exponential(a)),
        (gamma_ * (1 - gamma_), Negated(Exponential(b))),
        ((1 - gamma_) ** 2, Difference(Exponential(a), Exponential(b))),
    ))
    joint = JointInput(PointMass(gamma_), B)

    def surv(x):
        xa = np.asarray(x, dtype=float)
        pos = (b / (a + b)) * np.exp(-a * np.maximum(xa, 0.0))
        neg = 1.0 - (a / (a + b)) * np.exp(b * np.minimum(xa, 0.0))
        out = np.where(xa > 0, pos, neg)
        return out if xa.ndim else float(out)

    def predict():
        from .asymptotics import prop_main_constant

        cfg = SimConfig(n_samples=1, master_seed=0)
        return prop_main_constant(joint, a, cfg)

    return ReferenceCase(
        id="E2-const-A",
        joint=joint,
        exact_X_law=ExplicitSurvival(surv, "two-sided exponential difference"),
        asymptote=GammaLike(b / (a + b), 0.0, a),
        predict=predict,
        label="constant coefficient, increment a four-part exponential mixture",
    )


def _case_E3() -> ReferenceCase:
    lam, a, b = 1.0, 1.0, 1.0
    joint = JointInput(Beta(lam, 1.0), Difference(Exponential(b), Exponential(a)))
    shape = a * lam / (a + b) + 1.0

    def predict():
        from .asymptotics import thm2_K

        return thm2_K(
            lam,
            ExpPlusRemainder(C=a / (a + b), b=b),
            left_tail=lambda y: (b / (a + b)) * np.exp(a * np.asarray(y, dtype=float)),
            left_decay_hint=a,
        )

    K = (a / (a + b)) ** (b * lam / (a + b) + 1.0) * b ** (a * lam / (a + b)) / math.gamma(shape)
    return ReferenceCase(
        id="E3-gamma-diff",
        joint=joint,
        exact_X_law=DifferenceOfGammas(shape, b, b * lam / (a + b) + 1.0, a),
        asymptote=GammaLike(K, a * lam / (a + b), b),
        predict=predict,
        label="difference of two gamma laws",
    )


def _e4_params():
    p, b, c, lam = 0.5, 1.0, 2.0, 1.0
    c1 = p * p + 2 * p * (1 - p) * c / (b + c)
    c2 = (1 - p) ** 2 + 2 * p * (1 - p) * b / (b + c)
    return p, b, c, lam, c1, c2


def _case_E4() -> ReferenceCase:
    p, b, c, lam, c1, c2 = _e4_params()
    M = Mixture(((p, Exponential(b)), (1 - p, Exponential(c))))
    joint = JointInput(Beta(lam, 1.0), Difference(M, M))

    def psi(t):
        t2 = np.asarray(t, dtype=float) ** 2
        fb = b * b / (b * b + t2)
        fc = c * c / (c * c + t2)
        return (c1 * fb + c2 * fc) * fb ** (c1 * lam / 2) * fc ** (c2 * lam / 2)

    def surv(x):
        return survival_from_cf(psi, x, T=400.0, panel_width=0.08)

    def predict():
        from .asymptotics import thm2_K

        return thm2_K(
            lam,
            ExpPlusRemainder(
                C=c1 / 2,
                b=b,
                r=lambda y: (c2 / 2) * np.exp(-c * np.asarray(y, dtype=float)),
                r_decay_margin=c - b,
            ),
            left_tail=lambda y: 0.5 * (c1 * np.exp(b * np.asarray(y, dtype=float))
                                       + c2 * np.exp(c * np.asarray(y, dtype=float))),
            left_decay_hint=b,
        )

    K = (c1 / 2) * 0.5 ** (c1 * lam / 2) * (c * c / (c * c - b * b)) ** (c2 * lam / 2) \
        * b ** (lam * c1 / 2) / math.gamma(c1 * lam / 2 + 1.0)
    return ReferenceCase(
        id="E4-mixture",
        joint=joint,
        exact_X_law=ExplicitSurvival(surv, "symmetric six-fold convolution", cheap=False),
        asymptote=GammaLike(K, c1 * lam / 2, b),
        predict=predict,
        label="two-sided increment from a two-rate exponential mixture",
    )


def _case_E5() -> ReferenceCase:
    b, lam = 1.0, 2.0
    # survival e^{-bx}(1 - e^{-lam x}) / (lam (1 - e^{-x})) collapses to a
    # two-rate exponential mixture at these parameters
    B = Mixture(((0.5, Exponential(1.0)), (0.5, Exponential(2.0))))
    joint = JointInput(Beta(lam, 1.0), B)

    def predict():
        from .asymptotics import thm2_K

        return thm2_K(
            lam,
            ExpPlusRemainder(
                C=1.0 / lam,
                b=b,
                r=lambda y: 0.5 * np.exp(-2.0 * np.asarray(y, dtype=float)),
                r_decay_margin=1.0,
            ),
        )

    K = 1.0 / (lam * math.exp(math.lgamma(b) + math.lgamma(lam) - math.lgamma(b + lam)))
    return ReferenceCase(
        id="E5-neglog",
        joint=joint,
        exact_X_law=ShiftedNegLogBeta(b, lam),
        asymptote=GammaLike(K, 1.0, b),
        predict=predict,
        label="negative log of a beta variable plus the increment",
    )


def list_cases() -> list[ReferenceCase]:
    return [_case_E1(), _case_E2(), _case_E3(), _case_E4(), _case_E5()]


def get_case(case_id: str) -> ReferenceCase:
    """The case with this id, full ("E3-gamma-diff") or short ("E3")."""
    for c in list_cases():
        if case_id in (c.id, c.id.split("-")[0]):
            return c
    raise KeyError(f"unknown reference case: {case_id}")


# ---------------------------------------------------------------------------
# Exact survival evaluation
# ---------------------------------------------------------------------------

def survival_from_cf(psi: Callable, x, T: float, panel_width: float):
    """P{X > x} = 1/2 + (1/pi) int_0^inf Im(e^{-itx} Psi(t))/t dt.

    Composite fixed-panel Kronrod rule on (0, T); psi must be vectorized.
    Panels are shared across all x values so the t-grid cost is paid once.
    """
    from .quadrature import _NODES, _WEIGHTS_K

    n_panels = max(int(math.ceil(T / panel_width)), 8)
    edges = np.linspace(0.0, T, n_panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    ts = (mids[:, None] + half * _NODES[None, :]).ravel()
    ws = np.broadcast_to(half * _WEIGHTS_K[None, :], (n_panels, 15)).ravel()
    pv = np.asarray(psi(ts))
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty(xa.size)
    # chunk over x to bound the outer-product working set
    for i0 in range(0, xa.size, 64):
        xs = xa[i0:i0 + 64, None]
        integrand = np.imag(np.exp(-1j * ts[None, :] * xs) * pv[None, :]) / ts[None, :]
        out[i0:i0 + 64] = 0.5 + (integrand * ws[None, :]).sum(axis=1) / math.pi
    out = np.clip(out, 0.0, 1.0)
    return out if np.asarray(x).ndim else float(out[0])


def reference_survival(case: ReferenceCase, x, tol: float = 1e-10):
    """Exact P{X > x} for a registry case; vectorized over x."""
    law = case.exact_X_law
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if isinstance(law, GammaLaw):
        out = np.asarray(Gamma(law.shape, law.rate).survival(xa))
    elif isinstance(law, ExplicitSurvival):
        out = np.asarray(law.handle(xa))
    elif isinstance(law, DifferenceOfGammas):
        d = Difference(Gamma(law.shape1, law.rate1), Gamma(law.shape2, law.rate2))
        out = np.array([float(np.asarray(d.survival(float(v), tol=tol))) for v in xa])
    elif isinstance(law, ShiftedNegLogBeta):
        out = np.array([_neglog_conv_survival(case.joint.B, law, float(v), tol) for v in xa])
    else:
        raise TypeError(f"unsupported exact law: {law!r}")
    return out if np.asarray(x).ndim else float(out[0])


def _neglog_conv_survival(B, law: ShiftedNegLogBeta, x: float, tol: float) -> float:
    """P{-log Y + B > x} by conditioning on Y ~ Beta(b, lam)."""
    Y = Beta(law.b, law.lam)
    lo = math.exp(-max(x, 0.0))
    # below y = e^{-x} the increment's survival argument is negative, so 1
    head = 1.0 - float(np.asarray(Y.survival(lo))) if x > 0 else 0.0
    if x <= 0:
        return 1.0 if float(np.asarray(B.survival(0.0))) >= 1.0 - 1e-15 else \
            head + integrate_finite(
                lambda y: float(np.asarray(B.survival(x + math.log(y)))) * float(np.asarray(Y.pdf(y))),
                1e-12, 1.0, tol).value
    if lo >= 1.0:
        return 1.0
    res = integrate_finite(
        lambda y: float(np.asarray(B.survival(x + math.log(y)))) * float(np.asarray(Y.pdf(y))),
        lo, 1.0, tol)
    return head + res.value


# ---------------------------------------------------------------------------
# Empirical comparison
# ---------------------------------------------------------------------------

@dataclass
class OracleReport:
    case_id: str
    n: int
    ks: float
    ks_threshold: float
    tail_rows: list = field(default_factory=list)  # (x, p_hat, std_err, reference, ratio, checked)
    passed: bool = False
    low_N: bool = False
    truncation: dict = field(default_factory=dict)

    def as_dict(self):
        return {
            "case_id": self.case_id,
            "n": self.n,
            "ks": self.ks,
            "ks_threshold": self.ks_threshold,
            "tail_rows": [
                {"x": x, "p_hat": p, "std_err": se, "reference": ref, "ratio": ratio, "checked": ch}
                for (x, p, se, ref, ratio, ch) in self.tail_rows
            ],
            "passed": self.passed,
            "low_N": self.low_N,
            "truncation": self.truncation,
        }

    def table(self) -> str:
        lines = [
            f"case {self.case_id}: n={self.n} KS={self.ks:.3e} (threshold {self.ks_threshold:.3e})"
            + ("  [low N]" if self.low_N else ""),
            f"{'x':>10} {'p_hat':>12} {'std_err':>10} {'reference':>12} {'ratio':>8}",
        ]
        for x, p, se, ref, ratio, ch in self.tail_rows:
            mark = "" if ch else "  (unchecked: p_hat < 1e-4)"
            lines.append(f"{x:>10.4f} {p:>12.5e} {se:>10.2e} {ref:>12.5e} {ratio:>8.4f}{mark}")
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)


def _reference_cdf_at(case: ReferenceCase, sorted_vals: np.ndarray) -> np.ndarray:
    law = case.exact_X_law
    if isinstance(law, GammaLaw) or (isinstance(law, ExplicitSurvival) and law.cheap):
        return 1.0 - np.asarray(reference_survival(case, sorted_vals))
    # convolution laws: dense grid + monotone interpolation
    lo = float(sorted_vals[0]) - 0.5
    hi = float(sorted_vals[-1]) + 0.5
    grid = np.linspace(lo, hi, 512)
    sv = np.asarray(reference_survival(case, grid, tol=1e-9))
    cdf = np.maximum.accumulate(np.clip(1.0 - sv, 0.0, 1.0))
    return np.interp(sorted_vals, grid, cdf)


def compare_empirical(case: ReferenceCase, cfg: SimConfig) -> OracleReport:
    """Simulate the case and score KS distance plus five tail ratios."""
    batch = sample_batch(case.joint, cfg)
    n = batch.values.size
    sorted_vals = np.sort(batch.values)
    ref_cdf = _reference_cdf_at(case, sorted_vals)
    i = np.arange(1, n + 1)
    ks = float(np.max(np.maximum(np.abs(i / n - ref_cdf), np.abs((i - 1) / n - ref_cdf))))
    ks_threshold = 4.0 / math.sqrt(n)

    rows = []
    all_ok = True
    for p_anchor in (1e-2, 3e-3, 1e-3, 3e-4, 1e-4):
        x = float(np.quantile(sorted_vals, 1.0 - p_anchor))
        p_hat = float(1.0 - np.searchsorted(sorted_vals, x, side="right") / n)
        se = math.sqrt(max(p_hat * (1 - p_hat), 0.0) / n)
        ref = float(np.asarray(reference_survival(case, x)))
        ratio = p_hat / ref if ref > 0 else math.inf
        checked = p_hat >= 1e-4
        if checked and not (0.9 <= ratio <= 1.1):
            all_ok = False
        rows.append((x, p_hat, se, ref, ratio, checked))

    report = OracleReport(
        case_id=case.id,
        n=n,
        ks=ks,
        ks_threshold=ks_threshold,
        tail_rows=rows,
        passed=bool(ks < ks_threshold and all_ok),
        low_N=n < 10_000,
        truncation=batch.truncation_report,
    )
    return report
