"""Registry of closed-form reference cases.

Five input pairs whose perpetuity law is known exactly.  A case states
its joint, its exact law and the closed-form asymptote of P{X > x};
`predict()` asks the tree for the tail inputs and hands them to the
asymptotics module, so the closed forms stay independent references.
Tests and the validate command treat these survival functions as ground
truth for the simulation engine and the asymptote constants.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np
# the functions scipy.stats.binom.ppf and .isf evaluate; importing scipy.stats costs 0.5 s and 44 MB
from scipy.special._ufuncs import _binom_isf, _binom_ppf

from . import asymptotics
from .asymptotics import DRAW_BLOCK, _by_blocks
from .distributions import (
    Beta,
    Difference,
    Exponential,
    GammaLike,
    Gamma,
    JointInput,
    Mixture,
    Negated,
    NoClosedForm,
    PointMass,
    ScalarDistribution,
)
from .quadrature import QuadResult, integrate_batch, refuse_unconverged
from .simulate import TAIL_LEVELS, SimConfig, _tail_of_sorted, sample_batch

__all__ = [
    "ReferenceCase",
    "OracleReport",
    "list_cases",
    "get_case",
    "reference_survival",
    "compare_empirical",
    "survival_from_transform",
    "ReferenceNotConverged",
]


# -- exact-law tags ---------------------------------------------------------

@dataclass(frozen=True)
class DifferenceOfGammas:
    """Gamma(shape1, rate1) - Gamma(shape2, rate2), independent; its survival is the tree's `Difference`."""

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
class ClosedTransform:
    """The law whose E e^{sX} is mgf(s), for complex arrays s: analytic off the cuts [right, inf) and
    (-inf, -left], and decaying to 0 as |s| grows along them; an infinite end has no cut."""

    mgf: Callable
    right: float
    left: float


@dataclass(frozen=True)
class ReferenceCase:
    id: str
    joint: JointInput
    exact_X_law: object
    asymptote: GammaLike          # closed-form predicted P{X>x} coefficient

    def predict(self) -> asymptotics.TailPrediction:
        """The asymptotics module's prediction from the tree's tail inputs: thm2_K for A ~ Beta(lam, 1), else E psi(bA)."""
        if self.joint.A.beta_lam() is not None:
            return asymptotics.thm2_K(*asymptotics.thm2_inputs(self.joint))
        b = self.joint.B.mgf_domain()[1]
        return asymptotics.prop_main_constant(self.joint, b, SimConfig(n_samples=1, master_seed=0))


# ---------------------------------------------------------------------------
# Case construction
# ---------------------------------------------------------------------------

def _case_E1() -> ReferenceCase:
    """Gamma identity for a beta coefficient and exponential increment."""
    c, b = 2.0, 1.0
    return ReferenceCase(
        id="E1",
        joint=JointInput(Beta(c, 1.0), Exponential(b)),
        exact_X_law=Gamma(c + 1.0, b),
        asymptote=GammaLike(b ** c / math.gamma(c + 1.0), c, b),
    )


def _case_E2() -> ReferenceCase:
    """Constant coefficient, increment a four-part exponential mixture."""
    gamma_, a, b = 0.5, 1.0, 2.0
    B = Mixture((
        (gamma_ ** 2, PointMass(0.0)),
        (gamma_ * (1 - gamma_), Exponential(a)),
        (gamma_ * (1 - gamma_), Negated(Exponential(b))),
        ((1 - gamma_) ** 2, Difference(Exponential(a), Exponential(b))),
    ))
    return ReferenceCase(
        id="E2-const-A",
        joint=JointInput(PointMass(gamma_), B),
        exact_X_law=Difference(Exponential(a), Exponential(b)),
        asymptote=GammaLike(b / (a + b), 0.0, a),
    )


def _case_E3() -> ReferenceCase:
    """Difference of two gamma laws."""
    lam, a, b = 1.0, 1.0, 1.0
    shape = a * lam / (a + b) + 1.0
    K = (a / (a + b)) ** (b * lam / (a + b) + 1.0) * b ** (a * lam / (a + b)) / math.gamma(shape)
    return ReferenceCase(
        id="E3-gamma-diff",
        joint=JointInput(Beta(lam, 1.0), Difference(Exponential(b), Exponential(a))),
        exact_X_law=DifferenceOfGammas(shape, b, b * lam / (a + b) + 1.0, a),
        asymptote=GammaLike(K, a * lam / (a + b), b),
    )


def _case_E4() -> ReferenceCase:
    """Two-sided increment from a two-rate exponential mixture."""
    p, b, c, lam = 0.5, 1.0, 2.0, 1.0
    c1 = p * p + 2 * p * (1 - p) * c / (b + c)
    c2 = (1 - p) ** 2 + 2 * p * (1 - p) * b / (b + c)
    M = Mixture(((p, Exponential(b)), (1 - p, Exponential(c))))

    def mgf(s):
        # the six-fold convolution of the symmetric increments; principal powers, analytic off |s| >= b
        fb, fc = b * b / (b * b - s * s), c * c / (c * c - s * s)
        return (c1 * fb + c2 * fc) * fb ** (c1 * lam / 2) * fc ** (c2 * lam / 2)

    K = (c1 / 2) * 0.5 ** (c1 * lam / 2) * (c * c / (c * c - b * b)) ** (c2 * lam / 2) \
        * b ** (lam * c1 / 2) / math.gamma(c1 * lam / 2 + 1.0)
    return ReferenceCase(
        id="E4-mixture",
        joint=JointInput(Beta(lam, 1.0), Difference(M, M)),
        exact_X_law=ClosedTransform(mgf, b, b),
        asymptote=GammaLike(K, c1 * lam / 2, b),
    )


def _case_E5() -> ReferenceCase:
    """Negative log of a beta variable plus the increment."""
    b, lam = 1.0, 2.0
    # survival e^{-bx}(1 - e^{-lam x}) / (lam (1 - e^{-x})) collapses to a
    # two-rate exponential mixture at these parameters
    B = Mixture(((0.5, Exponential(1.0)), (0.5, Exponential(2.0))))
    K = 1.0 / (lam * math.exp(math.lgamma(b) + math.lgamma(lam) - math.lgamma(b + lam)))
    return ReferenceCase(
        id="E5-neglog",
        joint=JointInput(Beta(lam, 1.0), B),
        exact_X_law=ShiftedNegLogBeta(b, lam),
        asymptote=GammaLike(K, 1.0, b),
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

class ReferenceNotConverged(RuntimeError):
    """An exact reference survival whose quadrature missed its tolerance at some x."""


# Trapezoid step in u along the parabola; nodes per x in the first round and at most; x values inverted at once
_STEP, _FIRST_NODES, _MAX_NODES, _X_BLOCK = 0.04, 128, 1 << 15, 32


def survival_from_transform(law: ClosedTransform, x, tol: float):
    """P{X > x} from E e^{sX} by a contour inversion, each x to relative tolerance tol.

    For x >= 0, P{X > x} = (1/pi) int_0^inf Im[e^{-sx} M(s) s'(u)/s] du on s(u) = c + mu (u^2 + iu),
    c = right (1 - 1/(2 + x)), mu = 2 (right - c): the Bromwich line bent around the cut [right, inf)
    (Weideman & Trefethen, Math. Comp. 76 (2007)), where the integrand decays like e^{-mu u^2 x} without
    oscillating and a trapezoid sum converges geometrically.  For x < 0 the sum on M(-s) gives P{X < x}.
    The error is the gap to the sum with twice the step on the same nodes, plus the last node's term
    times the node count; ReferenceNotConverged names the x values where it exceeds tol.  The x values
    are inverted _X_BLOCK = 32 at a time, each with its own rounds, so a round's (x by node) complex
    arrays hold at most 32 rows whatever the grid, and each x's bits are those of a one-point call.
    """
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    flip, ax = xa < 0, np.abs(xa)
    end = np.where(flip, law.left, law.right)
    end = np.where(np.isfinite(end), end, min(law.right, law.left))  # no cut on a side: the other end sets the scale
    c, mu = end * (1.0 - 1.0 / (2.0 + ax)), 2.0 * end / (2.0 + ax)
    total, coarse, tail = np.zeros((3, xa.size))
    nodes = 0
    for start in range(0, xa.size, _X_BLOCK):
        live, k0, size = np.arange(start, min(start + _X_BLOCK, xa.size)), 0, _FIRST_NODES
        while live.size and k0 < _MAX_NODES:
            k = np.arange(k0, k0 + size)
            u = _STEP * k
            ml = mu[live, None]
            s = c[live, None] + ml * (u * u + 1j * u)
            g = np.exp(-s * ax[live, None]) * law.mgf(np.where(flip[live, None], -s, s)) * (ml * (2.0 * u + 1j)) / s
            g[:, k == 0] *= 0.5
            total[live] += g.imag.sum(axis=1)
            coarse[live] += g.imag[:, k % 2 == 0].sum(axis=1)
            k0 += size
            tail[live] = k0 * np.abs(g[:, -1])
            ref = np.abs(np.where(flip[live], math.pi / _STEP - total[live], total[live]))  # the answer, in sum units
            live = live[tail[live] > 0.1 * tol * ref]
            size = min(k0, _MAX_NODES - k0)
        nodes = max(nodes, k0)
    value = np.where(flip, 1.0 - _STEP * total / math.pi, _STEP * total / math.pi)
    err = _STEP * (np.abs(total - 2.0 * coarse) + tail) / math.pi
    refuse_unconverged(QuadResult(value, err, nodes, err <= tol * value), xa, ReferenceNotConverged, "reference survival")
    return value if np.asarray(x).ndim else float(value[0])


def reference_survival(case: ReferenceCase, x, tol: float = 1e-10):
    """Exact P{X > x} for a registry case; vectorized over x.

    A law on the distribution tree (E1, E2) answers through its own
    survival.  E3 and E5 integrate all x in one quadrature batch, each to
    tol relative to a bound on the value, and E4 inverts its transform to
    tol relative to the value, so the far tail keeps its digits.  Raises
    ReferenceNotConverged, naming the x values, if any integral misses
    its tolerance.
    """
    law = case.exact_X_law
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if isinstance(law, ScalarDistribution):
        out = np.asarray(_by_blocks(law.survival, xa))
    elif isinstance(law, ClosedTransform):
        out = survival_from_transform(law, xa, tol)
    elif isinstance(law, DifferenceOfGammas):
        try:
            out = Difference(Gamma(law.shape1, law.rate1), Gamma(law.shape2, law.rate2)).survival(xa, tol)
        except NoClosedForm as e:
            raise ReferenceNotConverged(str(e)) from e
    elif isinstance(law, ShiftedNegLogBeta):
        out = _neglog_conv_survival(case.joint.B, law, xa, tol)
    else:
        raise TypeError(f"unsupported exact law: {law!r}")
    return out if np.asarray(x).ndim else float(out[0])


def _neglog_conv_survival(B, law: ShiftedNegLogBeta, x: np.ndarray, tol: float) -> np.ndarray:
    """P{L + B > x} for L = -log Y, Y ~ Beta(b, lam), and B >= B.support()[0] = m.

    Equals P{L > x - m} + int_0^{x-m} S_B(x - s) f_L(s) ds with the density
    f_L(s) = e^{-bs} (1 - e^{-s})^{lam-1} / B(b, lam); this is the
    integral over y = e^{-s} in (e^{m-x}, 1) of S_B(x + log y) f_Y(y),
    whose mass crowds into a sliver of width e^{-x} where s spreads it
    evenly.  Each x is integrated to tol times P{B > x} or P{L > x - m},
    whichever is larger: both bound the value from below.
    """
    from scipy import special

    t = x - B.support()[0]
    out = np.ones_like(x)
    inside = np.flatnonzero(t > 0)  # for t <= 0, L >= 0 > t surely
    xs, ts = x[inside], t[inside]
    head = special.betainc(law.b, law.lam, np.exp(-ts))
    log_norm = special.betaln(law.b, law.lam)

    def f(s, i):
        density = np.exp(-law.b * s + (law.lam - 1.0) * np.log(-np.expm1(-s)) - log_norm)
        return np.asarray(B.survival(xs[i, None, None] - s)) * density

    res = integrate_batch(f, 0.0, ts, tol * np.maximum(head, np.asarray(B.survival(xs))))
    refuse_unconverged(res, xs, ReferenceNotConverged, "reference survival")
    out[inside] = head + res.value
    return out


# ---------------------------------------------------------------------------
# Empirical comparison
# ---------------------------------------------------------------------------

# Two-sided level of each tail row's band: a correct sampler's exceedance count leaves it with probability <= this
TAIL_ALPHA = 1e-3
VERDICT_RULE = ("passed iff ks < ks_threshold and every tail row's count (draws above x) lies in its band, "
                "the two-sided binomial interval of Bin(n, reference) at level tail_alpha")


@dataclass
class OracleReport:
    case_id: str
    n: int
    ks: float
    ks_threshold: float
    tail_rows: list = field(default_factory=list)  # dicts: x, count, band, p_hat, std_err, reference, ratio, ...
    tail_alpha: float = TAIL_ALPHA
    verdict_rule: str = VERDICT_RULE
    passed: bool = False
    low_N: bool = False
    truncation: dict = field(default_factory=dict)

    def as_dict(self):
        return asdict(self)

    def table(self) -> str:
        lines = [
            f"case {self.case_id}: n={self.n} KS={self.ks:.3e} (threshold {self.ks_threshold:.3e})"
            + ("  [low N]" if self.low_N else ""),
            f"{'x':>10} {'count':>8} {'band':>15} {'p_hat':>12} {'std_err':>10} {'reference':>12} {'ratio':>8}",
        ]
        for row in self.tail_rows:
            band = "[{}, {}]".format(*row["band"])
            line = "{x:>10.4f} {count:>8d} {band:>15} {p_hat:>12.5e} {std_err:>10.2e} {reference:>12.5e} {ratio:>8.4f}"
            lines.append(line.format(**{**row, "band": band}) + ("" if row["in_band"] else "  (out of band)"))
        lines.append(f"tail bands at level {self.tail_alpha:g} per row; " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def _ks_distance(case: ReferenceCase, sorted_vals: np.ndarray) -> float:
    """sup |F_n - F| over the sorted draws, a running maximum over blocks of DRAW_BLOCK draws."""
    law = case.exact_X_law
    if isinstance(law, ScalarDistribution):
        sv = np.asarray(reference_survival(case, sorted_vals))
        cdf_of = lambda lo, hi: 1.0 - sv[lo:hi]
    else:
        # convolution laws: dense grid + monotone interpolation
        grid = np.linspace(float(sorted_vals[0]) - 0.5, float(sorted_vals[-1]) + 0.5, 512)
        sv = np.asarray(reference_survival(case, grid, tol=1e-9))
        cdf = np.maximum.accumulate(np.clip(1.0 - sv, 0.0, 1.0))
        cdf_of = lambda lo, hi: np.interp(sorted_vals[lo:hi], grid, cdf)
    n, ks = sorted_vals.size, 0.0
    for lo in range(0, n, DRAW_BLOCK):
        hi = min(lo + DRAW_BLOCK, n)
        ref_cdf, i = cdf_of(lo, hi), np.arange(lo + 1, hi + 1)
        ks = np.maximum(ks, np.max(np.maximum(np.abs(i / n - ref_cdf), np.abs((i - 1) / n - ref_cdf))))  # NaN stays
    return float(ks)


def compare_empirical(case: ReferenceCase, cfg: SimConfig) -> OracleReport:
    """Simulate the case; score the KS distance and the exceedance count at five tail anchors.

    A row's band is [binom.ppf(a/2), binom.isf(a/2)] of Bin(n, reference) with a = TAIL_ALPHA, so a
    correct sampler leaves it with probability at most a; every row is checked.  Past the batch, the
    pass holds the sorted copy and at most one more n-length array (a tree law's reference survival of
    the sorted draws, then np.quantile's copy): the survival, the KS distance and E4's inversion run in
    blocks of DRAW_BLOCK draws or 32 x values.
    """
    batch = sample_batch(case.joint, cfg)
    n = batch.values.size
    sorted_vals = np.sort(batch.values)
    ks = _ks_distance(case, sorted_vals)
    ks_threshold = 4.0 / math.sqrt(n)

    anchors = np.quantile(sorted_vals, TAIL_LEVELS)
    refs = np.asarray(reference_survival(case, anchors))
    lo, hi = _binom_ppf(TAIL_ALPHA / 2, n, refs), _binom_isf(TAIL_ALPHA / 2, n, refs)
    rows = []  # "checked" is always true, as every row is checked; the key stays for readers of the earlier rows
    for t, ref, a, b in zip(_tail_of_sorted(sorted_vals, anchors), refs.tolist(), lo.tolist(), hi.tolist()):
        rows.append({"x": t.x, "count": t.count, "band": [int(a), int(b)], "p_hat": t.p_hat, "std_err": t.std_err,
                     "reference": ref, "ratio": t.p_hat / ref if ref > 0 else math.inf, "checked": True,
                     "in_band": a <= t.count <= b})

    return OracleReport(
        case_id=case.id,
        n=n,
        ks=ks,
        ks_threshold=ks_threshold,
        tail_rows=rows,
        passed=bool(ks < ks_threshold and all(row["in_band"] for row in rows)),
        low_N=n < 10_000,
        truncation=batch.truncation_report,
    )
