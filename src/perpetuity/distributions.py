"""Structural description of the input pair (A, B).

Every marginal law is a small expression tree of `ScalarDistribution`
variants.  The tree supports vectorized sampling, closed-form survival
and MGF evaluation where available, and purely symbolic structural
queries (atoms, support, the sign facts `positive` and `prob_negative`,
MGF domain).  The left CDF P{D < y} is one fact, `prob_below`.  Each
law states one transform, `mgf(s)`, for complex s on its strip (Re s
inside `mgf_domain()`); the characteristic function is `mgf(1j*t)`,
once, on the base class.  Nothing structural is ever inferred from
samples: a query that cannot be resolved symbolically answers ``None``
("unknown") and callers must treat unknown as not-satisfied.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy import special

from .quadrature import expm1_over

__all__ = [
    "NoClosedForm",
    "ValidationError",
    "ScalarDistribution",
    "PointMass",
    "Exponential",
    "Gamma",
    "Beta",
    "Uniform",
    "Affine",
    "Negated",
    "Shifted",
    "Scaled",
    "Mixture",
    "Difference",
    "SurvivalDefined",
    "ThresholdDependent",
    "JointInput",
    "GammaLike",
    "ExpPlusRemainder",
    "sample_pair",
    "validate_nondegeneracy",
]

_INF = math.inf


class NoClosedForm(Exception):
    """Raised when an analytic survival/MGF/CF is not available for a variant."""


class ValidationError(ValueError):
    """Raised at construction time for structurally invalid inputs."""


def _as_array(x):
    return np.asarray(x, dtype=float)


def _as_s(s):
    """An MGF argument or value as an array: float when real, so a real s keeps its float path; when complex,
    1-d at least: numpy fuses the complex multiply in array loops only, and a scalar must give an array's bits."""
    sa = np.asarray(s)
    return np.atleast_1d(sa) if sa.dtype.kind == "c" else sa.astype(float, copy=False)


def _maybe_scalar(out, x):
    if np.isscalar(x) or getattr(x, "ndim", 1) == 0:
        return float(out) if not np.iscomplexobj(out) else np.asarray(out).item()
    return out


def _prob_gt(d: "ScalarDistribution", x: float) -> Optional[float]:
    try:
        return float(np.asarray(d.survival(x)))
    except NoClosedForm:
        return None


# ---------------------------------------------------------------------------
# Scalar distributions
# ---------------------------------------------------------------------------

class ScalarDistribution:
    """Base class: one marginal law with sampling and analytic handles."""

    # -- sampling ----------------------------------------------------------
    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError

    # -- analytic handles --------------------------------------------------
    def survival(self, x):
        """P{D > x} (strict).  Raises NoClosedForm when unavailable."""
        raise NoClosedForm(type(self).__name__)

    def pdf(self, x):
        """Density where the law is absolutely continuous, else None."""
        return None

    def mgf(self, s, *, numeric_ok: bool = True):
        """E e^{sD} for real or complex s; +inf when Re s is outside the MGF domain.

        An array of s gives an array, a scalar s a Python float (complex for
        a complex s).  A real s never takes a complex path.
        """
        raise NoClosedForm(type(self).__name__)

    def charfn(self, t):
        """E e^{itD}, the MGF on the imaginary axis."""
        return self.mgf(1j * t)

    def tilted_mgf(self, s):
        """E[D e^{sD}], the s-derivative of the MGF, at each s; None without a closed form."""
        atoms = self.atoms()
        if atoms is None:
            return None
        sa = _as_array(s)
        out = np.zeros_like(sa)
        for v, w in atoms.items():
            out += w * v * np.exp(np.minimum(v * sa, 700.0))
        return _maybe_scalar(out, s)

    def density_left_limit(self, v: float) -> Optional[float]:
        """lim_{u -> v-} of the density of the continuous part; inf if it blows up, None if unknown."""
        return None

    def mean(self) -> float:
        raise NoClosedForm(type(self).__name__)

    # -- structural queries (symbolic; None = unknown) ---------------------
    def support(self) -> tuple[float, float]:
        raise NotImplementedError

    def atoms(self) -> Optional[dict[float, float]]:
        """Full atom table when the law is purely atomic, else None."""
        return None

    def atom_at(self, v: float) -> Optional[float]:
        """Exact P{D = v}; 0 for known-continuous laws, None if unknown."""
        return None

    def mgf_domain(self) -> tuple[float, float]:
        """Open interval on which the MGF is certainly finite (conservative)."""
        raise NotImplementedError

    def positive(self) -> Optional[bool]:
        """Whether P{D > 0} = 1: read off the support's lower end, and off the atom at 0 when that end is 0."""
        lo = self.support()[0]
        if lo != 0.0:
            return lo > 0.0
        a0 = self.atom_at(0.0)
        return None if a0 is None else a0 == 0.0

    def prob_negative(self) -> Optional[float]:
        """P{D < 0} as 1 - P{D > 0} - P{D = 0}, exactly 1.0 for an all-negative atomic law; None if unknown."""
        s0, a0 = _prob_gt(self, 0.0), self.atom_at(0.0)
        return None if s0 is None or a0 is None else max(0.0, 1.0 - s0 - a0)

    def log_abs_moment(self) -> Optional[float]:
        """E log|D| in closed form where available."""
        return None

    def log1p_neg_moment_finite(self) -> Optional[bool]:
        """Whether E log(1 + D^-) < infinity."""
        lo, _ = self.support()
        if lo > -_INF:
            return True
        slo, shi = self.mgf_domain()
        if slo < 0:
            return True
        return None

    def mgf_pole(self) -> Optional[tuple[float, float]]:
        """(s_max, order) with E e^{sD} ~ const (s_max - s)^{-order} as s -> s_max-; (inf, 0) if entire."""
        return (_INF, 0.0) if self.mgf_domain()[1] == _INF else None

    def upper_density_exponent(self) -> Optional[float]:
        """q with density ~ const (hi - u)^{q-1} near the upper end hi of the support."""
        return None

    def beta_lam(self) -> Optional[float]:
        """lam when the law is Beta(lam, 1), Uniform(0, 1) being lam = 1; else None."""
        return None

    # -- tail shape (stated exactly, or None) ------------------------------
    def exp_tail(self) -> Optional["ExpPlusRemainder"]:
        """P{D > x} = C e^{-bx} + r(x) on x >= 0, at the law's own rate b.  From `_exp_terms()`: b is the smallest
        rate and C the sum of its coefficients, r sums the other terms and decays faster by the gap to the next rate."""
        terms = self._exp_terms()
        if terms is None:
            return None
        b = min(beta for _, beta in terms)
        rest = tuple(t for t in terms if t[1] > b)
        return ExpPlusRemainder(sum(c for c, beta in terms if beta == b), b, _exp_sum(rest), r_terms=rest,
                                r_decay_margin=min((beta - b for _, beta in rest), default=1.0),
                                left_terms=self._left_terms())

    def _exp_terms(self) -> Optional[tuple[tuple[float, float], ...]]:
        """Pairs (c, beta) with P{D > x} = sum of c e^{-beta x} on x >= 0."""
        return None

    def _left_terms(self) -> Optional[tuple[tuple[float, float], ...]]:
        """Pairs (d, l) with P{D < -y} = sum of d e^{-l y} on y >= 0; () when D >= 0, None if unknown."""
        return () if self.support()[0] >= 0.0 else None

    def exp_weights(self) -> Optional[tuple[tuple[tuple[float, float], ...], tuple[tuple[float, float], ...]]]:
        """((alpha_i, r_i), (beta_j, l_j)) when D is a two-sided hyperexponential law, with density
        sum alpha_i r_i e^{-r_i x} on x > 0 and sum beta_j l_j e^{l_j x} on x < 0, the weights summing to 1:
        the partial fractions of E e^{sD} = sum alpha_i r_i/(r_i - s) + sum beta_j l_j/(l_j + s).  Else None."""
        right = self._exp_terms()
        left = None if right is None else self._left_terms()
        return None if left is None else (right, left)

    def prob_below(self, y):
        """P{D < y} (strict) at each y: an atomic law sums its atoms strictly below y, a law with a density gives
        1 - P{D > y}.  Raises NoClosedForm otherwise."""
        at = self.atoms()
        if at is not None:
            vals = sorted(at)
            cum = np.cumsum([at[v] for v in vals])
            idx = np.searchsorted(vals, y, side="left")
            return _maybe_scalar(np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0), y)
        if self.pdf(0.0) is None:
            raise NoClosedForm(f"{type(self).__name__}: atom structure unknown")
        return _maybe_scalar(1.0 - np.asarray(self.survival(y)), y)


@dataclass(frozen=True)
class PointMass(ScalarDistribution):
    value: float

    def sample(self, rng, size):
        return np.full(size, float(self.value))

    def survival(self, x):
        return _maybe_scalar((_as_array(x) < self.value).astype(float), x)

    def mgf(self, s, *, numeric_ok=True):
        sv = _as_s(s) * self.value
        return _maybe_scalar(np.exp(np.where(sv.real < 700.0, sv, _INF)), s)

    def mean(self):
        return float(self.value)

    def support(self):
        return (self.value, self.value)

    def atoms(self):
        return {float(self.value): 1.0}

    def atom_at(self, v):
        return 1.0 if v == self.value else 0.0

    def density_left_limit(self, v):
        return 0.0

    def mgf_domain(self):
        return (-_INF, _INF)

    def log_abs_moment(self):
        if self.value == 0:
            return -_INF
        return math.log(abs(self.value))


@dataclass(frozen=True)
class Exponential(ScalarDistribution):
    rate: float

    def __post_init__(self):
        if self.rate <= 0:
            raise ValidationError("Exponential rate must be > 0")

    def sample(self, rng, size):
        return rng.exponential(scale=1.0 / self.rate, size=size)

    def survival(self, x):
        xa = _as_array(x)
        return _maybe_scalar(np.where(xa < 0, 1.0, np.exp(-self.rate * np.maximum(xa, 0.0))), x)

    def pdf(self, x):
        xa = _as_array(x)
        return _maybe_scalar(np.where(xa < 0, 0.0, self.rate * np.exp(-self.rate * np.maximum(xa, 0.0))), x)

    def mgf(self, s, *, numeric_ok=True):
        if type(s) is float:  # the array path's bits, without numpy's per-call cost
            return self.rate / (self.rate - s) if s < self.rate else _INF
        sa = _as_s(s)
        inside = sa.real < self.rate
        return _maybe_scalar(np.where(inside, self.rate / (self.rate - np.where(inside, sa, 0.0)), _INF), s)

    def mean(self):
        return 1.0 / self.rate

    def support(self):
        return (0.0, _INF)

    def atom_at(self, v):
        return 0.0

    def mgf_domain(self):
        return (-_INF, self.rate)

    def mgf_pole(self):
        return (self.rate, 1.0)

    def _exp_terms(self):
        return ((1.0, self.rate),)


@dataclass(frozen=True)
class Gamma(ScalarDistribution):
    shape: float
    rate: float

    def __post_init__(self):
        if self.shape <= 0 or self.rate <= 0:
            raise ValidationError("Gamma parameters must be > 0")

    def sample(self, rng, size):
        return rng.gamma(self.shape, scale=1.0 / self.rate, size=size)

    def survival(self, x):
        xa = _as_array(x)
        return _maybe_scalar(
            np.where(xa <= 0, 1.0, special.gammaincc(self.shape, self.rate * np.maximum(xa, 0.0))), x
        )

    def pdf(self, x):
        xa = np.maximum(_as_array(x), 1e-300)
        val = np.exp(
            self.shape * math.log(self.rate)
            + (self.shape - 1.0) * np.log(xa)
            - self.rate * xa
            - special.gammaln(self.shape)
        )
        return _maybe_scalar(np.where(_as_array(x) <= 0, 0.0, val), x)

    def mgf(self, s, *, numeric_ok=True):
        if np.ndim(s):
            # point by point: numpy's array power differs from pow in the last bit on some arguments
            return np.array([self.mgf(v) for v in np.ravel(s).tolist()]).reshape(np.shape(s))
        inf = complex(_INF) if isinstance(s, complex) else _INF
        if s.real >= self.rate:
            return inf
        try:
            # rate / (rate - s) has a positive real part on the strip, so the principal power is the MGF
            return (self.rate / (self.rate - s)) ** self.shape
        except OverflowError:  # a Python float past the double range; a numpy scalar gives inf
            return inf

    def mean(self):
        return self.shape / self.rate

    def support(self):
        return (0.0, _INF)

    def atom_at(self, v):
        return 0.0

    def mgf_domain(self):
        return (-_INF, self.rate)

    def mgf_pole(self):
        return (self.rate, self.shape)


@dataclass(frozen=True)
class Beta(ScalarDistribution):
    p: float
    q: float

    def __post_init__(self):
        if self.p <= 0 or self.q <= 0:
            raise ValidationError("Beta parameters must be > 0")

    def sample(self, rng, size):
        if self.q == 1.0:
            # Beta(p, 1) has CDF u^p: invert it directly
            u = rng.random(size)
            u **= 1.0 / self.p
            return u
        return rng.beta(self.p, self.q, size=size)

    def survival(self, x):
        xa = np.clip(_as_array(x), 0.0, 1.0)
        return _maybe_scalar(1.0 - special.betainc(self.p, self.q, xa), x)

    def pdf(self, x):
        xa = np.clip(_as_array(x), 1e-300, 1.0 - 1e-16)
        val = np.exp(
            (self.p - 1.0) * np.log(xa)
            + (self.q - 1.0) * np.log1p(-xa)
            - special.betaln(self.p, self.q)
        )
        inside = (_as_array(x) > 0) & (_as_array(x) < 1)
        return _maybe_scalar(np.where(inside, val, 0.0), x)

    def mgf(self, s, *, numeric_ok=True):
        sa = _as_s(s)
        if sa.dtype.kind != "c":
            return _maybe_scalar(special.hyp1f1(self.p, self.p + self.q, sa), s)
        import mpmath  # off the real axis scipy's hyp1f1 loses digits (1e-8 relative at s = 20i)

        out = [complex(mpmath.hyp1f1(self.p, self.p + self.q, v)) for v in sa.ravel().tolist()]
        return _maybe_scalar(np.array(out).reshape(sa.shape), s)

    def tilted_mgf(self, s):
        return _maybe_scalar(self.mean() * special.hyp1f1(self.p + 1.0, self.p + self.q + 1.0, _as_array(s)), s)

    def mean(self):
        return self.p / (self.p + self.q)

    def support(self):
        return (0.0, 1.0)

    def atom_at(self, v):
        return 0.0

    def density_left_limit(self, v):
        if not 0.0 < v <= 1.0:
            return 0.0
        if v < 1.0:
            return float(self.pdf(v))
        # density p u^{p-1} (1-u)^{q-1} / B(p, q) near u = 1
        if self.q < 1.0:
            return _INF
        return self.p if self.q == 1.0 else 0.0

    def mgf_domain(self):
        return (-_INF, _INF)

    def upper_density_exponent(self):
        return self.q

    def beta_lam(self):
        return self.p if self.q == 1.0 else None

    def log_abs_moment(self):
        return float(special.digamma(self.p) - special.digamma(self.p + self.q))


@dataclass(frozen=True)
class Uniform(ScalarDistribution):
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValidationError("Uniform requires lo < hi")

    def sample(self, rng, size):
        # lo + (hi - lo) U, the same bits as rng.uniform without its per-draw dispatch
        u = rng.random(size)
        u *= self.hi - self.lo
        u += self.lo
        return u

    def survival(self, x):
        xa = _as_array(x)
        return _maybe_scalar(np.clip((self.hi - xa) / (self.hi - self.lo), 0.0, 1.0), x)

    def pdf(self, x):
        xa = _as_array(x)
        inside = (xa > self.lo) & (xa < self.hi)
        return _maybe_scalar(np.where(inside, 1.0 / (self.hi - self.lo), 0.0), x)

    def mgf(self, s, *, numeric_ok=True):
        # expm1 form: stable under cancellation for small s
        sa, w = _as_s(s), self.hi - self.lo
        return _maybe_scalar(np.exp(self.lo * sa) * expm1_over(w, sa) / w, s)

    def tilted_mgf(self, s):
        # D = lo + w U with U ~ Beta(1, 1)
        sa, lo, w = _as_array(s), self.lo, self.hi - self.lo
        out = np.exp(lo * sa) * (lo * special.hyp1f1(1.0, 2.0, w * sa) + 0.5 * w * special.hyp1f1(2.0, 3.0, w * sa))
        return _maybe_scalar(out, s)

    def mean(self):
        return 0.5 * (self.lo + self.hi)

    def support(self):
        return (float(self.lo), float(self.hi))

    def atom_at(self, v):
        return 0.0

    def density_left_limit(self, v):
        return 1.0 / (self.hi - self.lo) if self.lo < v <= self.hi else 0.0

    def mgf_domain(self):
        return (-_INF, _INF)

    def upper_density_exponent(self):
        return 1.0

    def beta_lam(self):
        return 1.0 if (self.lo, self.hi) == (0.0, 1.0) else None

    def log_abs_moment(self):
        if self.lo >= 0:
            def antider(u):
                return u * (math.log(u) - 1.0) if u > 0 else 0.0

            return (antider(self.hi) - antider(self.lo)) / (self.hi - self.lo)
        return None


@dataclass(frozen=True)
class Affine(ScalarDistribution):
    """scale * inner + offset, for a nonzero scale; an offset of 0 is never added, as 0.0 + -0.0 is 0.0.

    For a negative scale, P{D > x} = P{inner < (x - offset) / scale}: an atom
    of inner counts only when strictly below that point.
    """

    inner: ScalarDistribution
    scale: float = 1.0
    offset: float = 0.0

    def __post_init__(self):
        if self.scale == 0:
            raise ValidationError("Affine scale must be nonzero")

    def _map(self, v):
        return self.scale * v + self.offset if self.offset else self.scale * v

    def _inverse(self, x):
        return (x - self.offset) / self.scale

    def sample(self, rng, size):
        return self._map(self.inner.sample(rng, size))

    def _cut(self, x):
        """The last y (the first, for a negative scale) that _map sends to x or below, so that an atom of inner, drawn
        at its image, lies above x exactly when it lies beyond y.  The inverse where that is the point, else a bisection
        between points a few ulps either side of it."""
        sign, y = math.copysign(1.0, self.scale), np.array(self._inverse(x))
        with np.errstate(over="ignore", invalid="ignore"):  # an infinite x: the largest float's image, inf - inf
            off = ~((self._map(y) <= x) & (self._map(np.nextafter(y, sign * _INF)) > x))
            if not off.any():
                return y
            xo, yo = x[off], y[off]
            d = sign * np.nan_to_num(8.0 * (np.spacing(abs(xo)) + np.spacing(abs(self.offset))) / abs(self.scale)
                                     + np.spacing(abs(yo)))
            inside, outside = yo - d, yo + d
            while np.any(np.sign((mid := 0.5 * (inside + outside)) - inside) * np.sign(outside - mid) > 0):
                ok = self._map(mid) <= xo
                inside, outside = np.where(ok, mid, inside), np.where(ok, outside, mid)
        y[off] = inside
        return y

    def survival(self, x):
        y = self._cut(_as_array(x))
        if self.scale > 0:
            return self.inner.survival(y)
        return _maybe_scalar(self.inner.prob_below(y), x)

    def pdf(self, x):
        p = self.inner.pdf(self._inverse(_as_array(x)))
        return None if p is None else _maybe_scalar(np.asarray(p) / abs(self.scale), x)

    def mgf(self, s, *, numeric_ok=True):
        m = self.inner.mgf(s * self.scale, numeric_ok=numeric_ok)
        if not self.offset:
            return m
        m = _as_s(m)
        return _maybe_scalar(np.where(m.real < _INF, m * np.exp(_as_s(s) * self.offset), _INF), s)

    def mean(self):
        return self._map(self.inner.mean())

    def support(self):
        lo, hi = (self._map(v) for v in self.inner.support())
        return (lo, hi) if self.scale > 0 else (hi, lo)

    def atoms(self):
        at = self.inner.atoms()
        return None if at is None else {self._map(v): w for v, w in at.items()}

    def atom_at(self, v):
        return self.inner.atom_at(self._inverse(v))

    def mgf_domain(self):
        lo, hi = (v / self.scale for v in self.inner.mgf_domain())
        return (lo, hi) if self.scale > 0 else (hi, lo)

    def log_abs_moment(self):
        m = self.inner.log_abs_moment()
        return None if m is None or self.offset else m + math.log(abs(self.scale))


def Negated(inner: ScalarDistribution) -> Affine:
    """-inner."""
    return Affine(inner, -1.0)


def Shifted(inner: ScalarDistribution, offset: float) -> Affine:
    """inner + offset."""
    return Affine(inner, 1.0, offset)


def Scaled(inner: ScalarDistribution, factor: float) -> Affine:
    """factor * inner, for a nonzero factor."""
    return Affine(inner, factor)


@dataclass(frozen=True)
class Mixture(ScalarDistribution):
    components: tuple[tuple[float, ScalarDistribution], ...]
    # inner cumulative weights cum[:-1], and the atom values when every component is a PointMass
    _cuts: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _atom_values: Optional[np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        comps = tuple((float(w), d) for w, d in self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise ValidationError("Mixture needs at least one component")
        if any(w <= 0 or w > 1 for w, _ in comps):
            raise ValidationError("Mixture weights must lie in (0, 1]")
        if abs(sum(w for w, _ in comps) - 1.0) > 1e-12:
            raise ValidationError("Mixture weights must sum to 1 within 1e-12")
        object.__setattr__(self, "_cuts", tuple(np.cumsum([w for w, _ in comps])[:-1].tolist()))
        values = None
        if all(isinstance(d, PointMass) for _, d in comps):
            values = np.array([float(d.value) for _, d in comps])
        object.__setattr__(self, "_atom_values", values)

    def sample(self, rng, size):
        """One uniform u per draw, then comp.sample(rng, n_j) for each component with n_j > 0, in component order.

        Component j is drawn where cum[j-1] <= u < cum[j] (the last one also
        takes u >= cum[-1] when the weights sum to just under 1).  The index
        is the count of inner cuts at or below u, which equals
        min(searchsorted(cum, u, "right"), k - 1) because cum is increasing.
        A PointMass draws nothing, so an all-atom mixture reads its values
        off the index.  Draws are placed by flat index: a boolean-mask scatter
        branches on each element and mispredicts on about every other one.
        """
        u = rng.random(size)
        idx = np.zeros(size, dtype=np.min_scalar_type(len(self._cuts)))
        for c in self._cuts:
            idx += u >= c
        if self._atom_values is not None:
            return self._atom_values[idx]
        out = np.empty(size)
        for j, (_, comp) in enumerate(self.components):
            at = np.flatnonzero(idx == j)
            if at.size:
                out[at] = comp.sample(rng, at.size)
        return out

    def survival(self, x):
        total = sum(w * np.asarray(d.survival(x)) for w, d in self.components)
        return _maybe_scalar(total, x)

    def _mix(self, fact):
        """Sum of w fact(d) over the components; None when a part is unknown."""
        total = 0
        for w, d in self.components:
            if (p := fact(d)) is None:
                return None
            total = total + w * p
        return total

    def pdf(self, x):
        return self._mix(lambda d: d.pdf(x))

    def prob_below(self, y):
        return self._mix(lambda d: d.prob_below(y))

    def mgf(self, s, *, numeric_ok=True):
        with np.errstate(invalid="ignore"):  # w (inf + 0j) has a nan part, and outside the domain the MGF is inf
            total = sum(w * _as_s(d.mgf(s, numeric_ok=numeric_ok)) for w, d in self.components)
        return _maybe_scalar(np.where(total.real < _INF, total, _INF), s)

    def mean(self):
        return sum(w * d.mean() for w, d in self.components)

    def support(self):
        los, his = zip(*(d.support() for _, d in self.components))
        return (min(los), max(his))

    def atoms(self):
        out: dict[float, float] = {}
        for w, d in self.components:
            at = d.atoms()
            if at is None:
                return None
            for v, p in at.items():
                out[v] = out.get(v, 0.0) + w * p
        return out

    def atom_at(self, v):
        return self._mix(lambda d: d.atom_at(v))

    def density_left_limit(self, v):
        return self._mix(lambda d: d.density_left_limit(v))

    def mgf_domain(self):
        los, his = zip(*(d.mgf_domain() for _, d in self.components))
        return (max(los), min(his))

    def log_abs_moment(self):
        return self._mix(lambda d: d.log_abs_moment())

    def exp_tail(self):
        """An exponential sum's tail is the base class's.  Otherwise components at rate b add w C and w r; a faster
        one (MGF finite past b) adds its whole survival to r, as its closed exponential sum when it has one."""
        if (tail := super().exp_tail()) is not None:
            return tail
        b = self.mgf_domain()[1]
        if b == _INF:
            return None
        C, parts, margins = 0.0, [], []
        for w, d in self.components:
            hi = d.mgf_domain()[1]
            if hi > b:
                if _prob_gt(d, 0.0) is None:
                    return None
                terms = d._exp_terms()
                parts.append((w, d.survival if terms is None else _exp_sum(terms)))
                if hi < _INF:
                    margins.append(hi - b)
                continue
            t = d.exp_tail()
            if t is None or t.b != b:
                return None
            C += w * t.C
            if t.r is not _no_remainder:
                parts.append((w, t.r))
                margins.append(t.r_decay_margin)
        return ExpPlusRemainder(C, b, _weighted_sum(parts), r_decay_margin=min(margins, default=1.0))

    def _exp_terms(self):
        parts = [d._exp_terms() for _, d in self.components]
        if any(p is None for p in parts):
            return None
        return tuple((w * c, beta) for (w, _), p in zip(self.components, parts) for c, beta in p)


@dataclass(frozen=True)
class Difference(ScalarDistribution):
    """left - right with independent parts."""

    left: ScalarDistribution
    right: ScalarDistribution

    def sample(self, rng, size):
        a = self.left.sample(rng, size)
        b = self.right.sample(rng, size)
        return a - b

    def survival(self, x, tol: float = 1e-10):
        """P{L - R > x}, all x in one pass.

        Sums of exponentials on both sides: the closed form of `_exp_terms`,
        of L - R for x >= 0 and of R - L for x < 0.  An atomic R (else L): a
        sum over its atoms v of P{L - v > x} (of P{v - R > x}), an `Affine`
        survival, which counts an atom on the cut as the draws do.  A `Mixture`
        R (else L): a sum over its components, so that no integrand has a kink
        or jump inside its range.  Otherwise R needs a density, and P{R < y0} +
        int_{y0}^{Y} S_L(x + y) f_R(y) dy is one `integrate_batch` over x, cut
        at both ends of L's support: y0 = max(rlo, llo - x), and Y at most
        lhi - x, past which S_L(x + y) is 0.  Of the budget tol S_L(x + rlo), a
        bound on the value, the part beyond Y, where S_R <= tol/2, takes one
        half and the quadrature the other, so the far tail keeps its relative
        digits.  Raises NoClosedForm, naming the x values, if an integral misses it.
        """
        le, ri = self.left, self.right
        xa = _as_array(x)
        if (weights := self.exp_weights()) is not None:
            up, down = map(_exp_sum, weights)
            return _maybe_scalar(np.where(xa >= 0, up(np.maximum(xa, 0.0)), 1.0 - down(np.maximum(-xa, 0.0))), x)
        if (at := ri.atoms()) is not None:
            parts = [(w, Affine(le, 1.0, -v)) for v, w in at.items()]
        elif (at := le.atoms()) is not None:
            parts = [(w, Affine(ri, -1.0, v)) for v, w in at.items()]
        elif isinstance(ri, Mixture):
            parts = [(w, Difference(le, d)) for w, d in ri.components]
        elif isinstance(le, Mixture):
            parts = [(w, Difference(d, ri)) for w, d in le.components]
        else:
            parts = None
        if parts is not None:
            return _maybe_scalar(sum(w * np.asarray(d.survival(xa)) for w, d in parts), x)
        if ri.pdf(0.0) is None:
            raise NoClosedForm("Difference: right part has neither atoms nor a density")
        from .quadrature import integrate_batch, refuse_unconverged

        flat = xa.reshape(-1)
        (llo, lhi), (rlo, rhi) = le.support(), ri.support()
        lo = np.maximum(rlo, llo - flat)
        if not np.all(np.isfinite(lo)):
            raise NoClosedForm("Difference: both parts unbounded below")
        hi = np.minimum(rhi if rhi < _INF else _survival_quantile(ri, 0.5 * tol, float(lo.min())), lhi - flat)
        res = integrate_batch(lambda y, i: np.asarray(le.survival(flat[i, None, None] + y)) * np.asarray(ri.pdf(y)),
                              lo, np.maximum(hi, lo), 0.5 * tol * np.asarray(le.survival(flat + rlo)))
        refuse_unconverged(res, flat, NoClosedForm, "Difference survival")
        out = 1.0 - np.asarray(ri.survival(lo)) + res.value
        return _maybe_scalar(out.reshape(xa.shape), x)

    def mgf(self, s, *, numeric_ok=True):
        ml = _as_s(self.left.mgf(s, numeric_ok=numeric_ok))
        mr = _as_s(self.right.mgf(-s, numeric_ok=numeric_ok))
        with np.errstate(invalid="ignore"):  # a complex inf times a finite part has a nan part
            return _maybe_scalar(np.where((ml.real < _INF) & (mr.real < _INF), ml * mr, _INF), s)

    def mean(self):
        return self.left.mean() - self.right.mean()

    def support(self):
        llo, lhi = self.left.support()
        rlo, rhi = self.right.support()
        return (llo - rhi, lhi - rlo)

    def atoms(self):
        la, ra = self.left.atoms(), self.right.atoms()
        if la is None or ra is None:
            return None
        out: dict[float, float] = {}
        for lv, lw in la.items():
            for rv, rw in ra.items():
                v = lv - rv
                out[v] = out.get(v, 0.0) + lw * rw
        return out

    def atom_at(self, v):
        at = self.atoms()
        if at is not None:
            return at.get(v, 0.0)
        # A continuous part on either side kills every atom of the difference.
        if self.left.pdf(0.0) is not None or self.right.pdf(0.0) is not None:
            return 0.0
        return None

    def mgf_domain(self):
        llo, lhi = self.left.mgf_domain()
        rlo, rhi = self.right.mgf_domain()
        return (max(llo, -rhi), min(lhi, -rlo))

    def _exp_terms(self):
        # E e^{-beta (x + R)} = e^{-beta x} E e^{-beta R}, valid on x >= 0 only for R >= 0
        terms = self.left._exp_terms()
        if terms is None or self.right.support()[0] < 0.0:
            return None
        return tuple((c * self.right.mgf(-beta), beta) for c, beta in terms)

    def _left_terms(self):
        return Difference(self.right, self.left)._exp_terms()

    def prob_below(self, y):
        return Difference(self.right, self.left).survival(-y)


def _survival_quantile(d: ScalarDistribution, p: float, y: float) -> float:
    """A point at or above y where P{D > .} <= p: the first of y + 2^k that is, then four 64-fold cuts of that bracket."""
    v = y + np.concatenate([[0.0], 2.0 ** np.arange(64)])
    for _ in range(5):
        below = np.asarray(d.survival(v)) <= p
        if not below.any():
            raise NoClosedForm(f"Difference: the right part's survival stays above {p:g}")
        k = int(np.argmax(below))
        if k == 0:
            return float(v[0])
        v = np.linspace(v[k - 1], v[k], 65)
    return float(v[-1])


def _weighted_sum(parts) -> Callable:
    """x -> sum of w f(x) over the (w, f) pairs; the zero remainder when there are none."""
    if not parts:
        return _no_remainder

    def r(x):
        xa = _as_array(x)
        out = np.zeros_like(xa)
        for w, f in parts:
            out += w * np.asarray(f(xa))
        return out

    return r


def _exp_sum(terms) -> Callable:
    """x -> sum of c e^{-beta x} over the (c, beta) pairs, for x >= 0 (the bits of the Exponential survivals' sum
    there); the zero remainder when there are none."""
    return _weighted_sum([(c, lambda x, beta=beta: np.exp(-beta * x)) for c, beta in terms])


def _exp_tilted_survival(survival: Callable, s) -> Callable:
    """y -> e^{sy} P{D > y}, formed in log space: e^{sy} alone overflows long before the survival underflows.

    Capped at e^700 in modulus, so that a divergent integrand leaves its quadrature unconverged instead of overflowing.
    """

    def f(y):
        sv = float(np.asarray(survival(y)))
        return math.exp(min(s * y + math.log(sv), 700.0)) if sv > 0.0 else 0.0

    def f_complex(y):
        sv, z = float(np.asarray(survival(y))), s * y
        return cmath.exp(complex(min(z.real + math.log(sv), 700.0), z.imag)) if sv > 0.0 else 0j

    return f_complex if isinstance(s, complex) else f


class SurvivalDefined(ScalarDistribution):
    """Law given only through a survival function handle.

    Sampling is by inverse transform in t = -log S, on a cached table of
    x at 65536 equally spaced t from 0 to t_max = -log S(x_max), where
    S(x_max) <= 1e-16.  A draw is t ~ Exp(1) (or t = -log u for
    `inverse_survival(u)`), then one index computation and one lerp; t
    beyond t_max maps to x_max.  The table is resampled from a dense
    monotone table on a uniform x grid, and the x-error of inversion stays
    around 1e-8 for the exponential-envelope tails this exists for.
    """

    def __init__(self, S: Callable, support_lo: float, decay_rate: float = 1.0, name: str = "survival"):
        self.S = S
        self.support_lo = float(support_lo)
        self.decay_rate = float(decay_rate)
        self.name = name
        if decay_rate <= 0:
            raise ValidationError("SurvivalDefined needs a positive decay_rate envelope")
        self._check_handle()
        self._table = None

    def _check_handle(self):
        lo = self.support_lo
        s0 = float(self.S(lo))
        if abs(s0 - 1.0) > 1e-9:
            raise ValidationError(f"survival handle must satisfy S(support_lo)=1, got {s0}")
        grid = lo + np.linspace(0.0, 20.0 / self.decay_rate, 64)
        vals = np.asarray(self.S(grid), dtype=float)
        if np.any(np.diff(vals) > 1e-12):
            raise ValidationError("survival handle is not nonincreasing on the check grid")
        if vals[-1] > 0.05:
            raise ValidationError("survival handle does not decay on the check grid")

    def __repr__(self):
        return f"SurvivalDefined({self.name})"

    def _inversion_table(self):
        """(1/dt, x, dx): x[j] = x(j dt) and dx[j] = x[j+1] - x[j], with dx = 0 at the last node."""
        if self._table is None:
            n = 65536
            lo = self.support_lo
            hi = lo + 1.0 / self.decay_rate
            while float(self.S(hi)) > 1e-16:
                hi = lo + 2.0 * (hi - lo)
            xs = np.linspace(lo, hi, n)
            sv = np.asarray(self.S(xs), dtype=float)
            sv = np.minimum.accumulate(np.clip(sv, 1e-300, 1.0))
            keep = np.concatenate([[True], np.diff(sv) < 0])
            nls = -np.log(sv[keep])
            xs = xs[keep]
            del sv, keep  # free the build's temporaries before the resampling pass
            x = np.interp(np.linspace(0.0, nls[-1], n), nls, xs)
            self._table = ((n - 1) / nls[-1], x, np.append(np.diff(x), 0.0))
        return self._table

    def _invert_neglog(self, t: np.ndarray) -> np.ndarray:
        """x with -log S(x) = t for t >= 0; overwrites t."""
        inv_dt, x, dx = self._inversion_table()
        pos = np.multiply(t, inv_dt, out=t)
        np.minimum(pos, x.size - 1, out=pos)
        i = pos.astype(np.intp)
        pos -= i
        pos *= dx.take(i)
        pos += x.take(i)
        return pos

    def inverse_survival(self, u):
        """x with S(x) = u, vectorized."""
        with np.errstate(divide="ignore"):
            t = -np.log(np.clip(_as_array(u), 0.0, 1.0).reshape(-1))
        return _maybe_scalar(self._invert_neglog(t).reshape(np.shape(u)), u)

    def sample(self, rng, size):
        return self._invert_neglog(rng.standard_exponential(size))

    def survival(self, x):
        xa = _as_array(x)
        out = np.clip(np.asarray(self.S(np.maximum(xa, self.support_lo)), dtype=float), 0.0, 1.0)
        out = np.where(xa < self.support_lo, 1.0, out)
        return _maybe_scalar(out, x)

    def mgf(self, s, *, numeric_ok=True):
        """E e^{sX} = e^{s lo} + s * int_lo^inf e^{sy} S(y) dy, by one quadrature per s.

        Settled only for Re s < decay_rate, where the envelope gives the
        integrand's decay rate, decay_rate - Re s.  At Re s >= decay_rate the
        integral may or may not converge, and the handle cannot tell: S
        underflows long before a polynomial factor decides.  Those s, and a
        quadrature that did not converge, raise NoClosedForm.  The integrand
        is formed in log space, so e^{sy} never overflows; but the part
        beyond the underflow of S (near y = 745 for the poly-exp law) is lost
        and not counted in the error estimate, which still reads 1e-11: the
        poly-exp law's MGF comes out 9.8e-8 low (absolute) at s = 0.99
        decay_rate and 6.5e-6 low at 0.995.
        """
        if not numeric_ok:
            raise NoClosedForm("SurvivalDefined MGF is numeric only")
        if np.ndim(s):
            return np.array([self.mgf(v) for v in np.ravel(s).tolist()]).reshape(np.shape(s))
        if s == 0:
            return 1.0 + 0j if isinstance(s, complex) else 1.0
        if s.real >= self.decay_rate:
            raise NoClosedForm(
                f"SurvivalDefined MGF at s = {s:g} >= decay_rate {self.decay_rate:g}: "
                "convergence not decidable from the survival handle")
        from .quadrature import integrate_semi_infinite

        lo = self.support_lo
        res = integrate_semi_infinite(_exp_tilted_survival(self.S, s), lo, 1e-11, self.decay_rate - s.real)
        if not res.converged:
            raise NoClosedForm(f"SurvivalDefined MGF at s = {s:g}: quadrature did not converge")
        return (cmath.exp if isinstance(s, complex) else math.exp)(s * lo) + s * res.value

    def mean(self):
        from .quadrature import integrate_semi_infinite

        res = integrate_semi_infinite(lambda y: float(self.S(y)), self.support_lo, 1e-11, self.decay_rate)
        if not res.converged:
            raise NoClosedForm("SurvivalDefined mean: quadrature did not converge")
        return self.support_lo + res.value

    def support(self):
        return (self.support_lo, _INF)

    def atom_at(self, v):
        return 0.0

    def prob_below(self, y):
        return 1.0 - self.survival(y)

    def mgf_domain(self):
        # Conservative: the exponential envelope only certifies s < decay_rate.
        return (-_INF, self.decay_rate)


# ---------------------------------------------------------------------------
# Joint law of (A, B)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThresholdDependent:
    """A = zeta1 * 1{B > q} + zeta2 * 1{B <= q}."""

    zeta1: float
    zeta2: float
    q: float

    def __post_init__(self):
        if not (0 < self.zeta1 < 1 and 0 < self.zeta2 < 1):
            raise ValidationError("threshold coefficients must lie in (0, 1)")
        if self.zeta1 == self.zeta2:
            raise ValidationError("threshold dependence requires zeta1 != zeta2")


@dataclass(frozen=True)
class JointInput:
    A: Optional[ScalarDistribution]
    B: ScalarDistribution
    dependence: object = "independent"  # "independent" | ThresholdDependent

    def __post_init__(self):
        if isinstance(self.dependence, ThresholdDependent):
            if self.A is not None:
                raise ValidationError("threshold-dependent joints derive A; leave field A unset")
        elif self.dependence == "independent":
            if self.A is None:
                raise ValidationError("independent joints need a marginal law for A")
        else:
            raise ValidationError(f"unsupported dependence: {self.dependence!r}")

    @property
    def independent(self) -> bool:
        return self.dependence == "independent"

    def A_marginal(self) -> ScalarDistribution:
        """Marginal law of A (derived for threshold dependence)."""
        if self.independent:
            return self.A
        dep = self.dependence
        p1 = float(np.asarray(self.B.survival(dep.q)))
        comps = []
        if p1 > 0:
            comps.append((p1, PointMass(dep.zeta1)))
        if p1 < 1:
            comps.append((1.0 - p1, PointMass(dep.zeta2)))
        return Mixture(tuple(comps))


def sample_pair(joint: JointInput, rng: np.random.Generator, size: int):
    """One batch of draws (a, b) from the joint law."""
    if joint.independent:
        a = joint.A.sample(rng, size)
        b = joint.B.sample(rng, size)
        return a, b
    dep = joint.dependence
    b = joint.B.sample(rng, size)
    a = np.where(b > dep.q, dep.zeta1, dep.zeta2)
    return a, b


# ---------------------------------------------------------------------------
# Nondegeneracy
# ---------------------------------------------------------------------------

@dataclass
class NondegeneracyReport:
    ok: bool
    violations: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def validate_nondegeneracy(joint: JointInput) -> NondegeneracyReport:
    """Check P{A=0}=0, P{B=0}<1 and P{B + A c = c} < 1 for all c."""
    rep = NondegeneracyReport(ok=True)
    A = joint.A_marginal()
    B = joint.B
    a0 = A.atom_at(0.0)
    if a0 is None:
        rep.notes.append("P{A=0} not symbolically derivable; assumed 0")
    elif a0 > 0:
        rep.ok = False
        rep.violations.append("degeneracy: P{A=0} > 0")
    if B.atom_at(0.0) == 1.0:
        rep.ok = False
        rep.violations.append("degeneracy: P{B=0} = 1")
    a_atoms = A.atoms()
    b_atoms = B.atoms()
    if a_atoms is not None and b_atoms is not None:
        # Solve B + A c = c a.s.; possible only if for every atom pair b = c(1-a).
        candidates = set()
        for av, _ in a_atoms.items():
            for bv, _ in b_atoms.items():
                if av != 1.0:
                    candidates.add(bv / (1.0 - av))
        for c in candidates:
            if all(abs(bv - c * (1.0 - av)) < 1e-12 for av in a_atoms for bv in b_atoms):
                rep.ok = False
                rep.violations.append(f"degeneracy: B + A*c = c a.s. for c = {c:g}")
        # A == 1 a.s. with B == 0 a.s. is already covered by the first check.
    else:
        rep.notes.append("fixed-point degeneracy not decidable symbolically (non-atomic law); assumed ok")
    return rep


# ---------------------------------------------------------------------------
# Tail models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GammaLike:
    """Right-tail model P{B > x} ~ a * x^c * e^{-b x}."""

    a: float
    c: float
    b: float

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ValidationError("GammaLike needs a > 0 and b > 0")

    def __call__(self, x):
        xa = _as_array(x)
        return _maybe_scalar(self.a * np.power(np.maximum(xa, 1e-300), self.c) * np.exp(-self.b * xa), x)


def _no_remainder(x):
    return np.zeros_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class ExpPlusRemainder:
    """Right-tail decomposition P{B > x} = C e^{-bx} + r(x) for x >= 0."""

    C: float
    b: float
    r: Callable = _no_remainder
    r_vanishes: bool = True          # lim e^{bx} r(x) = 0
    r_integrable: bool = True        # int_1^inf e^{by}/y r+(y) dy < inf (and the eps-version for r-)
    r_decay_margin: float = 1.0      # eps with |r(y)| = O(e^{-(b+eps) y})
    # exact exponential sums for thm2_K's Frullani sums; None leaves an integral to its quadrature
    r_terms: Optional[tuple] = None      # (c, beta) pairs with r(x) = sum c e^{-beta x}
    left_terms: Optional[tuple] = None   # (d, l) pairs with P{B < -y} = sum d e^{-l y} on y >= 0

    def __post_init__(self):
        if self.C <= 0 or self.b <= 0:
            raise ValidationError("ExpPlusRemainder needs C > 0 and b > 0")

    def __call__(self, x):
        xa = _as_array(x)
        return _maybe_scalar(self.C * np.exp(-self.b * xa) + np.asarray(self.r(xa), dtype=float), x)
