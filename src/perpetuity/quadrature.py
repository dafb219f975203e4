"""Adaptive one-dimensional quadrature.

A fixed-order Gauss-Kronrod 15-point rule with the embedded 7-point
Gauss estimate drives a globally adaptive bisection.  Complex-valued
integrands are handled transparently: real and imaginary parts share the
panel subdivision, so the error estimate stays coherent.
`integrate_finite` and `integrate_semi_infinite` call a scalar integrand
once per point, or, with vectorized=True, an array integrand once per
bisection on both new panels' nodes; for an integrand that gives the
same bits either way, the two paths return the same result to the bit.
A scalar integrand receives Python floats, the same bits as numpy's node
array, so it must not rely on numpy-scalar inf or nan semantics: 1.0/0.0
raises ZeroDivisionError and an overflowing `**` raises OverflowError.
A scalar panel costs its 15 integrand calls plus O(1) float work: the
Kronrod and Gauss sums are Python floats added in numpy's order, so they
are numpy's bits.  Where a panel's first value is not a Python float, or
a sum is not a finite float (complex, numpy-scalar or mpmath values, or
an overflow), numpy sums the values already in hand, a bisection's two
panels as one array, so the bits and warnings are numpy's either way.
`integrate_batch` runs the same rule over a batch of integrals at once,
one vectorized integrand call per refinement round.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["QuadResult", "integrate_finite", "integrate_semi_infinite", "integrate_batch", "refuse_unconverged",
           "frullani", "expm1_over"]

# Kronrod-15 nodes on [-1, 1] (positive half) and weights; the odd-index
# nodes form the embedded Gauss-7 rule.
_XK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769, 0.741531185599394,
    0.586087235467691, 0.405845151377397, 0.207784955007898, 0.0,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250, 0.140653259715525,
    0.169004726639267, 0.190350578064785, 0.204432940075298, 0.209482141084728,
])
_WG = np.array([0.129484966168870, 0.279705391489277, 0.381830050505119, 0.417959183673469])

_NODES = np.concatenate([-_XK[:-1], [0.0], _XK[:-1][::-1]])
_WEIGHTS_K = np.concatenate([_WK[:-1], [_WK[-1]], _WK[:-1][::-1]])
_WEIGHTS_G = np.zeros(15)
_WEIGHTS_G[1:14:2] = np.concatenate([_WG[:-1], [_WG[-1]], _WG[:-1][::-1]])
_WEIGHTS_KG = np.stack([_WEIGHTS_K, _WEIGHTS_G])
_NODE_LIST = _NODES.tolist()
_WK_LIST, _WG_LIST = _WK.tolist(), _WG.tolist()  # Python floats for `_panel`'s sums
_UNIT_NODES = 1.0 + _NODES  # the nodes on [0, 2], for the unit panels of `integrate_batch`
_MAX_PANELS = 10_000  # panels of one `integrate_finite` integral; one that needs more comes back converged False


@dataclass
class QuadResult:
    """One integral's outcome; from `integrate_batch`, each field is an array over the members."""

    value: complex | float | np.ndarray
    abs_error_estimate: float | np.ndarray
    subdivisions: int | np.ndarray
    converged: bool | np.ndarray


def _sums(fs: np.ndarray, halves: list) -> list:
    """(Kronrod, Gauss) values of the panels with the given half-widths, from fs's 15 values per panel."""
    # sums along the contiguous node axis: the same bits as np.sum on one panel's 15 values alone;
    # scaled in Python: h is real, so each part of h times a complex sum is one rounded product, as in numpy
    kg = np.add.reduce(_WEIGHTS_KG * fs.reshape(len(halves), 1, 15), axis=2).tolist()
    return [(h * kk, h * gg) for h, (kk, gg) in zip(halves, kg)]


def _panels(f: Callable, edges) -> list:
    """(Kronrod, Gauss) values of an array integrand f on the panels between consecutive edges, in one call of f."""
    mh = np.array([(float(0.5 * (a + b)), float(0.5 * (b - a))) for a, b in zip(edges[:-1], edges[1:])])
    return _sums(np.asarray(f((mh[:, :1] + mh[:, 1:] * _NODES).ravel())), mh[:, 1].tolist())


def _panel(f: Callable, a, b) -> tuple:
    """(values, h, sums) of a scalar f on (a, b): its 15 values, one call of f per node, the half-width, and the
    panel's (Kronrod, Gauss) values.

    The sums are written out in Python floats, in the order numpy reduces 15 contiguous values (eight
    pairwise, then one at a time, from its identity 0.0), so they are `_sums`' bits, at O(1) float
    work.  They are None where numpy must form them: when the first value is not a Python float, or a
    sum is not a finite one (f gave a complex, numpy-scalar or mpmath value, or the sum overflowed).
    """
    m, h = float(0.5 * (a + b)), float(0.5 * (b - a))
    n0, n1, n2, n3, n4, n5, n6, n7, n8, n9, n10, n11, n12, n13, n14 = _NODE_LIST
    y0, y1, y2, y3 = f(m + h * n0), f(m + h * n1), f(m + h * n2), f(m + h * n3)
    y4, y5, y6, y7 = f(m + h * n4), f(m + h * n5), f(m + h * n6), f(m + h * n7)
    y8, y9, y10, y11 = f(m + h * n8), f(m + h * n9), f(m + h * n10), f(m + h * n11)
    y12, y13, y14 = f(m + h * n12), f(m + h * n13), f(m + h * n14)
    ys = y0, y1, y2, y3, y4, y5, y6, y7, y8, y9, y10, y11, y12, y13, y14
    if type(y0) is float:  # else no numpy-scalar arithmetic here
        # node i and node 14 - i share a weight; the Gauss rule weights the odd nodes, and 0.0 the even ones
        k0, k1, k2, k3, k4, k5, k6, k7 = _WK_LIST
        g1, g3, g5, g7 = _WG_LIST
        kk = 0.0 + ((((k0 * y0 + k1 * y1) + (k2 * y2 + k3 * y3)) + ((k4 * y4 + k5 * y5) + (k6 * y6 + k7 * y7)))
                    + k6 * y8 + k5 * y9 + k4 * y10 + k3 * y11 + k2 * y12 + k1 * y13 + k0 * y14)
        gg = 0.0 + ((((0.0 * y0 + g1 * y1) + (0.0 * y2 + g3 * y3)) + ((0.0 * y4 + g5 * y5) + (0.0 * y6 + g7 * y7)))
                    + 0.0 * y8 + g5 * y9 + 0.0 * y10 + g3 * y11 + 0.0 * y12 + g1 * y13 + 0.0 * y14)
        # gg is a float when kk is: the same 15 values times Python-float weights
        if type(kk) is float and math.isfinite(kk) and math.isfinite(gg):
            return ys, h, (h * kk, h * gg)
    return ys, h, None


def integrate_finite(f: Callable, lo: float, hi: float, tol: float, *, vectorized: bool = False) -> QuadResult:
    """Adaptive integral of f over (lo, hi) to absolute tolerance tol, on at most _MAX_PANELS panels.

    f takes one point, a Python float, and returns a real or complex number;
    a panel then costs f's 15 calls plus O(1) float work.  Where its first
    value is not a Python float or a sum is not a finite one (complex,
    numpy-scalar or mpmath values, or an overflow), numpy sums the values
    already in hand, a bisection's two panels as one array, so the bits and
    warnings are numpy's either way and f is called once per node.  With
    vectorized=True, f instead takes a 1-d array of points and returns
    the values at them, and each bisection evaluates both new panels' 30
    nodes in one call.  The result is then the same to the bit as the
    scalar path's, provided f gives the same bits on an array as point by
    point (numpy's scalar `**` and `math.exp` can differ from numpy's
    array loops in the last bit).
    """
    if not lo < hi:
        raise ValueError("integrate_finite requires lo < hi")
    if vectorized:
        (val, g), = _panels(f, (lo, hi))
    else:
        ys, h, kg = _panel(f, lo, hi)
        val, g = kg or _sums(np.array(ys), [h])[0]
    # abs() of a Python complex is hypot, as for a numpy complex scalar, where np.abs on a complex array can differ
    err = abs(val - g)
    heap = [(-err, lo, hi, val, err)]
    total_err = err
    n = 1
    while total_err > tol and n < _MAX_PANELS:
        _, a, b, v, e = heapq.heappop(heap)
        m = 0.5 * (a + b)
        if vectorized:
            (v1, g1), (v2, g2) = _panels(f, (a, m, b))
        else:
            ys1, h1, kg1 = _panel(f, a, m)
            ys2, h2, kg2 = _panel(f, m, b)
            # where either half needs numpy's sums, both halves' 30 values are one array, as in `_panels`
            (v1, g1), (v2, g2) = (kg1, kg2) if kg1 and kg2 else _sums(np.array(ys1 + ys2), [h1, h2])
        e1, e2 = abs(v1 - g1), abs(v2 - g2)
        total_err += e1 + e2 - e
        heapq.heappush(heap, (-e1, a, m, v1, e1))
        heapq.heappush(heap, (-e2, m, b, v2, e2))
        n += 1
    value = sum(item[3] for item in heap)
    if not np.iscomplexobj(np.asarray(value)):
        value = float(np.real(value))
    return QuadResult(value, float(total_err), n, bool(total_err <= tol))


# Probe points per chunk of the scan for a truncation point, and per integrand
# call when it is vectorized: about the 30 steps of 1/decay_hint that a tolerance near 1e-10 needs.
_PROBE_CHUNK = 32


def integrate_semi_infinite(f: Callable, lo: float, tol: float, decay_hint: float, *,
                            vectorized: bool = False) -> QuadResult:
    """Integral of f over (lo, inf) for integrands decaying like e^{-decay_hint*y}.

    The truncation point is where |f| stays below tol*1e-3 at three
    consecutive probe points, 1/decay_hint apart; the remainder is bounded
    by the exponential envelope and folded into the error estimate.  When
    no truncation point turns up by lo + 1e4/decay_hint, the result is a
    refusal, value nan, error inf and converged False, at the cost of the
    scan alone.  f takes one point, or with vectorized=True a 1-d array of
    points (see `integrate_finite`); the vectorized scan evaluates
    _PROBE_CHUNK probes per call and stops at the same truncation point.
    """
    if not (math.isfinite(decay_hint) and decay_hint > 0):
        raise ValueError(f"decay_hint must be positive and finite, got {decay_hint!r}")
    threshold = tol * 1e-3
    step = 1.0 / decay_hint
    limit = lo + 1e4 / decay_hint
    # probes lo + step, lo + 2 step, ... as Python floats, accumulated one step at a time
    y, step = float(lo + step), float(step)
    consecutive, trunc = 0, None
    while trunc is None and y <= limit:
        chunk = []
        while y <= limit and len(chunk) < _PROBE_CHUNK:
            chunk.append(y)
            y += step
        # map is lazy: the scalar scan calls f at no probe beyond the truncation point
        for p, fp in zip(chunk, f(np.array(chunk)) if vectorized else map(f, chunk)):
            consecutive = consecutive + 1 if abs(fp) < threshold else 0
            if consecutive == 3:
                trunc = p
                break
    if trunc is None:
        return QuadResult(math.nan, math.inf, 0, False)
    res = integrate_finite(f, lo, trunc, tol, vectorized=vectorized)
    tail_bound = threshold / decay_hint
    err = res.abs_error_estimate + tail_bound
    return QuadResult(res.value, err, res.subdivisions, bool(err <= tol + tail_bound))


# Members per chunk of a batch, and nodes per integrand call: together they
# hold a round's working set to a few MB whatever the batch size.
_BATCH_CHUNK = 256
_BATCH_NODES = 1 << 17
# Narrowest panel of the unit interval that is still split: much below it
# the nodes on a long member interval run together in double precision.
_MIN_WIDTH = 2.0 ** -40
# Panels of a chunk's shared bisection; E3's `Difference`, in t = sqrt(y - y0),
# takes at most 7 on the validate grid and 10 at x = 20..60 to tol 1e-12, and
# E5's convolution 1.
_BATCH_MAX_PANELS = 4000


def integrate_batch(f: Callable, lo, hi, tol) -> QuadResult:
    """Integrals of f over (lo[i], hi[i]) for every member i, each to absolute tolerance tol[i].

    lo, hi and tol broadcast to one 1-d array of members.  The members of
    a chunk share one adaptive bisection of the unit interval, mapped onto
    each member's own interval, so f is called once per refinement round
    (more often only when a round's nodes exceed the per-call budget):
    f(y, i) receives an (m, panels, 15) node array y and the (m,) indices
    i of the members it belongs to, and returns real or complex values of
    y's shape.  A panel is split when its error estimate exceeds tol[i]
    divided by the panel count for some unfinished member; a member
    retires once its summed estimate is within tol[i].  Members still
    unfinished when no panel can be split, or when splitting would pass
    _BATCH_MAX_PANELS, come back with converged False.  The result holds
    arrays over the members; `subdivisions` is each member's panel count.
    """
    lo, hi, tol = (np.atleast_1d(v).astype(float) for v in np.broadcast_arrays(lo, hi, tol))
    if lo.ndim != 1:
        raise ValueError("integrate_batch takes a 1-d batch of members")
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)) and np.all(lo <= hi)):
        raise ValueError("integrate_batch requires finite lo <= hi")
    n = lo.size
    value = np.zeros(n)
    err = np.empty(n)
    panels = np.empty(n, dtype=int)
    converged = np.empty(n, dtype=bool)
    for start in range(0, n, _BATCH_CHUNK):
        members = np.arange(start, min(start + _BATCH_CHUNK, n))
        for rows, v, e, p, ok in _batch_chunk(f, members, lo[members], hi[members] - lo[members],
                                              tol[members]):
            value = value.astype(np.result_type(value, v), copy=False)
            value[rows], err[rows], panels[rows], converged[rows] = v, e, p, ok
    return QuadResult(value, err, panels, converged)


def refuse_unconverged(res: QuadResult, x: np.ndarray, error: type, what: str) -> None:
    """Raise error, naming the first x values, if any member of the batch result res missed its tolerance."""
    bad = x[~res.converged]
    if bad.size:
        shown = ", ".join(f"{v:.6g}" for v in bad[:5]) + (f" and {bad.size - 5} more" if bad.size > 5 else "")
        raise error(f"{what} did not converge at x = {shown}")


def _batch_chunk(f, members, lo, width, tol):
    """Refine one chunk; yields (member rows, values, errors, panel count, converged) as members retire."""
    a, w = np.zeros(1), np.ones(1)  # left edges and widths of the panels of the unit interval
    live = np.arange(members.size)  # chunk rows still refining; v, e and the *_live arrays hold their rows only
    mem_live, lo_live, width_live, tol_live = members, lo, width, tol
    v, e = _batch_panels(f, mem_live, lo_live, width_live, a, w)
    while True:
        total = e.sum(axis=1)
        done = total <= tol_live
        if done.any():
            yield members[live[done]], v[done].sum(axis=1), total[done], a.size, True
            keep = ~done
            live, v, e = live[keep], v[keep], e[keep]
            if not live.size:
                return
            mem_live, lo_live, width_live, tol_live = members[live], lo[live], width[live], tol[live]
        split = np.any(e > tol_live[:, None] / a.size, axis=0) & (w > _MIN_WIDTH)
        n_split = np.count_nonzero(split)
        if not n_split or a.size + n_split > _BATCH_MAX_PANELS:
            break
        stay = ~split
        a_split, half = a[split], 0.5 * w[split]
        new_a = np.concatenate([a_split, a_split + half])
        new_w = np.concatenate([half, half])
        new_v, new_e = _batch_panels(f, mem_live, lo_live, width_live, new_a, new_w)
        a, w = np.concatenate([a[stay], new_a]), np.concatenate([w[stay], new_w])
        v = np.concatenate([v[:, stay], new_v], axis=1)
        e = np.concatenate([e[:, stay], new_e], axis=1)
    yield members[live], v.sum(axis=1), e.sum(axis=1), a.size, False


def _batch_panels(f, members, lo, width, a, w):
    """Kronrod values and |Kronrod - Gauss| errors, (members, panels), of f on the unit panels (a, a + w)."""
    step = max(1, _BATCH_NODES // (15 * members.size))
    lo3, width3, width2 = lo[:, None, None], width[:, None, None], 0.5 * width[:, None]
    vals, errs = [], []
    for j in range(0, a.size, step):
        u = a[j:j + step, None] + 0.5 * w[j:j + step, None] * _UNIT_NODES
        y = lo3 + width3 * u
        fy = np.asarray(f(y, members))
        half = width2 * w[None, j:j + step]
        k = half * (fy @ _WEIGHTS_K)
        vals.append(k)
        errs.append(np.abs(k - half * (fy @ _WEIGHTS_G)))
    if len(vals) == 1:
        return vals[0], errs[0]
    return np.concatenate(vals, axis=1), np.concatenate(errs, axis=1)


def frullani(a: float, b: float) -> float:
    """Closed form of int_0^inf (e^{-a y} - e^{-(a+b) y}) / y dy = ln((a+b)/a)."""
    if a <= 0 or b < 0:
        raise ValueError("frullani requires a > 0 and b >= 0")
    return math.log((a + b) / a)


def expm1_over(b: float, y):
    """(e^{b y} - 1)/y, y real or complex, with a three-term series below |b y| < 1e-4; a scalar gives a scalar."""
    ya = np.asarray(y, dtype=np.result_type(y, float))
    small = np.abs(b * ya) < 1e-4
    safe = np.where(small, 1.0, ya)
    direct = np.expm1(b * safe) / safe
    series = b + b * b * ya / 2.0 + b**3 * ya * ya / 6.0
    out = np.where(small, series, direct)
    return out.item() if np.isscalar(y) or getattr(y, "ndim", 1) == 0 else out
