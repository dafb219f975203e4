"""Invariants of laws drawn from the tree grammar, checked on every fact a drawn law answers.

Trees are at most three levels deep: a leaf from VARIANTS, an `Affine` map of
either sign with an offset, a `Mixture` of 2-3 parts (atoms and exponentials
among them, so that some mixtures state an exponential tail) or a
`Difference` of two subtrees.  For each tree, every fact that answers is held
to the law's own draws or to its survival; a fact that does not answer must
refuse with NoClosedForm or None, never another exception.  A law that states
an exponential tail, as B beside A ~ Beta(2, 1), gets a finite positive thm2_K
constant or a PredictionRefused.  At each fixed s strictly inside
`mgf_domain()` the MGF is finite and positive, and where 2s is inside too,
so that e^{sD} has a finite variance, it lies within 5 standard errors of
the draws' mean of e^{sD}.
"""

import math
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from perpetuity.asymptotics import PredictionRefused, thm2_inputs, thm2_K
from perpetuity.distributions import Affine, Beta, Difference, Exponential, JointInput, Mixture, NoClosedForm, PointMass
from test_distributions import VARIANTS

N_TREES = 300
N_DRAWS = 100_000
FACTS = ("support", "survival", "ecdf", "atoms", "exp_tail", "prob_below", "thm2_K", "mgf", "mgf vs draws")
MGF_S = (-0.45, -0.15, 0.15, 0.45)

_LEAF = st.sampled_from(list(VARIANTS.values()))
_ATOM = st.builds(PointMass, st.sampled_from([-1.25, 0.0, 0.4, 1.5]))
_EXP = st.builds(Exponential, st.sampled_from([0.8, 1.3, 2.0, 3.5]))
_SCALE = st.builds(lambda m, neg: -m if neg else m, st.floats(0.25, 3.0), st.booleans())
_OFFSET = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))


def _mixture(parts):
    return st.lists(st.tuples(st.integers(1, 9), parts), min_size=2, max_size=3).map(
        lambda ps: Mixture(tuple((k / sum(k for k, _ in ps), d) for k, d in ps)))


def _laws(depth):
    if depth == 0:
        return _LEAF
    sub = _laws(depth - 1)
    return st.one_of(_LEAF,
                     st.builds(Affine, sub, _SCALE, _OFFSET),
                     _mixture(st.one_of(sub, _ATOM, _EXP)),
                     st.builds(Difference, sub, sub))


LAWS = _laws(3)
# the x grid of the closed facts, with endpoints of many digits so that it misses the atoms' sums of round values
_HALF = np.geomspace(0.0137183, 7.28416, 14)
GRID = np.concatenate([-_HALF[::-1], _HALF])


def _by_quadrature(d):
    """Whether d's survival may run a quadrature: a Difference outside the closed class with a continuous part."""
    if isinstance(d, Affine):
        return _by_quadrature(d.inner)
    if isinstance(d, Mixture):
        return any(_by_quadrature(c) for _, c in d.components)
    if isinstance(d, Difference):
        return (_by_quadrature(d.left) or _by_quadrature(d.right)
                or (d.exp_weights() is None and None in (d.left.atoms(), d.right.atoms())))
    return False


def _ask(fact):
    """fact(), or None when it refuses with NoClosedForm; any other exception fails the test."""
    try:
        return fact()
    except NoClosedForm:
        return None


def _check(law, reached):
    # two quadratures of the same value differ at about 1e-9; closed forms agree to rounding
    tol = 1e-8 if _by_quadrature(law) else 1e-12
    lo, hi = law.support()
    draws = law.sample(np.random.default_rng(5), N_DRAWS)
    assert np.all((draws >= lo) & (draws <= hi)), (lo, hi, draws.min(), draws.max())
    reached["support"] += 1

    qs = np.quantile(draws, np.linspace(0.05, 0.95, 10))
    grid = np.unique(np.concatenate([GRID, qs]))
    s = _ask(lambda: np.asarray(law.survival(grid)))
    if s is not None:
        assert np.all((s >= -tol) & (s <= 1.0 + tol)), s
        assert np.all(np.diff(s) <= tol), s
        reached["survival"] += 1
        # the ECDF at sample quantiles, within 5 sigma (several hundred checks make 4 sigma a false alarm)
        p, p_hat = s[np.searchsorted(grid, qs)], (draws[:, None] > qs).mean(axis=0)
        assert np.all(np.abs(p_hat - p) <= 5.0 * np.sqrt(p * (1.0 - p) / N_DRAWS) + tol), (qs, p, p_hat)
        reached["ecdf"] += 1

    atoms = law.atoms()
    if atoms is not None:
        for v, w in atoms.items():
            freq = np.count_nonzero(draws == v) / N_DRAWS
            assert abs(freq - w) <= 5.0 * math.sqrt(w * (1.0 - w) / N_DRAWS) + 1e-12, (v, w, freq)
        reached["atoms"] += 1

    def check(got, xs, rtol=0.0):
        """got = P{D > x} at each x of GRID: against survival, or, where survival refuses, the ECDF's 5 sigma
        band widened by 5/N_DRAWS (the band closes where the ECDF reads 0 or 1)."""
        if s is None:
            want = (draws[:, None] > xs).mean(axis=0)
            band = 5.0 * np.sqrt(want * (1.0 - want) / N_DRAWS) + 5.0 / N_DRAWS
            assert np.all(np.abs(got - want) <= band), (xs, got, want)
        else:
            np.testing.assert_allclose(got, s[np.searchsorted(grid, xs)], rtol=rtol, atol=tol)

    tail = _ask(law.exp_tail)
    if tail is not None:
        xs = GRID[GRID >= 0.0]
        check(tail.C * np.exp(-tail.b * xs) + np.asarray(tail.r(xs)), xs, rtol=1e-9)
        reached["exp_tail"] += 1
        inputs = thm2_inputs(JointInput(Beta(2.0, 1.0), law))
        left, hint = inputs[2:]
        assert (left is None and hint is None) if lo >= 0.0 else hint > 0.0
        try:
            K = thm2_K(*inputs).constant
        except PredictionRefused:
            reached["thm2_K refused"] += 1
        else:
            assert 0.0 < K < math.inf, K
            reached["thm2_K"] += 1

    # P{D < y}, which is 1 - P{D > y} off the atoms
    below = _ask(lambda: np.asarray(law.prob_below(GRID)))
    if below is not None:
        check(1.0 - below, GRID)
        reached["prob_below"] += 1

    s_lo, s_hi = law.mgf_domain()
    inside = [v for v in MGF_S if s_lo < v < s_hi]
    mgf = _ask(lambda: [law.mgf(v) for v in inside])
    if inside and mgf is not None:
        assert all(0.0 < m < math.inf for m in mgf), (inside, mgf)
        reached["mgf"] += 1
        pairs = [(v, m) for v, m in zip(inside, mgf) if s_lo < 2.0 * v < s_hi]
        for v, m in pairs:
            w = np.exp(v * draws)
            # plus rounding: a point mass has no spread
            assert abs(m - w.mean()) <= 5.0 * w.std(ddof=1) / math.sqrt(N_DRAWS) + 1e-12 * m, (v, m, w.mean())
        reached["mgf vs draws"] += bool(pairs)


def test_generated_trees_keep_every_invariant_they_answer():
    reached = Counter()

    @settings(max_examples=N_TREES, deadline=None)
    @given(law=LAWS)
    def check(law):
        _check(law, reached)

    check()
    print("trees reaching each fact:", {f: reached[f] for f in FACTS}, "thm2_K refused:", reached["thm2_K refused"])
    # every fact is reached by some drawn tree, and most trees answer survival
    assert all(reached[f] > 0 for f in FACTS), reached
    assert reached["survival"] >= N_TREES // 2, reached
