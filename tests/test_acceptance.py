"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run with -s to see them) and asserts
the same condition, so the suite doubles as a human-readable report.
"""

import math
import time

import numpy as np
import pytest
from scipy import special

from perpetuity.asymptotics import perpetuity_cf, stochastic_upper_bound, thm1_constant, thm2_K
from perpetuity.criteria import dispatch_exp_moment
from perpetuity.distributions import (
    Beta,
    Difference,
    ExpPlusRemainder,
    Exponential,
    GammaLike,
    JointInput,
    Mixture,
    PointMass,
    SurvivalDefined,
    Uniform,
)
from perpetuity.quadrature import frullani, integrate_semi_infinite
from perpetuity.simulate import (
    SimConfig,
    estimate_exp_moment,
    sample_batch,
)

from conftest import ks_distance


def report(num: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num}: {label}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"criterion {num}: {label} ({detail})"


def test_criterion_01_gamma_identity():
    joint = JointInput(Beta(2.0, 1.0), Exponential(1.0))
    t0 = time.time()
    batch = sample_batch(joint, SimConfig(n_samples=1_000_000, master_seed=42, n_streams=1))
    ks = ks_distance(batch.values, lambda x: special.gammainc(3.0, np.maximum(x, 0.0)))
    elapsed = time.time() - t0
    report(1, "gamma identity, KS < 0.003 in under 30 s single-threaded",
           ks < 0.003 and elapsed < 30.0, f"KS={ks:.5f}, {elapsed:.1f}s")


def test_criterion_02_constant_coefficient_exact_tail():
    from perpetuity.distributions import Negated

    # four-part increment for coefficient 0.5 and rates (1, 2)
    B = Mixture((
        (0.25, PointMass(0.0)),
        (0.25, Exponential(1.0)),
        (0.25, Negated(Exponential(2.0))),
        (0.25, Difference(Exponential(1.0), Exponential(2.0))),
    ))
    joint = JointInput(PointMass(0.5), B)
    batch = sample_batch(joint, SimConfig(n_samples=1_000_000, master_seed=42, n_streams=4))
    n = batch.values.size
    ok = True
    details = []
    for x in (1.0, 2.0, 3.0):
        p = (2.0 / 3.0) * math.exp(-x)
        p_hat = float((batch.values > x).mean())
        se = math.sqrt(p * (1.0 - p) / n)
        ok &= abs(p_hat - p) <= 3.0 * se
        details.append(f"x={x:g}: {(p_hat - p) / se:+.2f} sigma")
    report(2, "constant-coefficient tail matches (2/3) e^{-x} at x in {1,2,3}",
           ok, "; ".join(details))


def test_criterion_03_constant_vs_closed_form():
    pred1 = thm2_K(
        1.0,
        ExpPlusRemainder(C=0.5, b=1.0),
        left_tail=lambda y: 0.5 * np.exp(np.minimum(np.asarray(y, dtype=float), 0.0)),
        left_decay_hint=1.0,
    )
    target1 = 1.0 / math.sqrt(2.0 * math.pi)
    rel1 = abs(pred1.constant - target1) / target1

    c1, c2 = 7.0 / 12.0, 5.0 / 12.0
    pred2 = thm2_K(
        1.0,
        ExpPlusRemainder(C=c1 / 2.0, b=1.0,
                         r=lambda y: (c2 / 2.0) * np.exp(-2.0 * np.asarray(y, dtype=float)),
                         r_decay_margin=1.0),
        left_tail=lambda y: 0.5 * (c1 * np.exp(np.asarray(y, dtype=float))
                                   + c2 * np.exp(2.0 * np.asarray(y, dtype=float))),
        left_decay_hint=1.0,
    )
    target2 = ((c1 / 2.0) * (0.5 ** (c1 / 2.0)) * ((4.0 / 3.0) ** (c2 / 2.0))
               / math.gamma(c1 / 2.0 + 1.0))
    rel2 = abs(pred2.constant - target2) / target2
    report(3, "quadrature constants match closed forms (1e-6 and 1e-4 relative)",
           rel1 < 1e-6 and rel2 < 1e-4, f"rel1={rel1:.2e}, rel2={rel2:.2e}")


def test_criterion_04_log_ratio_integrals():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(50):
        a, b = rng.uniform(0.1, 10.0, size=2)
        f = lambda y: (math.exp(-a * y) - math.exp(-(a + b) * y)) / y if y > 0 else b
        res = integrate_semi_infinite(f, 0.0, 1e-11, a)
        worst = max(worst, abs(res.value - frullani(a, b)) / abs(frullani(a, b)))
    report(4, "50 exponential-ratio integrals reproduce ln((a+b)/a) to 1e-8",
           worst < 1e-8, f"worst rel err {worst:.2e}")


def test_criterion_05_characteristic_function():
    joint = JointInput(Beta(1.0, 1.0), Difference(Exponential(2.0), Exponential(1.0)))
    worst_closed = 0.0
    for t in (0.5, 1.0, 2.0):
        closed = (2.0 / (2.0 - 1j * t)) ** (4.0 / 3.0) * (1.0 / (1.0 + 1j * t)) ** (5.0 / 3.0)
        worst_closed = max(worst_closed, abs(perpetuity_cf(joint, t) - closed))
    batch = sample_batch(joint, SimConfig(n_samples=1_000_000, master_seed=505, n_streams=4))
    worst_emp = 0.0
    for t in (0.5, 1.0, 2.0):
        emp = complex(np.exp(1j * t * batch.values).mean())
        worst_emp = max(worst_emp, abs(emp - perpetuity_cf(joint, t)))
    report(5, "characteristic function matches closed form (1e-6) and empirical CF (0.005)",
           worst_closed < 1e-6 and worst_emp < 0.005,
           f"closed {worst_closed:.2e}, empirical {worst_emp:.2e}")


def test_criterion_06_verdict_table_with_mc_diagnostics():
    from perpetuity.distributions import Negated  # noqa: F401

    def atoms(*pairs):
        return Mixture(tuple((w, PointMass(v)) for v, w in pairs))

    examples = [
        (JointInput(Beta(2.0, 1.0), Exponential(1.0)), 0.5, "Finite"),
        (JointInput(Beta(2.0, 1.0), Exponential(1.0)), 1.5, "Infinite"),
        (JointInput(Mixture(((0.5, PointMass(1.0)), (0.5, Uniform(0.0, 1.0)))), Exponential(2.0)), 1.0, "Infinite"),
        (JointInput(atoms((0.5, 0.5), (-0.5, 0.5)), Exponential(2.0)), 1.0, "Finite"),
        (JointInput(PointMass(-0.5), Exponential(1.0)), 0.5, "Finite"),
        (JointInput(PointMass(-0.5), Exponential(1.0)), 1.2, "Infinite"),
        (JointInput(PointMass(0.5), Exponential(2.0)), 1.0, "Finite"),
        (JointInput(atoms((-1.0, 0.3), (0.5, 0.7)), PointMass(0.1)), 1.0, "Finite"),
        (JointInput(atoms((-1.0, 0.999), (0.5, 0.001)), Exponential(1.0)), 0.9, "Infinite"),
    ]
    ok = True
    bad = []
    for i, (joint, r, want) in enumerate(examples):
        v = dispatch_exp_moment(joint, r)
        est = estimate_exp_moment(joint, SimConfig(n_samples=50_000, master_seed=1234, max_terms=2000), r)
        verdict_ok = v.verdict == want
        diag_ok = est.suspect_infinite == (want == "Infinite")
        if not (verdict_ok and diag_ok):
            bad.append(f"#{i}: verdict {v.verdict}/{want}, suspect {est.suspect_infinite}")
        ok &= verdict_ok and diag_ok
    report(6, "9 worked verdicts exact and MC diagnostics directionally agree",
           ok, "; ".join(bad) if bad else "9/9")


def test_criterion_07_fixed_point_identity():
    joint = JointInput(PointMass(0.5), Exponential(1.0))
    n = 1_000_000
    lhs = np.exp(0.5 * sample_batch(joint, SimConfig(n_samples=n, master_seed=101, n_streams=4)).values)
    x_prime = sample_batch(joint, SimConfig(n_samples=n, master_seed=202, n_streams=4)).values
    b = Exponential(1.0).sample(np.random.default_rng(303), n)
    rhs = np.exp(0.5 * b) * np.exp(0.5 * 0.5 * x_prime)
    diff = abs(float(lhs.mean()) - float(rhs.mean()))
    sigma = math.hypot(float(lhs.std(ddof=1)), float(rhs.std(ddof=1))) / math.sqrt(n)
    report(7, "one-step moment identity holds within 3 sigma",
           diff <= 3.0 * sigma, f"diff={diff:.4f}, 3sigma={3 * sigma:.4f}")


def test_criterion_08_product_constant_tail_ratio():
    joint = JointInput(PointMass(0.5), Exponential(1.0))
    t0 = time.time()
    batch = sample_batch(joint, SimConfig(n_samples=10_000_000, master_seed=404, n_streams=4))
    p_hat = float((batch.values > 8.0).mean())
    elapsed = time.time() - t0
    ratio = p_hat / (3.46275 * math.exp(-8.0))
    report(8, "tail ratio at x=8 against the product constant in [0.85, 1.15], under 2 min",
           0.85 <= ratio <= 1.15 and elapsed < 120.0, f"ratio={ratio:.4f}, {elapsed:.0f}s")


def test_criterion_09_smoothed_constant_pipeline():
    S = lambda x: (1.0 + np.asarray(x, dtype=float)) ** -2 * np.exp(-np.asarray(x, dtype=float))
    B = SurvivalDefined(S, 0.0, 1.0, "poly-exp")
    joint = JointInput(Uniform(0.0, 1.0), B)
    tail = GammaLike(1.0, -2.0, 1.0)
    p1 = thm1_constant(joint, tail, SimConfig(n_samples=200_000, master_seed=5))
    p2 = thm1_constant(joint, tail, SimConfig(n_samples=200_000, master_seed=6))
    sigma = math.hypot(p1.std_err, p2.std_err)
    repro_ok = abs(p1.constant - p2.constant) <= 3.0 * sigma

    batch = sample_batch(joint, SimConfig(n_samples=10_000_000, master_seed=7, n_streams=4))
    x_star = float(np.quantile(batch.values, 1.0 - 1e-4))
    p_hat = float((batch.values > x_star).mean())
    # ratio against the pipeline's own prediction, constant * x^c e^{-bx}
    ratio = p_hat / p1.form(x_star)
    report(9, "smoothed-moment constant reproducible and deep-tail ratio in [0.8, 1.2]",
           repro_ok and 0.8 <= ratio <= 1.2,
           f"const {p1.constant:.4f}/{p2.constant:.4f}, ratio={ratio:.3f} at x={x_star:.2f}")


def test_criterion_10_stochastic_domination_bound():
    S = lambda x: (1.0 + np.asarray(x, dtype=float)) ** -2 * np.exp(-np.asarray(x, dtype=float))
    B = SurvivalDefined(S, 0.0, 1.0, "poly-exp")
    joint = JointInput(Uniform(0.0, 1.0), B)
    bound = stochastic_upper_bound(joint, GammaLike(1.0, -2.0, 1.0), seed=71)
    rng = np.random.default_rng(99)
    n = 1_000_000
    z = bound.sample_Z(B, rng, n)
    a = joint.A.sample(rng, n)
    b = B.sample(rng, n)
    ok = True
    worst = -math.inf
    for x in np.linspace(bound.x0, bound.x0 + 15.0, 20):
        lhs = float((a * z + b > x).mean())
        rhs = float(bound.survival_Z(B, float(x)))
        se = math.sqrt(max(lhs * (1.0 - lhs), 1e-12) / n)
        worst = max(worst, lhs - rhs - 3.0 * se)
        ok &= lhs <= rhs + 3.0 * se
    report(10, "constructed dominating law beats one recursion step at 20 grid points",
           ok, f"worst margin {worst:.2e}")


def test_criterion_11_determinism_across_stream_counts(tmp_path):
    joint = JointInput(Beta(2.0, 1.0), Exponential(1.0))
    blobs = []
    for streams in (1, 4, 8):
        batch = sample_batch(joint, SimConfig(n_samples=200_000, master_seed=42, n_streams=streams))
        path = tmp_path / f"s{streams}.csv"
        batch.to_csv(path, "abc123", 42)
        blobs.append(path.read_bytes())
    report(11, "sample CSVs byte-identical for 1, 4 and 8 streams",
           blobs[0] == blobs[1] == blobs[2])
