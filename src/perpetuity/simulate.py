"""Monte Carlo engine for the recursion X_n = A_n X_{n-1} + B_n.

Batches are a pure function of (config, joint input): the sample index
space is pre-partitioned into fixed chunks and each chunk owns a
PCG64DXSM stream seeded from (master_seed, chunk index), so the output is
bitwise identical for any worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .distributions import (
    JointInput,
    NoClosedForm,
    PointMass,
    ScalarDistribution,
    _exp_tilted_survival,
    sample_pair,
)

__all__ = [
    "SimConfig",
    "SampleBatch",
    "TailEstimate",
    "ConvergenceVerdict",
    "sample_batch",
    "check_convergence",
    "empirical_tail",
    "estimate_exp_moment",
    "median_of_means",
    "stochastic_upper_bound",
]

CHUNK = 1 << 16
MAX_TERMS_LIMIT = 2**31 - 1  # the most terms an int32 count holds
CSV_BLOCK = 8192  # values formatted per string in SampleBatch.to_csv
# the levels of the sample quantiles where `tail --verify` and `validate` read the tail by default
TAIL_LEVELS = (0.99, 0.997, 0.999, 0.9997, 0.9999)


@dataclass(frozen=True)
class SimConfig:
    n_samples: int
    master_seed: int
    truncation_eps: float = 1e-16
    max_terms: int = 1_000_000
    n_streams: int = 1


@dataclass
class SampleBatch:
    """n draws: `values` (float64), `terms_used` (int32, the terms each draw took) and `truncated` (bool, cut at
    `max_terms`), 13 bytes per draw."""

    values: np.ndarray
    terms_used: np.ndarray
    truncated: np.ndarray
    seed_provenance: dict

    @property
    def truncation_report(self):
        return {
            "mean_terms": float(self.terms_used.mean()) if self.values.size else 0.0,
            "n_truncated": int(self.truncated.sum()),
        }

    def to_csv(self, path, config_hash: str, seed: int):
        with open(path, "w") as fh:
            fh.write(f"# config_hash={config_hash} master_seed={seed}\n")
            fh.write("x\n")
            # the bytes np.savetxt(fmt="%.17g") writes, one string per block and not one per row
            for lo in range(0, self.values.size, CSV_BLOCK):
                block = self.values[lo:lo + CSV_BLOCK].tolist()
                fh.write(("%.17g\n" * len(block)) % tuple(block))


@dataclass
class TailEstimate:
    x: float
    p_hat: float
    std_err: float
    count: int  # draws above x


def _chunk_rng(master_seed: int, chunk_index: int) -> np.random.Generator:
    """The chunk's own stream: PCG64DXSM on SeedSequence(master_seed, spawn_key=(chunk_index,)).

    Each chunk is seeded from its spawn key, so no stream is ever advanced
    or jumped and a counter-based generator buys nothing; PCG64DXSM is the
    generator numpy recommends for many parallel streams, and its uniform
    and exponential draws take about 60% and 80% of Philox's time (numpy
    2.4.6, 65,536-draw batches, a 2-core Xeon VM).
    """
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(chunk_index),))
    return np.random.Generator(np.random.PCG64DXSM(ss))


def _constant_a_chunk(gamma: float, B: ScalarDistribution, cfg: SimConfig, rng, values, terms, truncated):
    """A == gamma: every draw retires at the same term, so add gamma^{k-1} B_k row by row."""
    values[:] = 0.0
    pi = 1.0
    k = 0
    converged = False
    while k < cfg.max_terms and not converged:
        k += 1
        b = B.sample(rng, values.size)
        b *= pi
        values += b
        del b  # at most one term's draws are alive: this one is dropped before the next is drawn
        pi *= gamma
        converged = not abs(pi) > cfg.truncation_eps
    terms[:] = k
    truncated[:] = not converged


def _simulate_chunk(joint: JointInput, cfg: SimConfig, chunk_index: int, values, terms, truncated):
    """Fill one chunk's slices of the batch's values, terms_used and truncated."""
    rng = _chunk_rng(cfg.master_seed, chunk_index)
    if joint.independent and isinstance(joint.A, PointMass):
        _constant_a_chunk(float(joint.A.value), joint.B, cfg, rng, values, terms, truncated)
        return
    # Live draws only: (x, pi, idx) are compacted as draws retire, and a
    # draw's x and term count are written out once, when it retires.  With
    # independent draws of an A >= 0 every product is >= 0 or NaN, and for
    # those `pi > eps` decides as `|pi| > eps` does, without the abs pass.
    nonnegative = joint.independent and joint.A.support()[0] >= 0.0
    m = values.size
    x = np.zeros(m)
    pi = np.ones(m)
    idx = np.arange(m)
    k = 0
    while idx.size and k < cfg.max_terms:
        k += 1
        a, b = sample_pair(joint, rng, idx.size)
        b *= pi
        x += b
        pi *= a
        live = (pi if nonnegative else np.abs(pi, out=b)) > cfg.truncation_eps
        del a, b  # the term's draws are not held across the compaction or the next draw
        if not live.all():
            done = ~live
            gone = idx[done]
            values[gone] = x[done]
            terms[gone] = k
            del done, gone
            # one array at a time, so that at most one old copy is alive
            x = x[live]
            pi = pi[live]
            idx = idx[live]
        del live
    values[idx] = x
    terms[idx] = k
    truncated[:] = False
    truncated[idx] = True


def sample_batch(joint: JointInput, cfg: SimConfig) -> SampleBatch:
    """cfg.n_samples independent draws, deterministic given master_seed."""
    if not cfg.max_terms <= MAX_TERMS_LIMIT:
        raise ValueError(f"max_terms = {cfg.max_terms!r} does not fit terms_used's int32 (at most {MAX_TERMS_LIMIT})")
    n = int(cfg.n_samples)
    values = np.empty(n)
    terms = np.empty(n, dtype=np.int32)
    truncated = np.empty(n, dtype=bool)
    bounds = [(i, min(i + CHUNK, n)) for i in range(0, n, CHUNK)]

    def run(j):
        lo, hi = bounds[j]
        _simulate_chunk(joint, cfg, j, values[lo:hi], terms[lo:hi], truncated[lo:hi])

    # a thread per chunk or per core at most: each holds its chunk's arrays
    workers = min(cfg.n_streams, len(bounds), os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, range(len(bounds))))
    else:
        for j in range(len(bounds)):
            run(j)
    prov = {"master_seed": cfg.master_seed, "chunk_size": CHUNK, "n_chunks": len(bounds)}
    return SampleBatch(values, terms, truncated, prov)


# ---------------------------------------------------------------------------
# Convergence check (Goldie-Maller conditions)
# ---------------------------------------------------------------------------

@dataclass
class ConvergenceVerdict:
    verdict: str  # "converges" | "diverges" | "unknown"
    e_log_abs_A: Optional[float]
    evidence: list = field(default_factory=list)


def check_convergence(joint: JointInput) -> ConvergenceVerdict:
    """E log|A| < 0 and E log(1+|B|) < inf imply a.s. convergence of the series.

    Both facts are read off the tree and nothing is drawn: E log|A| >= 0
    diverges, and a law that states no E log|A| gives "unknown".
    """
    A = joint.A_marginal()
    B = joint.B
    ela = A.log_abs_moment()
    ev = ["E log|A| not symbolically derivable" if ela is None else f"E log|A| = {ela:.6g} (symbolic)"]
    log_b = B.log1p_neg_moment_finite()
    # E log(1+|B|) also needs the right tail; any finite-MGF neighbourhood or
    # bounded support settles it.
    right_ok = B.support()[1] < math.inf or B.mgf_domain()[1] > 0
    if log_b is True and right_ok:
        ev.append("E log(1+|B|) < inf (symbolic)")
        log_finite = True
    else:
        log_finite = None
        ev.append("E log(1+|B|) not symbolically settled")
    if ela is not None and ela >= 0:
        ev.append("E log|A| >= 0: the series diverges")
        return ConvergenceVerdict("diverges", ela, ev)
    if ela is not None and log_finite:
        return ConvergenceVerdict("converges", ela, ev)
    return ConvergenceVerdict("unknown", ela, ev)


# ---------------------------------------------------------------------------
# Tail estimators and exponential moments
# ---------------------------------------------------------------------------

def empirical_tail(batch: SampleBatch, xs) -> list[TailEstimate]:
    """1 - #{draws <= x}/n at each x, with its binomial std_err and the count of draws above x;
    a NaN sorts above every number, as in np.sort.

    One sort of the draws and a binary search per x: O(n log n + k log n)
    for n draws and k points, where a counting pass per x is O(n k).
    """
    return _tail_of_sorted(np.sort(batch.values), xs)


def _tail_of_sorted(sorted_values: np.ndarray, xs) -> list[TailEstimate]:
    """empirical_tail of draws already sorted by np.sort, for a caller that reads more off the one sorted copy."""
    if sorted_values.size == 0:
        raise ValueError("empirical_tail needs a nonempty batch")
    n = sorted_values.size
    xa = np.atleast_1d(np.asarray(xs, dtype=float))
    below = np.searchsorted(sorted_values, xa, side="right")
    out = []
    for x, b in zip(xa.tolist(), below.tolist()):
        p = 1.0 - b / n
        se = math.sqrt(max(p * (1 - p), 0.0) / n)
        out.append(TailEstimate(x, p, se, n - b))
    return out


def median_of_means(values: np.ndarray):
    """Robust mean estimate over 32 blocks; std_err from the block spread."""
    n_blocks = 32
    v = np.asarray(values, dtype=float)
    n = v.size
    if n < n_blocks:
        return float(v.mean()), float(v.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    usable = (n // n_blocks) * n_blocks
    blocks = v[:usable].reshape(n_blocks, -1)
    means = blocks.mean(axis=1)
    est = float(np.median(means))
    # sqrt(pi/2) inflation: the median of (approximately normal) block means.
    se = float(np.std(means, ddof=1) / math.sqrt(n_blocks) * math.sqrt(math.pi / 2.0))
    return est, se


@dataclass
class ExpMomentEstimate:
    r: float
    estimate: float
    std_err: float
    max_fraction_trace: list
    suspect_infinite: bool
    n_clamped: int


def estimate_exp_moment(joint: JointInput, cfg: SimConfig, r: float) -> ExpMomentEstimate:
    """Sample mean of e^{r X} with a largest-summand stability diagnostic.

    The diagnostic can flag a suspect-infinite moment but never proves
    divergence; authoritative verdicts come from the criteria module.
    """
    if r == 0.0:
        return ExpMomentEstimate(0.0, 1.0, 0.0, [], False, 0)
    batch = sample_batch(joint, cfg)
    expo = r * batch.values
    n_clamped = int((expo > 700.0).sum())
    # e^{min(expo, 700)}, in place on the fresh expo
    w = np.exp(np.minimum(expo, 700.0, out=expo), out=expo)
    n = w.size
    trace = []
    for frac in (16, 8, 4, 2, 1):
        m = n // frac
        if m == 0:
            continue
        chunk = w[:m]
        trace.append(float(chunk.max() / chunk.sum()))
    # A finite exponential moment drives max/sum toward 0; an infinite one
    # leaves it bounded away from 0 (the largest draw stays comparable to
    # the whole sum).  A clamped exponent is always suspicious.
    suspect = bool(n_clamped > 0 or (trace and trace[-1] > 0.05))
    est = float(w.mean())
    se = float(w.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return ExpMomentEstimate(r, est, se, trace, suspect, n_clamped)


# ---------------------------------------------------------------------------
# Stochastic upper bound (executable form of the coupling lemma)
# ---------------------------------------------------------------------------

@dataclass
class StochasticBound:
    q: float
    d: float
    x0: float

    def sample_Z(self, B: ScalarDistribution, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw Z = (B' + d) 1{B' > q} conditioned on Z >= x0, by inverting B's survival."""
        m = max(self.q, self.x0 - self.d)
        u = rng.random(size) * B.survival(m)
        return np.asarray(B.inverse_survival(u)) + self.d

    def survival_Z(self, B: ScalarDistribution, x):
        m = max(self.q, self.x0 - self.d)
        s_m = B.survival(m)
        xa = np.asarray(x, dtype=float)
        out = np.where(xa < self.x0, 1.0, np.asarray(B.survival(np.maximum(xa - self.d, m))) / s_m)
        return out if xa.ndim else float(out)


def _e_exp_bB_above(B: ScalarDistribution, b: float, q: float) -> float:
    """E e^{bB} 1{B > q} for laws with a survival handle, by quadrature.

    Refused at once (NoClosedForm) for b past the end of B's MGF domain, as
    SurvivalDefined.mgf refuses there: the survival handle cannot decide such
    a b, and the quadrature would only find out after ~3e5 evaluations.  At b
    equal to the end the value is low while the quadrature reports
    convergence: for the poly-exp law at its decay rate 1 it reads 1/(1+q) +
    1/(1+q)^2 - 1.364e-3 for q = 1 to 3, because S underflows near y = 745
    and the lost int (1+y)^{-2} dy, about 1/746, is not counted.
    """
    from .quadrature import integrate_semi_infinite

    _, dom_hi = B.mgf_domain()
    if b > dom_hi:
        raise NoClosedForm(f"E e^{{bB}} 1{{B > {q:g}}}: b = {b:g} is past the MGF domain's end {dom_hi:g}")
    hint = max(dom_hi - b, 1e-3)
    f = _exp_tilted_survival(B.survival, b)
    res = integrate_semi_infinite(f, q, 1e-9, hint)
    if not res.converged:
        raise NoClosedForm(f"E e^{{bB}} 1{{B > {q:g}}}: quadrature did not converge")
    return f(q) + b * res.value


def stochastic_upper_bound(
    joint: JointInput,
    b: float,
    e_bB_at_A1: float = 0.0,
    seed: int = 71,
) -> StochasticBound:
    """Construct (q, d, x0) so that Z = (B'+d) 1{B'>q} | Z >= x0 dominates AZ+B.

    q and d satisfy the two defining inequalities numerically; x0 is found
    by grid search on smoothed estimates of P{AY+B>x} vs P{Y>x}.
    """
    B = joint.B
    n_probe = 200_000
    q = 1.0
    while True:
        tail_term = _e_exp_bB_above(B, b, q)
        if e_bB_at_A1 + tail_term < 0.98:
            break
        q += 0.5
        if q > 200:
            raise RuntimeError("no admissible threshold q found")
    margin = 1.0 - e_bB_at_A1 - tail_term
    p_below = 1.0 - B.survival(q)
    d = math.log(p_below / margin) / b + 0.25
    d = max(d, 0.1)

    rng = np.random.default_rng(seed)
    if joint.independent:
        a = joint.A.sample(rng, n_probe)
    else:
        a = np.full(n_probe, joint.dependence.zeta1)
    # Y draws: conditional B' | B' > q, shifted by d, with atom at 0.
    s_q = B.survival(q)
    u = rng.random(n_probe)
    y = np.zeros(n_probe)
    hit = u < s_q
    if hasattr(B, "inverse_survival"):
        y[hit] = np.asarray(B.inverse_survival(u[hit])) + d
    else:
        raise NoClosedForm("stochastic_upper_bound needs an invertible survival for B")

    def surv_Y(x):
        return B.survival(max(x - d, q))

    def smoothed_lhs(x):
        return float(np.mean(np.asarray(B.survival(x - a * y))))

    # x0: past the last grid point where domination fails.
    grid = np.linspace(0.5, q + d + 30.0 / b, 300)
    bad = [x for x in grid if smoothed_lhs(float(x)) > surv_Y(float(x))]
    if bad and bad[-1] >= grid[-2]:
        raise RuntimeError("grid search found no crossover point x0")
    x0 = float(bad[-1] + (grid[1] - grid[0])) if bad else float(grid[0])
    return StochasticBound(q=q, d=d, x0=x0)
