"""Monte Carlo engine for the recursion X_n = A_n X_{n-1} + B_n.

Batches are a pure function of (config, joint input): the sample index
space is pre-partitioned into fixed chunks and each chunk owns a
PCG64DXSM stream seeded from (master_seed, chunk index), so the output is
bitwise identical for any worker count.  By default a batch draws on
every core: the calling thread and one helper thread per further core
take chunks until none are left.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .distributions import (
    JointInput,
    PointMass,
    ScalarDistribution,
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
    n_streams: Optional[int] = None  # threads drawing chunks; None: one per core


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
    """cfg.n_samples independent draws, deterministic given master_seed.

    The chunks are drawn by min(n_streams, chunks, cores) threads, the
    calling thread and a helper for each further one, each taking the next
    chunk index from one shared counter.  A chunk fills its own slices from
    its own stream, so the thread that draws it changes no bit.
    """
    if not cfg.max_terms <= MAX_TERMS_LIMIT:
        raise ValueError(f"max_terms = {cfg.max_terms!r} does not fit terms_used's int32 (at most {MAX_TERMS_LIMIT})")
    n = int(cfg.n_samples)
    values = np.empty(n)
    terms = np.empty(n, dtype=np.int32)
    truncated = np.empty(n, dtype=bool)
    bounds = [(i, min(i + CHUNK, n)) for i in range(0, n, CHUNK)]
    todo = iter(range(len(bounds)))
    lock = threading.Lock()

    def drain():
        """Draw chunks until none are left; an error leaves none for the other threads."""
        try:
            while True:
                with lock:
                    j = next(todo, None)
                if j is None:
                    return
                lo, hi = bounds[j]
                _simulate_chunk(joint, cfg, j, values[lo:hi], terms[lo:hi], truncated[lo:hi])
        except BaseException:
            with lock:
                for _ in todo:
                    pass
            raise

    # a thread per chunk or per core at most: each holds its chunk's arrays
    cores = os.cpu_count() or 1
    workers = min(cores if cfg.n_streams is None else cfg.n_streams, len(bounds), cores)
    if workers > 1:
        # the calling thread draws too: a pool-only form leaves each worker's malloc arena holding freed chunk arrays
        with ThreadPoolExecutor(max_workers=workers - 1) as pool:
            helpers = [pool.submit(drain) for _ in range(workers - 1)]
            drain()
            for h in helpers:
                h.result()
    else:
        drain()
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


def _quantiles_of_sorted(sorted_values: np.ndarray, levels=TAIL_LEVELS) -> np.ndarray:
    """np.quantile(sorted_values, levels) bit for bit, NaN included, read off draws sorted by np.sort.

    The steps of numpy's default 'linear' method, without the whole partitioned copy np.quantile makes.
    """
    n = sorted_values.size
    virtual = (n - 1) * np.asarray(levels, dtype=float)
    lo = np.floor(virtual)
    hi = lo + 1
    top = virtual >= n - 1  # numpy reads the last value there
    lo[top], hi[top] = -1, -1
    lo, hi = lo.astype(np.intp), hi.astype(np.intp)
    a, b, t = sorted_values[lo], sorted_values[hi], virtual - lo
    diff = b - a
    out = np.add(a, diff * t)
    np.subtract(b, diff * (1 - t), out=out, where=t >= 0.5)
    if np.isnan(sorted_values[-1]):  # np.sort puts a NaN last, and numpy then answers it at every level
        out[:] = sorted_values[-1]
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
