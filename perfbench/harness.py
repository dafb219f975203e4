"""Measurement plumbing shared by the workloads: spans, latency summaries,
failure accounting, the pass loop and provenance.

Nothing here imports the program under test, so these pieces can be unit
tested on their own (see tests/test_harness.py), and the reference kernel
stays the same work whatever the program does.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import math
import os
import platform
import resource
import statistics
import subprocess
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

# Candidate tail percentiles, highest first.  The reported tail is the
# highest one that still has at least TAIL_MIN_BEYOND samples beyond it.
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10


# ---------------------------------------------------------------------------
# Latency summary
# ---------------------------------------------------------------------------

def summarize(samples) -> dict:
    """Median, tail percentile and sample count of a list of latencies.

    The tail is the highest percentile in TAIL_PERCENTILES (nearest-rank)
    with at least TAIL_MIN_BEYOND samples strictly above its rank.  With
    too few samples for any of them, the tail fields are None.
    """
    xs = sorted(float(v) for v in samples)
    n = len(xs)
    out = {"count": n, "p50": statistics.median(xs) if xs else None,
           "tail_pct": None, "tail": None, "beyond": None}
    for q in TAIL_PERCENTILES:
        rank = math.ceil(q / 100.0 * n)
        beyond = n - rank
        if rank >= 1 and beyond >= TAIL_MIN_BEYOND:
            out.update(tail_pct=q, tail=xs[rank - 1], beyond=beyond)
            break
    return out


# ---------------------------------------------------------------------------
# Failure accounting
# ---------------------------------------------------------------------------

@dataclass
class Tally:
    """Operations attempted and failed.

    A failure is an exception, an unexpected exit code or a failed
    deterministic check.  A statistical verdict (the validate command's
    exit 6) is counted apart in `verdicts` and never as a failure: any
    change to the random stream reshuffles it.
    """

    attempted: int = 0
    failed: int = 0
    verdicts: int = 0
    messages: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)
        return ok

    def exit_code(self, code: int, what: str, expected=(0,), verdict=()) -> bool:
        """Count one command by its exit code."""
        if code in verdict:
            self.attempted += 1
            self.verdicts += 1
            return True
        return self.check(code in expected, f"{what}: exit {code}, expected {sorted(expected)}")

    def fail(self, what: str):
        """Count the exception being handled as one failed operation."""
        self.attempted += 1
        self.failed += 1
        self.messages.append(f"{what}: {traceback.format_exc(limit=3)}")

    def guard(self, what: str, fn: Callable, *args, **kwargs):
        """Run one operation; an exception counts it as failed and gives None."""
        try:
            return fn(*args, **kwargs)
        except Exception:  # the client must keep running; the traceback is reported
            self.fail(what)
            return None

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

@dataclass
class Span:
    name: str
    parent: Optional[int]
    start: float
    end: float = math.nan
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans recorded around calls into the program's layers.

    Spans nest by a stack, so a tracer follows one thread: wrap only calls
    made from the client thread, never code the program runs on workers.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        idx = len(self.spans)
        sp = Span(name, self._stack[-1] if self._stack else None, time.perf_counter(), attrs=attrs)
        self.spans.append(sp)
        self._stack.append(idx)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Replace `owner.attr` by a traced wrapper for each (owner, attr, span name)."""
        saved = []
        try:
            for owner, attr, name in targets:
                orig = getattr(owner, attr)
                saved.append((owner, attr, orig))
                setattr(owner, attr, self.wrap(orig, name))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def named(self, name: str):
        return [(i, s) for i, s in enumerate(self.spans) if s.name == name]

    def dump(self, path: Path):
        import json

        rows = [{"id": i, "name": s.name, "parent": s.parent, "start": s.start, "end": s.end,
                 "attrs": {k: v for k, v in s.attrs.items() if isinstance(v, (int, float, str))}}
                for i, s in enumerate(self.spans)]
        path.write_text(json.dumps(rows))


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(i, []), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.duration - covered)
    return out


# ---------------------------------------------------------------------------
# Pass loop, memory, provenance
# ---------------------------------------------------------------------------

# Median time of reference_kernel() on the reference machine (2-vCPU Intel
# Xeon VM, Python 3.11, numpy 2.4); it only sets the scale of wall_norm_s.
KERNEL_REF_S = 0.016
# Share of each operation's time spent afterwards sampling the host speed.
KERNEL_SHARE = 0.1


def reference_kernel() -> float:
    """Fixed work that does not touch the program: masked numpy draws like
    the series kernel, then a scalar Python loop like a quadrature
    integrand.  Its time tracks the host's CPU speed at that moment."""
    rng = np.random.Generator(np.random.Philox(12345))
    x, p, act = np.zeros(32768), np.ones(32768), np.arange(32768)
    for _ in range(12):
        x[act] += p[act] * rng.exponential(size=act.size)
        p[act] *= rng.beta(2.0, 1.0, act.size)
        act = act[p[act] > 0.2]
    s = 0.0
    for k in range(1, 10000):
        y = k * 1e-3
        s += math.exp(-y) * math.log1p(y) / (1.0 + y * y)
    return float(x.sum()) + s


def run_passes(ops_of_pass: Callable[[int], list], seconds: float, calibrate: bool = False):
    """Closed loop of whole passes; stops at the pass boundary nearest `seconds`.

    `ops_of_pass(i)` gives the operations of pass i; a pass's wall time is
    the sum of its operations' times.  At least one pass always runs, so a
    pass longer than `seconds` is measured once rather than cut.  With
    `calibrate`, reference_kernel() runs after every operation, outside the
    pass time, until it has taken KERNEL_SHARE of that operation's time
    (at least once), so its samples spread over the pass in proportion to
    time; their times are returned too.
    """
    walls, kernel = [], []
    t_start = time.perf_counter()
    while True:
        wall = 0.0
        for op in ops_of_pass(len(walls)):
            t0 = time.perf_counter()
            op()
            took = time.perf_counter() - t0
            wall += took
            spent = 0.0
            while calibrate and (spent == 0.0 or spent < KERNEL_SHARE * took):
                t0 = time.perf_counter()
                reference_kernel()
                kernel.append(time.perf_counter() - t0)
                spent += kernel[-1]
        walls.append(wall)
        if time.perf_counter() - t_start + wall / 2.0 >= seconds:
            return walls, kernel


def peak_rss_mb() -> float:
    """Peak resident set of this process (children excluded)."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024.0


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if res.returncode != 0:
        return None
    return res.stdout.strip() or None


def _tree_digest(src: Path) -> str:
    """sha256 over the program's sources, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    for p in sorted(src.rglob("*.py")):
        h.update(str(p.relative_to(src)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def provenance(root: Path, workload: str, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
        "src_sha256": _tree_digest(root / "src"),
        "machine_tuning": "none",
    }
