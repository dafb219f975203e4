import math
import re
import sys
import threading
import time
import tracemalloc
from concurrent.futures import Future

import mpmath as mp
import numpy as np
import pytest
from scipy import special, stats

from perpetuity import simulate
from perpetuity.asymptotics import stochastic_upper_bound
from perpetuity.distributions import (
    Beta,
    Exponential,
    Gamma,
    GammaLike,
    JointInput,
    Mixture,
    NoClosedForm,
    PointMass,
    Shifted,
    SurvivalDefined,
    ThresholdDependent,
    Uniform,
    sample_pair,
)
from perpetuity.simulate import (
    CHUNK,
    CSV_BLOCK,
    SampleBatch,
    SimConfig,
    _chunk_rng,
    _simulate_chunk,
    check_convergence,
    empirical_tail,
    estimate_exp_moment,
    median_of_means,
    sample_batch,
)

from conftest import ks_distance

GEOMETRIC = JointInput(PointMass(0.5), PointMass(1.0))
GAMMA_CASE = JointInput(Beta(2.0, 1.0), Exponential(1.0))
POLY_EXP = SurvivalDefined(lambda x: (1.0 + np.asarray(x, dtype=float)) ** -2
                           * np.exp(-np.asarray(x, dtype=float)), 0.0, 1.0, "poly-exp")


def gamma3_cdf(x):
    return special.gammainc(3.0, np.maximum(np.asarray(x, dtype=float), 0.0))


def test_same_config_is_bitwise_identical():
    cfg = SimConfig(n_samples=50_000, master_seed=31)
    b1 = sample_batch(GAMMA_CASE, cfg)
    b2 = sample_batch(GAMMA_CASE, cfg)
    assert np.array_equal(b1.values, b2.values)
    assert np.array_equal(b1.terms_used, b2.terms_used)


@pytest.mark.parametrize("streams", [2, 4, 8])
def test_stream_count_does_not_change_output(streams):
    n = 200_000
    assert n % CHUNK != 0  # a short last chunk
    # the general kernel, the constant-A path and a SurvivalDefined B
    for joint in (GAMMA_CASE, JointInput(PointMass(-0.7), Exponential(1.0)), JointInput(Uniform(0.0, 1.0), POLY_EXP)):
        base = sample_batch(joint, SimConfig(n_samples=n, master_seed=9, n_streams=1))
        multi = sample_batch(joint, SimConfig(n_samples=n, master_seed=9, n_streams=streams))
        assert np.array_equal(base.values, multi.values)
        assert np.array_equal(base.terms_used, multi.terms_used)
        assert np.array_equal(base.truncated, multi.truncated)


def test_chunks_draw_from_pcg64dxsm_and_the_stream_is_pinned():
    # a new generator or seeding moves every sample; this test names the move before the CLI digests do
    assert type(_chunk_rng(2026, 1).bit_generator) is np.random.PCG64DXSM
    batch = sample_batch(GAMMA_CASE, SimConfig(n_samples=CHUNK + 3, master_seed=2026))
    assert batch.values[:3].tolist() == [4.147119515872256, 1.1242996042491407, 1.9259164342811597]
    assert batch.values[CHUNK:].tolist() == [4.358969726532291, 2.688010345332643, 5.6010171174529715]
    assert batch.terms_used[:3].tolist() == [102, 82, 68] and batch.terms_used[CHUNK:].tolist() == [77, 70, 83]


def test_empty_batch_is_valid():
    b = sample_batch(GAMMA_CASE, SimConfig(n_samples=0, master_seed=1))
    assert b.values.size == 0
    assert b.truncation_report["n_truncated"] == 0


def test_geometric_series_draw():
    batch = sample_batch(GEOMETRIC, SimConfig(n_samples=100, master_seed=3))
    assert np.allclose(batch.values, 2.0, atol=1e-10)
    assert not batch.truncated.any()


def test_truncation_cap_is_reported_not_hidden():
    stall = JointInput(PointMass(1.0), Exponential(1.0))
    batch = sample_batch(stall, SimConfig(n_samples=256, master_seed=5, max_terms=50))
    assert batch.truncation_report["n_truncated"] == 256
    assert np.all(batch.terms_used == 50)


@pytest.mark.parametrize("gamma", [0.5, -0.7])
def test_constant_a_term_count_is_closed_form(gamma):
    joint = JointInput(PointMass(gamma), Exponential(1.0))
    eps = 1e-16
    k = math.ceil(math.log(eps) / math.log(abs(gamma)))
    batch = sample_batch(joint, SimConfig(n_samples=1000, master_seed=8, truncation_eps=eps))
    assert np.all(batch.terms_used == k)
    assert batch.truncation_report["n_truncated"] == 0
    capped = sample_batch(joint, SimConfig(n_samples=1000, master_seed=8, truncation_eps=eps, max_terms=k - 1))
    assert np.all(capped.terms_used == k - 1)
    assert capped.truncation_report["n_truncated"] == 1000


def _masked_loop_reference(joint, cfg, chunk_index, m):
    """The series kernel before compaction: every term gathers and scatters x and pi through the live index."""
    rng = _chunk_rng(cfg.master_seed, chunk_index)
    x = np.zeros(m)
    pi = np.ones(m)
    terms = np.zeros(m, dtype=np.int64)
    active = np.arange(m)
    k = 0
    while active.size and k < cfg.max_terms:
        k += 1
        a, b = sample_pair(joint, rng, active.size)
        x[active] += pi[active] * b
        new_pi = pi[active] * a
        pi[active] = new_pi
        terms[active] = k
        active = active[np.abs(new_pi) > cfg.truncation_eps]
    truncated = np.zeros(m, dtype=bool)
    truncated[active] = True
    return x, terms, truncated


@pytest.mark.parametrize("joint", [
    JointInput(Uniform(0.0, 1.0), Gamma(2.0, 1.0)),
    JointInput(None, Exponential(1.0), ThresholdDependent(0.3, 0.7, 1.0)),
    # an A >= 0 retires a draw on pi > eps without the abs pass; a signed A keeps it
    JointInput(Beta(2.0, 1.0), Exponential(1.0)),
    JointInput(Uniform(-0.9, 0.9), Exponential(0.7)),
], ids=["uniform-gamma", "threshold", "beta-exp", "signed-uniform-exp"])
@pytest.mark.parametrize("eps,max_terms", [(1e-16, 1_000_000), (1e-6, 20)], ids=["full", "capped"])
def test_compacted_kernel_matches_masked_reference(joint, eps, max_terms):
    cfg = SimConfig(n_samples=5000, master_seed=19, truncation_eps=eps, max_terms=max_terms)
    for chunk_index in (0, 3):
        got = (np.empty(5000), np.empty(5000, dtype=np.int64), np.empty(5000, dtype=bool))
        _simulate_chunk(joint, cfg, chunk_index, *got)
        want = _masked_loop_reference(joint, cfg, chunk_index, 5000)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)
    if max_terms == 20:
        assert 0 < want[2].sum() < want[2].size  # both retired and truncated draws


class _SerialExecutor:
    """Stands in for ThreadPoolExecutor: records max_workers and runs each submitted call on the calling thread."""

    built = []

    def __init__(self, max_workers):
        self.built.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn):
        done = Future()
        done.set_result(fn())
        return done


@pytest.mark.parametrize("streams,cores,want", [
    # the pool holds the helpers: the calling thread is the first worker
    (1000, 64, [2]),  # one worker per chunk
    (1000, 2, [1]),  # one per core
    (2, 64, [1]),  # as many as asked for
    (1000, None, []),  # an unknown core count runs the chunks on the calling thread
    (4, 1, []),
], ids=["chunks", "cores", "streams", "no-core-count", "one-core"])
def test_thread_pool_is_capped_by_chunks_and_cores(monkeypatch, streams, cores, want):
    joint = JointInput(PointMass(0.01), Exponential(1.0))
    n = 2 * CHUNK + 100  # three chunks
    serial = sample_batch(joint, SimConfig(n_samples=n, master_seed=4))
    monkeypatch.setattr(simulate, "ThreadPoolExecutor", _SerialExecutor)
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: cores)
    _SerialExecutor.built = []
    got = sample_batch(joint, SimConfig(n_samples=n, master_seed=4, n_streams=streams))
    assert _SerialExecutor.built == want
    assert got.values.tobytes() == serial.values.tobytes()
    assert got.terms_used.tobytes() == serial.terms_used.tobytes()


_PEAK_CASES = pytest.mark.parametrize("joint,chunk_arrays", [
    # x, pi and idx, and the term's a and b while they are drawn
    (GAMMA_CASE, 5.5),
    # one term's b at a time: it is dropped before the next is drawn
    (JointInput(PointMass(0.5), Exponential(1.0)), 1.5),
    # x, pi, idx and a, and inside the inverse-survival draw its t, bin index and one gathered table
    (JointInput(Uniform(0.0, 1.0), POLY_EXP), 7.5),
], ids=["beta-exp", "constant-a", "survival-defined-b"])


def _traced_peak(joint, cfg):
    """The batch and its tracemalloc peak; numpy reports its allocations to tracemalloc, on every thread."""
    sample_batch(joint, SimConfig(n_samples=10, master_seed=1))  # a SurvivalDefined law builds its table once
    tracemalloc.start()
    try:
        batch = sample_batch(joint, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return batch, peak


@_PEAK_CASES
def test_sample_batch_peak_memory(joint, chunk_arrays):
    # one stream: one chunk's arrays at a time, so the peak is the same on every run
    n = 4 * CHUNK
    batch, peak = _traced_peak(joint, SimConfig(n_samples=n, master_seed=29, n_streams=1))
    own = batch.values.nbytes + batch.terms_used.nbytes + batch.truncated.nbytes
    assert peak <= own + chunk_arrays * 8 * CHUNK, f"{(peak - own) / (8 * CHUNK):.2f} chunk arrays"
    assert batch.terms_used.dtype == np.int32
    assert own == 13 * n
    recount = batch.terms_used.astype(np.int64)
    assert batch.terms_used.sum() == recount.sum()
    assert batch.truncation_report == {"mean_terms": float(recount.mean()), "n_truncated": int(batch.truncated.sum())}


@_PEAK_CASES
def test_default_streams_peak_memory_is_one_chunk_per_core(monkeypatch, joint, chunk_arrays):
    # two cores: the calling thread and one helper each hold one chunk's arrays at a time
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 2)
    n = 4 * CHUNK
    batch, peak = _traced_peak(joint, SimConfig(n_samples=n, master_seed=29))
    own = batch.values.nbytes + batch.terms_used.nbytes + batch.truncated.nbytes
    assert peak <= own + 2 * chunk_arrays * 8 * CHUNK, f"{(peak - own) / (8 * CHUNK):.2f} chunk arrays"
    serial = sample_batch(joint, SimConfig(n_samples=n, master_seed=29, n_streams=1))
    for got, want in zip((batch.values, batch.terms_used, batch.truncated),
                         (serial.values, serial.terms_used, serial.truncated)):
        assert got.tobytes() == want.tobytes()


def test_default_streams_draw_on_the_calling_thread_and_one_helper_per_further_core(monkeypatch):
    # each chunk waits at the barrier until the other is being drawn: both run at once, one on this thread
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 2)
    both = threading.Barrier(2, timeout=30)
    drawn_on = []
    chunk = simulate._simulate_chunk

    def recording(joint, cfg, j, *slices):
        drawn_on.append(threading.current_thread())
        both.wait()
        chunk(joint, cfg, j, *slices)

    monkeypatch.setattr(simulate, "_simulate_chunk", recording)
    n = CHUNK + 100
    got = sample_batch(GAMMA_CASE, SimConfig(n_samples=n, master_seed=17))
    assert len(drawn_on) == 2 and len(set(drawn_on)) == 2
    assert threading.current_thread() in drawn_on
    monkeypatch.undo()
    want = sample_batch(GAMMA_CASE, SimConfig(n_samples=n, master_seed=17, n_streams=1))
    assert got.values.tobytes() == want.values.tobytes()


def test_a_chunk_error_reaches_the_caller_and_leaves_no_chunk_to_draw(monkeypatch):
    # chunk 0 fails while chunk 1 is being drawn on the other thread; that thread then finds no chunk left
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 2)
    second_started = threading.Event()
    drawn = []

    def chunk_zero_fails(joint, cfg, j, *slices):
        drawn.append(j)
        if j == 0:
            assert second_started.wait(timeout=30)
            raise RuntimeError("chunk 0 failed")
        second_started.set()
        time.sleep(0.2)

    monkeypatch.setattr(simulate, "_simulate_chunk", chunk_zero_fails)
    with pytest.raises(RuntimeError, match="chunk 0 failed"):
        sample_batch(GAMMA_CASE, SimConfig(n_samples=10 * CHUNK, master_seed=3))
    assert sorted(drawn) == [0, 1]


@pytest.mark.parametrize("cores,chunk,n", [
    (2, CHUNK, CHUNK + 5_000),  # the calling thread and one helper, one chunk each
    (8, 256, 40 * 256 + 7),  # more threads than cores, on 41 small chunks
], ids=["two-chunks", "eight-threads"])
def test_threads_draw_each_chunk_once_and_build_the_survival_table_once(monkeypatch, cores, chunk, n):
    # a fresh law's first threaded draw calls S as a serial first draw does; under a short switch
    # interval, a chunk taken twice or not at all, or a second table build, shows in the record or in the bytes
    def fresh_law(calls):
        def S(x):
            calls.append(1)
            return POLY_EXP.S(x)
        return JointInput(Uniform(0.0, 1.0), SurvivalDefined(S, 0.0, 1.0, "counted"))

    monkeypatch.setattr(simulate, "CHUNK", chunk)
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: cores)
    serial_calls, threaded_calls, drawn = [], [], []
    serial = sample_batch(fresh_law(serial_calls), SimConfig(n_samples=n, master_seed=8, n_streams=1))
    draw_chunk = simulate._simulate_chunk

    def recording(joint, cfg, j, *slices):
        drawn.append(j)
        draw_chunk(joint, cfg, j, *slices)

    monkeypatch.setattr(simulate, "_simulate_chunk", recording)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = sample_batch(fresh_law(threaded_calls), SimConfig(n_samples=n, master_seed=8))
    finally:
        sys.setswitchinterval(interval)
    assert sorted(drawn) == list(range(-(-n // chunk)))
    assert len(threaded_calls) == len(serial_calls)
    for got, want in zip((threaded.values, threaded.terms_used, threaded.truncated),
                         (serial.values, serial.terms_used, serial.truncated)):
        assert got.tobytes() == want.tobytes()


def test_max_terms_past_int32_is_refused():
    with pytest.raises(ValueError, match="max_terms"):
        sample_batch(GAMMA_CASE, SimConfig(n_samples=10, master_seed=1, max_terms=2**31))
    batch = sample_batch(JointInput(PointMass(1.0), Exponential(1.0)),
                         SimConfig(n_samples=10, master_seed=1, max_terms=2**31 - 1, truncation_eps=2.0))
    assert batch.terms_used.tolist() == [1] * 10


def test_distributional_fixed_point_two_sample_ks():
    n = 100_000
    x = sample_batch(GAMMA_CASE, SimConfig(n_samples=n, master_seed=11)).values
    x_prime = sample_batch(GAMMA_CASE, SimConfig(n_samples=n, master_seed=12)).values
    rng = np.random.default_rng(13)
    a = GAMMA_CASE.A.sample(rng, n)
    b = GAMMA_CASE.B.sample(rng, n)
    stat = stats.ks_2samp(x, a * x_prime + b)
    assert stat.pvalue > 1e-3


def test_truncation_tightness_doubling_max_terms():
    n = 100_000
    ks = []
    for cap in (100, 200):
        batch = sample_batch(GAMMA_CASE, SimConfig(n_samples=n, master_seed=21, max_terms=cap))
        ks.append(ks_distance(batch.values, gamma3_cdf))
    assert abs(ks[0] - ks[1]) < 1e-4


def test_empirical_tail_values():
    batch = sample_batch(GEOMETRIC, SimConfig(n_samples=1000, master_seed=2))
    est1, est3 = empirical_tail(batch, [1.0, 3.0])
    assert est1.p_hat == 1.0 and est1.std_err == 0.0
    assert est3.p_hat == 0.0
    g = sample_batch(GAMMA_CASE, SimConfig(n_samples=1_000_000, master_seed=23))
    est5 = empirical_tail(g, [5.0])[0]
    assert abs(est5.p_hat - 0.124652) <= 3.0 * 0.00033


def test_empirical_tail_counts_as_the_sorted_searchsorted_did():
    # p_hat was 1 - searchsorted(sort(values), x, side="right")/n; the count gives the same integer, so the same bits
    draws = sample_batch(GAMMA_CASE, SimConfig(n_samples=2_000, master_seed=5))
    values = np.concatenate([draws.values, draws.values[:300], np.full(50, 2.5), [np.nan, np.nan]])
    batch = SampleBatch(values, np.ones(values.size, dtype=np.int64), np.zeros(values.size, dtype=bool), {})
    n, finite = values.size, np.sort(values[~np.isnan(values)])
    xs = np.concatenate([finite[[0, 7, 500, 1999, -2, -1]], [2.5, np.nextafter(2.5, 0.0), finite[-1] + 1.0, 1e300,
                                                              -1.0, np.inf, -np.inf, np.nan]])
    sorted_vals = np.sort(values)
    for t, x in zip(empirical_tail(batch, xs), xs.tolist()):
        p = float(1.0 - np.searchsorted(sorted_vals, x, side="right") / n)
        assert t.count == n - np.searchsorted(sorted_vals, x, side="right")
        assert type(t.p_hat) is float and np.float64(t.p_hat).tobytes() == np.float64(p).tobytes()
        assert np.float64(t.std_err).tobytes() == np.float64(math.sqrt(max(p * (1 - p), 0.0) / n)).tobytes()


def test_empirical_tail_equals_the_per_x_count():
    # the counting pass per x that the sort replaced, on an unsorted grid with repeats:
    # a NaN x counts every draw, and a NaN draw is below no x
    draws = sample_batch(GAMMA_CASE, SimConfig(n_samples=3_000, master_seed=9))
    values = np.concatenate([draws.values, [np.nan, 2.0, 2.0, np.inf, -np.inf, np.nan]])
    batch = SampleBatch(values, np.ones(values.size, dtype=np.int64), np.zeros(values.size, dtype=bool), {})
    xs = np.array([4.0, 2.0, np.nan, -np.inf, 2.0, np.inf, 0.5, values[17], np.nan, -1.0, 4.0, values[17], 1e300])
    n = values.size
    for t, x in zip(empirical_tail(batch, xs), xs.tolist()):
        p = float(1.0 - (n if x != x else np.count_nonzero(values <= x)) / n)
        assert t.x == x or (x != x and t.x != t.x)
        assert np.float64(t.p_hat).tobytes() == np.float64(p).tobytes()
        assert np.float64(t.std_err).tobytes() == np.float64(math.sqrt(max(p * (1 - p), 0.0) / n)).tobytes()


def test_median_of_means_matches_mean_for_light_tails():
    rng = np.random.default_rng(4)
    v = rng.normal(10.0, 1.0, size=64_000)
    est, se = median_of_means(v)
    assert est == pytest.approx(v.mean(), abs=4.0 * se)
    assert se > 0


def test_exp_moment_at_zero_is_exactly_one():
    est = estimate_exp_moment(GAMMA_CASE, SimConfig(n_samples=100, master_seed=1), 0.0)
    assert est.estimate == 1.0
    assert est.std_err == 0.0
    assert not est.suspect_infinite


def test_exp_moment_known_product_value():
    joint = JointInput(PointMass(0.5), Exponential(1.0))
    est = estimate_exp_moment(joint, SimConfig(n_samples=1_000_000, master_seed=61), 0.5)
    assert est.estimate == pytest.approx(3.4627466, rel=0.03)
    assert not est.suspect_infinite


def test_exp_moment_flags_divergent_region():
    joint = JointInput(PointMass(0.5), Exponential(1.0))
    est = estimate_exp_moment(joint, SimConfig(n_samples=200_000, master_seed=62), 1.5)
    assert est.suspect_infinite


def test_check_convergence_verdicts():
    v1 = check_convergence(JointInput(PointMass(0.5), Exponential(1.0)))
    assert v1.verdict == "converges"
    assert v1.e_log_abs_A == pytest.approx(-math.log(2.0))

    v2 = check_convergence(JointInput(PointMass(1.5), Exponential(1.0)))
    assert v2.verdict == "diverges"
    assert any("diverges" in e for e in v2.evidence)

    for lam in (0.5, 1.0, 3.0):
        v = check_convergence(JointInput(Beta(lam, 1.0), Exponential(1.0)))
        assert v.e_log_abs_A == pytest.approx(-1.0 / lam, rel=1e-12)
        assert v.verdict == "converges"

    v3 = check_convergence(JointInput(Uniform(0.0, 1.0), Exponential(1.0)))
    assert v3.e_log_abs_A == pytest.approx(-1.0, rel=1e-12)


def test_check_convergence_reads_E_log_abs_A_off_the_tree():
    # |A| = V/2 with V ~ U(0, 1): E log|A| = log 0.5 - 1, the antiderivative u (log|u| - 1) taken through 0
    v = check_convergence(JointInput(Uniform(-0.5, 0.5), Exponential(1.0)))
    assert v.verdict == "converges"
    assert v.e_log_abs_A == math.log(0.5) - 1.0
    with mp.workdps(30):
        for lo, hi in ((-0.9, -0.1), (-0.3, 1.2)):
            nodes = [lo, 0.0, hi] if lo < 0.0 < hi else [lo, hi]
            want = mp.quad(lambda u: mp.log(abs(u)), nodes) / (mp.mpf(hi) - lo)
            assert Uniform(lo, hi).log_abs_moment() == pytest.approx(float(want), rel=1e-14, abs=0.0)
        for law in (Gamma(2.0, 8.0), Exponential(3.0)):
            k, r = mp.mpf(law.shape), mp.mpf(law.rate)
            want = mp.quad(lambda x: mp.log(x) * r ** k * x ** (k - 1) * mp.exp(-r * x) / mp.gamma(k),
                           [0, 1, mp.inf])
            assert law.log_abs_moment() == pytest.approx(float(want), rel=1e-12, abs=0.0)
    # an offset law states no E log|A|: the verdict is unknown, not a guess from draws
    v = check_convergence(JointInput(Shifted(Uniform(0.0, 1.0), 0.2), Exponential(1.0)))
    assert v.verdict == "unknown"
    assert v.e_log_abs_A is None
    assert v.evidence[0] == "E log|A| not symbolically derivable"


def test_check_convergence_draws_nothing(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("check_convergence drew a sample")

    monkeypatch.setattr(simulate.np.random, "default_rng", no_draws)
    monkeypatch.setattr(simulate, "_chunk_rng", no_draws)
    atoms = Mixture(((0.5, PointMass(0.25)), (0.5, PointMass(0.75))))
    joints = [JointInput(A, Exponential(1.0)) for A in (Beta(2.0, 1.0), Uniform(-0.5, 0.5), PointMass(0.5), atoms)]
    joints.append(JointInput(None, Exponential(1.0), ThresholdDependent(0.3, 0.7, 1.0)))
    for joint in joints:
        assert check_convergence(joint).verdict == "converges"


def test_csv_export_format(tmp_path):
    batch = sample_batch(GEOMETRIC, SimConfig(n_samples=8, master_seed=77))
    path = tmp_path / "samples.csv"
    batch.to_csv(path, "deadbeef00000000", 77)
    lines = path.read_text().splitlines()
    assert lines[0] == "# config_hash=deadbeef00000000 master_seed=77"
    assert lines[1] == "x"
    assert len(lines) == 10
    assert float(lines[2]) == pytest.approx(2.0, abs=1e-10)


@pytest.mark.parametrize("values", [
    [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300, -1e-300, 0.1, 2.0 / 3.0, 123456789.0],
    [],
    np.random.default_rng(4).standard_normal(CSV_BLOCK + 1) * 1e3,
    np.random.default_rng(5).exponential(size=2 * CSV_BLOCK),
], ids=["specials", "empty", "one-past-a-block", "two-blocks"])
def test_csv_values_are_the_bytes_savetxt_writes(tmp_path, values):
    v = np.asarray(values, dtype=float)
    n = v.size
    batch = SampleBatch(v, np.ones(n, dtype=np.int64), np.zeros(n, dtype=bool), {})
    path = tmp_path / "samples.csv"
    batch.to_csv(path, "0123456789abcdef", 5)
    with open(tmp_path / "savetxt.csv", "w") as fh:
        fh.write("# config_hash=0123456789abcdef master_seed=5\nx\n")
        np.savetxt(fh, v, fmt="%.17g")
    assert path.read_bytes() == (tmp_path / "savetxt.csv").read_bytes()


def _counted_poly_exp():
    """The poly-exp law (1+x)^{-2} e^{-x}, and the list its survival handle appends to on each call after the
    constructor's checks."""
    calls = []

    def S(x):
        calls.append(np.size(x))
        return (1.0 + np.asarray(x, dtype=float)) ** -2 * np.exp(-np.asarray(x, dtype=float))

    B = SurvivalDefined(S, 0.0, 1.0, "poly-exp")
    calls.clear()  # the constructor checks the handle
    return B, calls


def test_exp_moment_above_q_refuses_past_the_mgf_domain_without_quadrature():
    B, calls = _counted_poly_exp()
    with pytest.raises(NoClosedForm, match=r"b = 3 is past the MGF domain's end 1$"):
        stochastic_upper_bound(JointInput(Uniform(0.0, 1.0), B), GammaLike(1.0, -2.0, 3.0))
    assert calls == []


class _NoAtomFact(Uniform):
    def atom_at(self, v):
        return None


@pytest.mark.parametrize("A,c,message", [
    (Uniform(0.0, 1.0), -1.0, "tail exponent c = -1.0 must be < -1"),
    (Uniform(0.0, 1.0), -0.5, "tail exponent c = -0.5 must be < -1"),
    (_NoAtomFact(0.0, 1.0), -2.0, "P{A=1} not symbolically derivable"),
], ids=["c-is-minus-one", "c-above-minus-one", "unknown-atom-at-1"])
def test_stochastic_bound_refuses_its_model_without_a_survival_call(A, c, message):
    B, calls = _counted_poly_exp()
    with pytest.raises(NoClosedForm, match=f"^{re.escape(message)}$"):
        stochastic_upper_bound(JointInput(A, B), GammaLike(1.0, c, 1.0))
    assert calls == []


def test_stochastic_bound_refuses_a_B_without_inverse_survival():
    with pytest.raises(NoClosedForm, match="needs an invertible survival for B"):
        stochastic_upper_bound(JointInput(Uniform(0.0, 1.0), Exponential(1.0)), GammaLike(1.0, -2.0, 1.0))
