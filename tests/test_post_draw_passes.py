"""The passes that run over a batch after it is drawn: E4's contour inversion, the KS distance and
Thm1's per-draw averages.  Each runs in fixed-size blocks, so its temporaries do not grow with the
batch, and each element's arithmetic is that of a one-point call, so every output bit is kept."""

import tracemalloc

import numpy as np
import pytest

from perpetuity import asymptotics, oracle
from perpetuity.asymptotics import DRAW_BLOCK, f_function_vec, thm1_constant, tilted_moment_vec
from perpetuity.distributions import GammaLike, JointInput, SurvivalDefined, Uniform
from perpetuity.oracle import compare_empirical, get_case, reference_survival, survival_from_transform
from perpetuity.simulate import SimConfig


def _poly_exp_B():
    S = lambda x: (1.0 + np.asarray(x, dtype=float)) ** -2 * np.exp(-np.asarray(x, dtype=float))
    return SurvivalDefined(S, 0.0, 1.0, "poly-exp")


POLY_EXP_JOINT = JointInput(Uniform(0.0, 1.0), _poly_exp_B())
POLY_EXP_TAIL = GammaLike(1.0, -2.0, 1.0)


# -- peak memory ---------------------------------------------------------------

# The fixed budget of the blocked passes: 32 arrays of 4,096 doubles.  It holds the KS pass's
# block arrays, E4's (32 x by node) complex arrays and each per-draw block's temporaries.
BLOCK_BYTES = 32 * 8 * 4096


def _post_draw_peak(monkeypatch, module, call):
    """call()'s tracemalloc peak from the moment its batch is drawn: the batch stays counted, the sampler's
    chunk arrays do not."""
    draw = module.sample_batch

    def drawn(*args, **kwargs):
        batch = draw(*args, **kwargs)
        tracemalloc.reset_peak()
        return batch

    monkeypatch.setattr(module, "sample_batch", drawn)
    tracemalloc.start()
    try:
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.mark.parametrize("case_id", ["E1", "E4"])
def test_compare_empirical_peak_memory(monkeypatch, case_id):
    # the batch's 13 bytes per draw, the sorted copy, and one more n-array: E1's reference survival
    # of the sorted draws, then np.quantile's partition copy; everything else is block-sized
    n = 200_000
    case = get_case(case_id)
    compare_empirical(case, SimConfig(n_samples=1_000, master_seed=1, n_streams=1))
    report, peak = _post_draw_peak(monkeypatch, oracle,
                                   lambda: compare_empirical(case, SimConfig(n_samples=n, master_seed=7, n_streams=1)))
    assert report.n == n and report.passed
    bound = 13 * n + 2 * 8 * n + BLOCK_BYTES
    assert peak <= bound, f"{(peak - 13 * n) / (8 * n):.2f} n-arrays past the batch"


def test_thm1_constant_peak_memory(monkeypatch):
    # the batch's 13 bytes per draw and the two per-draw arrays, E_A e^{bAX} and E_A[AX e^{bAX}]
    n = 200_000
    thm1_constant(POLY_EXP_JOINT, POLY_EXP_TAIL, SimConfig(n_samples=1_000, master_seed=1, n_streams=1))
    pred, peak = _post_draw_peak(monkeypatch, asymptotics, lambda: thm1_constant(
        POLY_EXP_JOINT, POLY_EXP_TAIL, SimConfig(n_samples=n, master_seed=7, n_streams=1)))
    assert pred.batch.values.size == n and pred.constant > 1.0
    bound = 13 * n + 2 * 8 * n + BLOCK_BYTES
    assert peak <= bound, f"{(peak - 13 * n) / (8 * n):.2f} n-arrays past the batch"


# -- blocked results equal one-point results ---------------------------------------

EDGE_SIZES = [2 * DRAW_BLOCK - 1, 2 * DRAW_BLOCK, 2 * DRAW_BLOCK + 1]


def _one_point(fn, x):
    return np.array([fn(v) for v in x.tolist()])


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


@pytest.mark.parametrize("case_id", ["E1", "E2"])
def test_tree_law_reference_survival_equals_one_point_calls(case_id):
    case = get_case(case_id)
    x = np.sort(np.random.default_rng(33).normal(2.0, 3.0, EDGE_SIZES[-1]))
    want = _one_point(lambda v: reference_survival(case, v), x)
    for n in EDGE_SIZES:
        assert _bits(reference_survival(case, x[:n])) == _bits(want[:n])


@pytest.mark.parametrize("size", [33, 513])
def test_e4_reference_survival_equals_one_point_calls(size):
    case = get_case("E4")
    x = np.linspace(-6.0, 30.0, size)
    want = _one_point(lambda v: reference_survival(case, v, tol=1e-9), x)
    assert _bits(reference_survival(case, x, tol=1e-9)) == _bits(want)
    assert _bits(survival_from_transform(case.exact_X_law, x, 1e-9)) == _bits(want)


def _ks_one_point(case, sorted_vals):
    """The KS distance from one-point reference calls and whole-length arrays."""
    n = sorted_vals.size
    if case.id == "E4-mixture":
        grid = np.linspace(float(sorted_vals[0]) - 0.5, float(sorted_vals[-1]) + 0.5, 512)
        sv = _one_point(lambda v: reference_survival(case, v, tol=1e-9), grid)
        ref_cdf = np.interp(sorted_vals, grid, np.maximum.accumulate(np.clip(1.0 - sv, 0.0, 1.0)))
    else:
        ref_cdf = 1.0 - _one_point(lambda v: reference_survival(case, v), sorted_vals)
    i = np.arange(1, n + 1)
    return float(np.max(np.maximum(np.abs(i / n - ref_cdf), np.abs((i - 1) / n - ref_cdf))))


@pytest.mark.parametrize("case_id", ["E1", "E2", "E4"])
@pytest.mark.parametrize("n", EDGE_SIZES)
def test_ks_distance_equals_whole_length_one_point_ks(case_id, n):
    case = get_case(case_id)
    sorted_vals = np.sort(np.random.default_rng([34, n]).gamma(3.0, 1.0, n) - 1.0)
    assert oracle._ks_distance(case, sorted_vals) == _ks_one_point(case, sorted_vals)


@pytest.mark.parametrize("n", EDGE_SIZES)
def test_thm1_per_draw_arrays_equal_one_point_calls(monkeypatch, n):
    averaged = []
    mom = asymptotics.median_of_means

    def spy(values):
        averaged.append(values)
        return mom(values)

    monkeypatch.setattr(asymptotics, "median_of_means", spy)
    pred = thm1_constant(POLY_EXP_JOINT, POLY_EXP_TAIL, SimConfig(n_samples=n, master_seed=9, n_streams=1))
    x, b = pred.batch.values, POLY_EXP_TAIL.b
    fx, tilted = averaged
    assert _bits(fx) == _bits(_one_point(lambda v: f_function_vec(POLY_EXP_JOINT, b, np.array([v]))[0], x))
    assert _bits(tilted) == _bits(_one_point(lambda v: tilted_moment_vec(POLY_EXP_JOINT, b, np.array([v]))[0], x))
