import math

import numpy as np
import pytest
from scipy import special, stats

from perpetuity.distributions import (
    Beta,
    Exponential,
    Gamma,
    JointInput,
    NoClosedForm,
    PointMass,
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
    _e_exp_bB_above,
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
], ids=["uniform-gamma", "threshold"])
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
        assert v.e_log_abs_A_source == "symbolic"
        assert v.verdict == "converges"

    v3 = check_convergence(JointInput(Uniform(0.0, 1.0), Exponential(1.0)))
    assert v3.e_log_abs_A == pytest.approx(-1.0, rel=1e-12)


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


def test_exp_moment_above_q_refuses_past_the_mgf_domain_without_quadrature():
    calls = []

    def S(x):
        calls.append(np.size(x))
        return (1.0 + np.asarray(x, dtype=float)) ** -2 * np.exp(-np.asarray(x, dtype=float))

    B = SurvivalDefined(S, 0.0, 1.0, "poly-exp")
    calls.clear()  # the constructor checks the handle
    with pytest.raises(NoClosedForm, match=r"b = 3 is past the MGF domain's end 1$"):
        _e_exp_bB_above(B, 3.0, 1.0)
    assert calls == []
    # at the domain's end it still integrates: 1/(1+q) + 1/(1+q)^2 = 0.75 at q = 1, less the part beyond S's underflow
    assert _e_exp_bB_above(B, 1.0, 1.0) == pytest.approx(0.75, abs=2e-3)
