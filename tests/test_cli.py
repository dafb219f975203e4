import dataclasses
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import perpetuity
import perpetuity.cli as cli_module
from perpetuity import asymptotics, oracle, simulate
from perpetuity.cli import (
    ConfigError,
    config_hash,
    main,
    parse_config_text,
    serialize_config,
)
from perpetuity.distributions import Beta, JointInput, ScalarDistribution
from perpetuity.simulate import CHUNK, SimConfig, sample_batch

BASE = """
# base experiment
joint.A.variant = pointmass
joint.A.value = 0.5
joint.B.variant = exponential
joint.B.rate = 1.0
sim.n_samples = 20000
sim.seed = 11
moments.r = 0.5
tail.b = 1.0
"""


def write(tmp_path, text, name="cfg.txt"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run(cmd, cfg_path, out, *extra):
    return main([cmd, "--config", cfg_path, "--out", str(out), "--no-timestamp", *extra])


# -- config format ------------------------------------------------------------

def test_config_round_trip():
    cfg = parse_config_text(BASE)
    again = parse_config_text(serialize_config(cfg))
    assert again == cfg
    assert cfg["joint.A.value"] == "0.5"


def test_config_rejects_duplicates_and_blank_keys():
    with pytest.raises(ConfigError):
        parse_config_text("a.b = 1\na.b = 2\n")
    with pytest.raises(ConfigError):
        parse_config_text(" = 3\n")


def test_unknown_key_is_named(tmp_path, capsys):
    path = write(tmp_path, "joint.A.disttribution = beta\n")
    code = main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "joint.A.disttribution" in capsys.readouterr().err


def test_config_hash_ignores_stream_count():
    cfg = parse_config_text(BASE)
    h1 = config_hash(cfg, 11)
    cfg2 = dict(cfg)
    cfg2["sim.n_streams"] = "8"
    assert config_hash(cfg2, 11) == h1
    assert config_hash(cfg, 12) != h1


# -- exit codes ---------------------------------------------------------------

def test_simulate_success_and_outputs(tmp_path):
    path = write(tmp_path, BASE)
    out = tmp_path / "out"
    assert run("simulate", path, out) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_samples"] == 20000
    header = (out / "samples.csv").read_text().splitlines()[0]
    assert "config_hash=" in header and "master_seed=11" in header


def test_simulate_divergent_coefficient_exits_3(tmp_path, capsys):
    path = write(tmp_path, BASE.replace("joint.A.value = 0.5", "joint.A.value = 1.5"))
    assert run("simulate", path, tmp_path / "o") == 3
    assert "diverges" in capsys.readouterr().err


def test_moments_verdict_written(tmp_path):
    path = write(tmp_path, BASE)
    out = tmp_path / "out"
    assert run("moments", path, out) == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["verdict"] == "Finite"


THRESHOLD = """
joint.dependence.variant = threshold
joint.dependence.zeta1 = 0.3
joint.dependence.zeta2 = 0.7
joint.dependence.q = 1.0
joint.B.variant = exponential
joint.B.rate = 1.0
sim.n_samples = 20000
moments.r = 0.5
"""


def test_threshold_dependence_config(tmp_path, capsys):
    path = write(tmp_path, THRESHOLD)
    assert run("simulate", path, tmp_path / "sim") == 0
    assert run("moments", path, tmp_path / "mom") == 0
    assert json.loads((tmp_path / "mom" / "verdict.json").read_text())["verdict"] == "Finite"
    capsys.readouterr()
    bad = write(tmp_path, THRESHOLD + "joint.A.variant = pointmass\njoint.A.value = 0.5\n", "bad.txt")
    assert run("moments", bad, tmp_path / "bad") == 2
    assert "joint.A.*: must be unset for threshold dependence (A is derived)" in capsys.readouterr().err


def test_moments_strict_inconclusive_exits_4(tmp_path):
    text = """
joint.A.variant = atoms
joint.A.values = 0.5,-0.5
joint.A.weights = 0.5,0.5
joint.B.variant = exp_difference
joint.B.left.weights = 1.0
joint.B.left.rates = 1.0
joint.B.right.weights = 1.0
joint.B.right.rates = 2.0
moments.r = 0.3
"""
    path = write(tmp_path, text)
    assert run("moments", path, tmp_path / "a") == 0
    assert run("moments", path, tmp_path / "b", "--strict") == 4


def test_tail_no_applicable_route_exits_5(tmp_path, capsys):
    text = """
joint.A.variant = uniform
joint.A.lo = 0.0
joint.A.hi = 0.5
joint.B.variant = uniform
joint.B.lo = 0.0
joint.B.hi = 1.0
tail.b = 1.0
"""
    path = write(tmp_path, text)
    assert run("tail", path, tmp_path / "o") == 5
    assert capsys.readouterr().err.splitlines() == [
        "no applicable tail theorem; nearest misses:",
        "  - power-corrected route: A is not a Beta(lam, 1) law",
        "  - inherited-tail route: no tail model supplied and none derivable for B",
        "  - smoothed-tail route: missing required key: tail.a",
    ]


def test_tail_negative_continuous_coefficient_exits_5(tmp_path, capsys):
    text = """
joint.A.variant = uniform
joint.A.lo = -0.9
joint.A.hi = -0.1
joint.B.variant = exponential
joint.B.rate = 1.0
tail.b = 1.0
"""
    path = write(tmp_path, text)
    assert run("tail", path, tmp_path / "o") == 5
    err = capsys.readouterr().err.splitlines()
    assert "  - power-corrected route: A is not a Beta(lam, 1) law" in err
    assert "  - inherited-tail route: E psi(bA) not established finite: Inconclusive" in err


def test_tail_prediction_written(tmp_path):
    path = write(tmp_path, BASE)
    out = tmp_path / "out"
    assert run("tail", path, out) == 0
    pred = json.loads((out / "prediction.json").read_text())
    assert pred["constant"] == pytest.approx(3.4627466194550636, rel=1e-9)


POLY_EXP = """
joint.A.variant = uniform
joint.B.variant = poly_exp
joint.B.power = -2
joint.B.rate = 1
tail.a = 1
tail.c = -2
tail.b = 1
sim.n_samples = 20000
sim.seed = 3
"""


def test_tail_smoothed_route_carries_the_one_over_x_term(tmp_path):
    path = write(tmp_path, POLY_EXP)
    out = tmp_path / "out"
    assert run("tail", path, out, "--verify") == 0
    pred = json.loads((out / "prediction.json").read_text())
    assert pred["theorem"] == "Thm1"
    assert pred["K1"] > 0
    k0, k1 = pred["constant"], pred["K1"]
    assert pred["form"] == {"a": k0, "b": 1.0, "c": -2.0}
    # ratio.csv predicts P{B > x} (K0 + K1/x), not the one-term asymptote
    lines = (out / "ratio.csv").read_text().splitlines()
    assert lines[0] == "x,predicted,empirical,std_err,ratio"
    for line in lines[1:]:
        x, predicted = (float(v) for v in line.split(",")[:2])
        assert predicted == pytest.approx((1.0 + x) ** -2 * math.exp(-x) * (k0 + k1 / x), rel=1e-8)


# prediction.json of the other routes, as written before the smoothed route
# gained its 1/x term
INHERITED_JSON = """{
  "constant": 3.462746619455061,
  "form": {
    "a": 3.462746619455061,
    "b": 1.0,
    "c": 0.0
  },
  "preconditions_trace": [
    "E psi(bA) finite via E psi(rA) finiteness criterion (a)",
    "tail model of B derived from its law",
    "constant by convergent MGF product"
  ],
  "source": "ClosedForm",
  "theorem": "PropMainII"
}
"""
POWER_CORRECTED_CFG = """
joint.A.variant = beta
joint.A.p = 2
joint.B.variant = exp_mixture
joint.B.weights = 0.5,0.5
joint.B.rates = 1,2
"""
POWER_CORRECTED_JSON = """{
  "constant": 1.0,
  "form": {
    "a": 1.0,
    "b": 1.0,
    "c": 1.0
  },
  "preconditions_trace": [
    "remainder vanishing and integrability asserted",
    "remainder integral by Frullani sum = 0.34657359028",
    "no left tail (B >= 0)"
  ],
  "source": "ClosedForm",
  "theorem": "Thm2"
}
"""


@pytest.mark.parametrize("text,expected", [(BASE, INHERITED_JSON),
                                           (POWER_CORRECTED_CFG, POWER_CORRECTED_JSON)],
                         ids=["inherited-tail", "power-corrected"])
def test_tail_json_of_other_routes_unchanged(tmp_path, text, expected):
    path = write(tmp_path, text)
    out = tmp_path / "out"
    assert run("tail", path, out) == 0
    assert (out / "prediction.json").read_text() == expected


# --- tail --verify draws once --------------------------------------------------

# perfbench's atoms_exp and unif_polyexp tail configs at 2*10^4 draws, and
# the files they gave when --verify drew its own second, identical batch
VERIFY_ATOMS = """
joint.A.variant = atoms
joint.A.values = 0.25,0.75
joint.A.weights = 0.5,0.5
joint.B.variant = exponential
joint.B.rate = 1
tail.b = 1.0
sim.n_samples = 20000
sim.seed = 7
"""
VERIFY_POLY_EXP = POLY_EXP.replace("sim.seed = 3", "sim.seed = 7")
ATOMS_PREDICTION = """{
  "constant": 6.424669681384922,
  "form": {
    "a": 6.424669681384922,
    "b": 1.0,
    "c": 0.0
  },
  "preconditions_trace": [
    "E psi(bA) finite via E psi(rA) finiteness criterion (a)",
    "tail model of B derived from its law",
    "constant by median-of-means over 20000 draws"
  ],
  "source": "MonteCarlo",
  "std_err": 1.0424643579541397,
  "theorem": "PropMainII"
}
"""
ATOMS_RATIO = """x,predicted,empirical,std_err,ratio
6.433027268,0.01032815053,0.01,0.000703562364,0.9682275608
7.629207927,0.003122683006,0.003,0.0003867169508,0.9607123088
8.89077436,0.0008843752083,0.001,0.0002234949664,1.130741783
9.793769884,0.000358484668,0.0003,0.0001224561146,0.8368558737
11.71110048,5.269682961e-05,0.0001,7.07071425e-05,1.897647368
"""
POLY_EXP_PREDICTION = """{
  "K1": 6.286469462708738,
  "constant": 1.7410042057722004,
  "form": {
    "a": 1.7410042057722004,
    "b": 1.0,
    "c": -2.0
  },
  "preconditions_trace": [
    "P{A in (0,1]} = 1",
    "gamma-like tail with c = -2.0 < -1",
    "P{A=1} = 0, denominator 1",
    "E log(1+B^-) < inf",
    "E f(X) by median-of-means over 20000 draws",
    "1/x term K1 = 6.28647: E[AX e^{bAX}] = 1.40218 (se 0.15), g_A(1-) = 1, E e^{bB} = 2.00006 (err 0.00018, 9 panels)"
  ],
  "source": "MonteCarlo",
  "std_err": 0.026843102837406794,
  "theorem": "Thm1"
}
"""
POLY_EXP_RATIO = """x,predicted,empirical,std_err,ratio
3.068173985,0.01064979979,0.01,0.000703562364,0.9389847879
3.797777042,0.003308058291,0.003,0.0003867169508,0.9068764019
4.724952126,0.0008313509281,0.001,0.0002234949664,1.202861471
5.314830988,0.0003605998112,0.0003,0.0001224561146,0.8319471911
7.042943495,3.556374818e-05,0.0001,7.07071425e-05,2.8118521
"""


def _count_draws(monkeypatch):
    """Every sample_batch call the CLI makes, directly or through a tail route."""
    calls = []

    def spy(joint, cfg):
        calls.append(cfg)
        return sample_batch(joint, cfg)

    monkeypatch.setattr(cli_module, "sample_batch", spy)
    monkeypatch.setattr(asymptotics, "sample_batch", spy)
    return calls


@pytest.mark.parametrize("text,theorem,prediction,ratio", [
    (VERIFY_ATOMS, "PropMainII", ATOMS_PREDICTION, ATOMS_RATIO),
    (VERIFY_POLY_EXP, "Thm1", POLY_EXP_PREDICTION, POLY_EXP_RATIO),
], ids=["atoms_exp", "unif_polyexp"])
def test_tail_verify_reuses_the_routes_batch(tmp_path, monkeypatch, text, theorem, prediction, ratio):
    calls = _count_draws(monkeypatch)
    out = tmp_path / "out"
    assert run("tail", write(tmp_path, text), out, "--verify") == 0
    assert len(calls) == 1
    assert json.loads((out / "prediction.json").read_text())["theorem"] == theorem
    assert (out / "prediction.json").read_text() == prediction
    assert (out / "ratio.csv").read_text() == ratio


def test_tail_verify_draws_once_on_the_quadrature_route(tmp_path, monkeypatch):
    calls = _count_draws(monkeypatch)
    out = tmp_path / "out"
    assert run("tail", write(tmp_path, POWER_CORRECTED_CFG + "sim.n_samples = 5000\n"), out, "--verify") == 0
    assert len(calls) == 1
    assert (out / "prediction.json").read_text() == POWER_CORRECTED_JSON
    assert len((out / "ratio.csv").read_text().splitlines()) == 6


def test_validate_default_passes(tmp_path):
    assert main(["validate", "E1", "--out", str(tmp_path / "v"), "--no-timestamp"]) == 0
    report = json.loads((tmp_path / "v" / "validation.json").read_text())
    assert report["passed"] is True


def test_validate_unknown_case_exits_2(tmp_path, capsys):
    assert main(["validate", "E9", "--out", str(tmp_path / "v")]) == 2
    assert "E9" in capsys.readouterr().err


def test_validate_failure_exits_6(tmp_path, monkeypatch):
    # a wrong sampler against E1's reference Gamma(3, 1): A ~ Beta(2.1, 1) draws Gamma(3.1, 1), which lies
    # 0.0245 from it in KS distance, about twice the threshold 4/sqrt(n) at the CLI's 10^5 draws
    case = oracle.get_case("E1")
    wrong = dataclasses.replace(case, joint=JointInput(Beta(2.1, 1.0), case.joint.B))
    monkeypatch.setattr(cli_module, "get_case", lambda case_id: wrong)
    assert main(["validate", "E1", "--seed", "42", "--out", str(tmp_path / "v"), "--no-timestamp"]) == 6
    report = json.loads((tmp_path / "v" / "validation.json").read_text())
    assert report["passed"] is False and report["ks"] > report["ks_threshold"]


def test_validate_unconverged_reference_exits_6(tmp_path, capsys, monkeypatch):
    from perpetuity import oracle

    def refuse(case, x, *args, **kwargs):
        raise oracle.ReferenceNotConverged("reference survival did not converge at x = 61")

    monkeypatch.setattr(oracle, "reference_survival", refuse)
    assert main(["validate", "E4", "--out", str(tmp_path / "v"), "--no-timestamp"]) == 6
    err = capsys.readouterr().err
    assert "reference error" in err and "x = 61" in err
    assert not (tmp_path / "v" / "validation.json").exists()


CHARFN = """
joint.A.variant = beta
joint.A.p = 1.0
joint.A.q = 1.0
joint.B.variant = exp_difference
joint.B.left.weights = 1.0
joint.B.left.rates = 2.0
joint.B.right.weights = 1.0
joint.B.right.rates = 1.0
"""


def test_charfn_output(tmp_path):
    path = write(tmp_path, CHARFN + "charfn.t_grid = 0.5,1,2\n")
    out = tmp_path / "cf"
    assert run("charfn", path, out) == 0
    lines = (out / "charfn.csv").read_text().splitlines()
    assert lines[0] == "t,re,im"
    assert len(lines) == 4


def test_charfn_rejects_a_coefficient_outside_the_transform(tmp_path):
    # Beta(2, 2) is neither Beta(lam, 1) nor constant
    path = write(tmp_path, BASE.replace("variant = pointmass\njoint.A.value = 0.5",
                                        "variant = beta\njoint.A.p = 2\njoint.A.q = 2"))
    assert run("charfn", path, tmp_path / "o") == 2


def test_charfn_rejects_a_non_finite_t(tmp_path, capsys):
    path = write(tmp_path, CHARFN + "charfn.t_grid = 1,inf,nan\n")
    assert run("charfn", path, tmp_path / "o") == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "o" / "charfn.csv").exists()


def test_charfn_asks_the_weights_once(tmp_path, monkeypatch):
    calls = []
    original = ScalarDistribution.exp_weights

    def spy(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(ScalarDistribution, "exp_weights", spy)
    path = write(tmp_path, CHARFN + "charfn.t_grid = 0.25,0.5,1,2,4\n")
    assert run("charfn", path, tmp_path / "cf") == 0
    assert len((tmp_path / "cf" / "charfn.csv").read_text().splitlines()) == 6
    assert len(calls) == 1


@pytest.mark.parametrize("law", [
    "joint.A.variant = pointmass\njoint.A.value = 0.999\n",  # prod_k 1/(1 - 0.999^k) is past 1e308
    "joint.A.variant = beta\njoint.A.p = 200\n",  # Gamma(201) in thm2_K's K is past 1e308
], ids=["constant-product", "thm2-gamma"])
def test_tail_refuses_a_constant_past_double_range(tmp_path, capsys, law):
    path = write(tmp_path, law + "joint.B.variant = exponential\njoint.B.rate = 1\n")
    assert run("tail", path, tmp_path / "o") == 5
    err = capsys.readouterr().err
    assert "nearest misses" in err and "overflow" in err
    assert not (tmp_path / "o" / "prediction.json").exists()


def test_tail_takes_a_representable_constant_in_logs(tmp_path):
    # Gamma(201) overflows, but K = 10^200 / 200! is a double; no --verify: at p = 200 a draw takes thousands of terms
    path = write(tmp_path, "joint.A.variant = beta\njoint.A.p = 200\njoint.B.variant = exponential\njoint.B.rate = 10\n")
    assert run("tail", path, tmp_path / "o") == 0
    pred = json.loads((tmp_path / "o" / "prediction.json").read_text())
    assert pred["theorem"] == "Thm2"
    assert pred["constant"] == pytest.approx(float(Fraction(10 ** 200, math.factorial(200))), rel=1e-12)


def test_json_reports_are_byte_stable(tmp_path):
    path = write(tmp_path, BASE)
    run("moments", path, tmp_path / "a")
    run("moments", path, tmp_path / "b")
    assert (tmp_path / "a" / "verdict.json").read_bytes() == (tmp_path / "b" / "verdict.json").read_bytes()


def test_sample_csv_identical_across_stream_counts(tmp_path, monkeypatch):
    # three chunks, and four cores, so that a config without sim.n_streams draws on three threads
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 4)
    base = BASE.replace("sim.n_samples = 20000", f"sim.n_samples = {2 * CHUNK + 100}")
    blobs = []
    for streams in (None, 1, 2, 4, 8):
        path = write(tmp_path, base + ("" if streams is None else f"sim.n_streams = {streams}\n"), f"cfg{streams}.txt")
        out = tmp_path / f"out{streams}"
        assert run("simulate", path, out) == 0
        blobs.append(((out / "samples.csv").read_bytes(), (out / "summary.json").read_bytes()))
    assert all(b == blobs[0] for b in blobs)


def test_readme_positional_config_form(tmp_path, capsys):
    # `perpetuity simulate config.txt --out results/ --seed 42`, as the README prints it
    path = write(tmp_path, BASE)
    assert main(["simulate", path, "--out", str(tmp_path / "pos"), "--seed", "42", "--no-timestamp"]) == 0
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "opt"), "--seed", "42", "--no-timestamp"]) == 0
    for name in ("summary.json", "samples.csv"):
        assert (tmp_path / "pos" / name).read_bytes() == (tmp_path / "opt" / name).read_bytes()
    assert main(["moments", path, "--out", str(tmp_path / "m"), "--strict", "--no-timestamp"]) == 0
    assert (tmp_path / "m" / "verdict.json").exists()
    # a path given both ways is refused, not silently dropped
    assert main(["simulate", path, "--config", path, "--out", str(tmp_path / "both")]) == 2
    assert "config given twice" in capsys.readouterr().err


def test_tail_refuses_inherited_route_below_the_increments_own_rate(tmp_path, capsys):
    # B's own rate is 1; a tail.b of 0.5 has no inherited tail (it used to exit 2 building GammaLike(0, ...))
    text = """
joint.A.variant = atoms
joint.A.values = 0.25,0.75
joint.A.weights = 0.5,0.5
joint.B.variant = exp_mixture
joint.B.weights = 0.5,0.5
joint.B.rates = 1,2
tail.b = 0.5
sim.n_samples = 1000
"""
    path = write(tmp_path, text)
    assert run("tail", path, tmp_path / "o") == 5
    err = capsys.readouterr().err
    assert "inherited-tail route: B's exponential tail has rate 1, not b = 0.5" in err
    assert "config error" not in err


def test_validate_accepts_a_short_case_id(tmp_path):
    code = main(["validate", "E2", "--out", str(tmp_path / "v"), "--no-timestamp"])
    assert code in (0, 6)  # a statistical verdict either way; 2 would mean the id was not found
    report = json.loads((tmp_path / "v" / "validation.json").read_text())
    assert report["case_id"] == "E2-const-A"


def test_python_dash_m_runs_the_cli(tmp_path):
    src = Path(perpetuity.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    out = tmp_path / "D"
    proc = subprocess.run([sys.executable, "-m", "perpetuity.cli", "validate", "E1", "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (out / "validation.json").exists()


# --- config surface: each refusal's exit code and its one stderr line ---------

EXP_B = "joint.B.variant = exponential\njoint.B.rate = 1\n"
HALF_A = "joint.A.variant = pointmass\njoint.A.value = 0.5\n"
CONFIG_REFUSALS = {
    "malformed-line": ("simulate", "joint.A.variant = beta\njoint.A.p 2\n",
                       "line 2: expected 'key = value', got 'joint.A.p 2'"),
    "non-number": ("moments", EXP_B + "joint.A.variant = beta\njoint.A.p = two\nmoments.r = 0.5\n",
                   "joint.A.p: expected a number, got 'two'"),
    "non-number-list": ("moments", HALF_A + "joint.B.variant = exp_mixture\njoint.B.weights = 0.5,x\n"
                        "joint.B.rates = 1,2\nmoments.r = 0.5\n",
                        "expected comma-separated numbers, got '0.5,x'"),
    "non-integer": ("simulate", HALF_A + EXP_B + "sim.n_samples = 1e5\n",
                    "sim.n_samples: expected an integer, got '1e5'"),
    "exp_mixture-lengths": ("moments", HALF_A + "joint.B.variant = exp_mixture\njoint.B.weights = 0.5,0.5\n"
                            "joint.B.rates = 1\nmoments.r = 0.5\n",
                            "joint.B: weights and rates must have equal length"),
    "atoms-lengths": ("moments", EXP_B + "joint.A.variant = atoms\njoint.A.values = 0.25,0.75\n"
                      "joint.A.weights = 1\nmoments.r = 0.5\n",
                      "joint.A: values and weights must have equal length"),
    "unknown-A": ("moments", EXP_B + "joint.A.variant = gamma\nmoments.r = 0.5\n",
                  "joint.A.variant: unknown variant 'gamma'"),
    "unknown-B": ("moments", HALF_A + "joint.B.variant = cauchy\nmoments.r = 0.5\n",
                  "joint.B.variant: unknown variant 'cauchy'"),
    "unknown-dependence": ("moments", HALF_A + EXP_B + "joint.dependence.variant = copula\nmoments.r = 0.5\n",
                           "joint.dependence.variant: unknown variant 'copula'"),
    "gamma-B": ("moments", HALF_A + "joint.B.variant = gamma\njoint.B.shape = 0\njoint.B.rate = 1\n"
                "moments.r = 0.5\n", "Gamma parameters must be > 0"),
    "pointmass-B": ("simulate", HALF_A + "joint.B.variant = pointmass\njoint.B.value = 1\n",
                    "degeneracy: B + A*c = c a.s. for c = 2"),
    "poly_exp-power": ("moments", HALF_A + "joint.B.variant = poly_exp\njoint.B.power = 1\njoint.B.rate = 1\n"
                       "moments.r = 0.5\n", "joint.B (poly_exp): needs power <= 0 and rate > 0"),
    "degenerate-A": ("simulate", EXP_B + "joint.A.variant = pointmass\njoint.A.value = 0\n",
                     "degeneracy: P{A=0} > 0"),
    "A-atom-at-minus-one": ("moments", EXP_B + "joint.A.variant = pointmass\njoint.A.value = -1\nmoments.r = 0.5\n",
                            "P{|A|=1} = 1 is outside both parts of the two-sided criterion"),
    "support_unbounded-not-a-truth-value": ("moments", HALF_A + EXP_B + "moments.r = 0.5\n"
                                            "moments.support_unbounded = yes\n",
                                            "moments.support_unbounded: expected true or false, got 'yes'"),
    "unknown-A-with-its-keys": ("moments", EXP_B + "joint.A.variant = foo\njoint.A.p = 1\nmoments.r = 0.5\n",
                                "joint.A.variant: unknown variant 'foo'"),
    "non-finite-number": ("moments", HALF_A + EXP_B + "moments.r = inf\n",
                          "moments.r: expected a finite number, got 'inf'"),
    "non-finite-list": ("simulate", HALF_A + EXP_B + "sim.x_grid = 1,nan\n",
                        "expected comma-separated finite numbers, got '1,nan'"),
}


@pytest.mark.parametrize("cmd,text,message", CONFIG_REFUSALS.values(), ids=CONFIG_REFUSALS.keys())
def test_config_refusal_exits_2_with_one_line(tmp_path, capsys, cmd, text, message):
    out = tmp_path / "o"
    assert run(cmd, write(tmp_path, text), out) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["validate"], "no reference case id given"),
    (["simulate", "--config", "{tmp}/absent.txt"], "[Errno 2] No such file or directory: '{tmp}/absent.txt'"),
], ids=["validate-without-case", "missing-config-file"])
def test_refusal_before_any_config_exits_2(tmp_path, capsys, argv, message):
    out = tmp_path / "o"
    assert main([a.format(tmp=tmp_path) for a in argv] + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message.format(tmp=tmp_path)}\n"
    assert not out.exists()


def test_absent_n_streams_keeps_the_sim_default_of_one_stream_per_core():
    assert cli_module.build_sim_config({}).n_streams is SimConfig(n_samples=1, master_seed=0).n_streams is None
    assert cli_module.build_sim_config({"sim.n_streams": "3"}).n_streams == 3


SIM_OUT_OF_RANGE = {
    "no-draws": ("sim.n_samples = -5\n", "sim.n_samples: must be >= 1, got -5"),
    "zero-draws": ("sim.n_samples = 0\n", "sim.n_samples: must be >= 1, got 0"),
    "no-streams": ("sim.n_streams = 0\n", "sim.n_streams: must be >= 1, got 0"),
    "no-terms": ("sim.max_terms = 0\n", "sim.max_terms: must be >= 1, got 0"),
    "too-many-terms": ("sim.max_terms = 2147483648\n", "sim.max_terms: must be <= 2147483647, got 2147483648"),
    "negative-eps": ("sim.truncation_eps = -1e-3\n", "sim.truncation_eps: must be >= 0, got -0.001"),
    "negative-seed": ("sim.seed = -1\n", "sim.seed: must be >= 0, got -1"),
}


@pytest.mark.parametrize("cmd", ["simulate", "tail", "validate"])
@pytest.mark.parametrize("line,message", SIM_OUT_OF_RANGE.values(), ids=SIM_OUT_OF_RANGE.keys())
def test_sim_numbers_out_of_range_exit_2_before_any_draw(tmp_path, capsys, monkeypatch, cmd, line, message):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew before refusing the config")

    monkeypatch.setattr(perpetuity.simulate, "_simulate_chunk", no_draw)
    monkeypatch.setattr(asymptotics, "_chunk_rng", no_draw)
    out = tmp_path / "o"
    text = HALF_A + EXP_B + "tail.b = 1.0\nvalidate.case = E1\n" + line
    assert run(cmd, write(tmp_path, text), out) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


TAIL_AND_MOMENTS_OUT_OF_RANGE = {
    "tail-b-word": ("tail", HALF_A + EXP_B + "tail.b = abc\n", "tail.b: expected a number, got 'abc'"),
    "tail-b-nan": ("tail", HALF_A + EXP_B + "tail.b = nan\n", "tail.b: expected a finite number, got 'nan'"),
    "tail-b-zero": ("tail", HALF_A + EXP_B + "tail.b = 0\n", "tail.b: must be > 0, got 0.0"),
    "tail-b-negative": ("tail", HALF_A + EXP_B + "tail.b = -1\n", "tail.b: must be > 0, got -1.0"),
    "tail-a-zero": ("tail", HALF_A + EXP_B + "tail.a = 0\n", "tail.a: must be > 0, got 0.0"),
    "threshold-tail-c-word": ("tail", THRESHOLD + "tail.a = 1\ntail.b = 1\ntail.c = abc\n",
                              "tail.c: expected a number, got 'abc'"),
    "moments-r-zero": ("moments", HALF_A + EXP_B + "moments.r = 0\n", "moments.r: must be > 0, got 0.0"),
    "moments-r-negative": ("moments", HALF_A + EXP_B + "moments.r = -0.5\n", "moments.r: must be > 0, got -0.5"),
}


@pytest.mark.parametrize("cmd,text,message", TAIL_AND_MOMENTS_OUT_OF_RANGE.values(),
                         ids=TAIL_AND_MOMENTS_OUT_OF_RANGE.keys())
def test_tail_and_moments_numbers_out_of_range_exit_2_before_any_draw(tmp_path, capsys, monkeypatch, cmd, text,
                                                                       message):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew before refusing the config")

    monkeypatch.setattr(perpetuity.simulate, "_simulate_chunk", no_draw)
    monkeypatch.setattr(asymptotics, "_chunk_rng", no_draw)
    out = tmp_path / "o"
    assert run(cmd, write(tmp_path, text), out) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_negative_seed_flag_exits_2(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["validate", "E1", "--seed", "-3", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: --seed: must be >= 0, got -3\n"
    assert not out.exists()


X_GRID = HALF_A + EXP_B + "sim.n_samples = 2000\nsim.seed = 5\nsim.x_grid = 1, 2.5,4\ntail.b = 1.0\n"


def test_simulate_reports_the_tail_on_the_configured_grid(tmp_path, capsys):
    out = tmp_path / "o"
    assert run("simulate", write(tmp_path, X_GRID), out) == 0
    assert capsys.readouterr().err == ""
    rows = json.loads((out / "summary.json").read_text())["empirical_tail"]
    assert [row["x"] for row in rows] == [1.0, 2.5, 4.0]
    assert all(0 < row["p_hat"] < 1 and row["std_err"] > 0 for row in rows)


def test_tail_verify_checks_the_configured_grid(tmp_path, capsys):
    out = tmp_path / "o"
    assert run("tail", write(tmp_path, X_GRID), out, "--verify") == 0
    assert capsys.readouterr().err == ""
    lines = (out / "ratio.csv").read_text().splitlines()
    assert lines[0] == "x,predicted,empirical,std_err,ratio"
    assert [float(line.split(",")[0]) for line in lines[1:]] == [1.0, 2.5, 4.0]


def test_tail_verify_refuses_a_non_finite_grid_before_writing(tmp_path, capsys):
    out = tmp_path / "o"
    assert run("tail", write(tmp_path, X_GRID.replace("1, 2.5,4", "1,nan")), out, "--verify") == 2
    assert capsys.readouterr().err == "config error: expected comma-separated finite numbers, got '1,nan'\n"
    assert not out.exists()


# a uniform A on (0.5, 1) and B = Exp(1) - Exp(2): no Beta(lam, 1) A and no inherited tail, so `tail` takes Thm1
THM1_DIFFERENCE = """
joint.A.variant = uniform
joint.A.lo = 0.5
joint.A.hi = 1
joint.B.variant = exp_difference
joint.B.left.weights = 1
joint.B.left.rates = 1
joint.B.right.weights = 1
joint.B.right.rates = 2
tail.c = -2
tail.b = 1
sim.n_samples = 2000
"""


def test_tail_refuses_a_non_finite_tail_parameter(tmp_path, capsys):
    out = tmp_path / "o"
    assert run("tail", write(tmp_path, THM1_DIFFERENCE + "tail.a = nan\n"), out) == 2
    assert capsys.readouterr().err == "config error: tail.a: expected a finite number, got 'nan'\n"
    assert not out.exists()


def test_thm1_trace_names_the_unbounded_support_of_B(tmp_path):
    out = tmp_path / "o"
    assert run("tail", write(tmp_path, THM1_DIFFERENCE + "tail.a = 1\n"), out) == 0
    pred = json.loads((out / "prediction.json").read_text())
    assert pred["theorem"] == "Thm1"
    trace = pred["preconditions_trace"]
    assert "1/x term omitted: B is unbounded below, so E e^{bB} is not integrated" in trace
    assert not any("did not converge" in line for line in trace)


def test_simulate_reports_the_exact_E_log_abs_A_of_a_straddling_uniform(tmp_path):
    text = "joint.A.variant = uniform\njoint.A.lo = -0.5\njoint.A.hi = 0.5\n" + EXP_B + "sim.n_samples = 1000\n"
    out = tmp_path / "o"
    assert run("simulate", write(tmp_path, text), out) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["convergence"] == {"e_log_abs_A": math.log(0.5) - 1.0, "verdict": "converges"}
