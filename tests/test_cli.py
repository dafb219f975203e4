import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import perpetuity
from perpetuity.cli import (
    ConfigError,
    config_hash,
    main,
    parse_config_text,
    serialize_config,
)

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
    assert capsys.readouterr().err  # nearest-miss explanations on stderr


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
  "constant": 0.999999999999974,
  "form": {
    "a": 0.999999999999974,
    "b": 1.0,
    "c": 1.0
  },
  "preconditions_trace": [
    "remainder vanishing and integrability asserted",
    "remainder integral = 0.34657359028 (err 1e-11)",
    "no left tail (B >= 0)"
  ],
  "source": "Quadrature",
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


def test_validate_default_passes(tmp_path):
    assert main(["validate", "E1", "--out", str(tmp_path / "v"), "--no-timestamp"]) == 0
    report = json.loads((tmp_path / "v" / "validation.json").read_text())
    assert report["passed"] is True


def test_validate_unknown_case_exits_2(tmp_path, capsys):
    assert main(["validate", "E9", "--out", str(tmp_path / "v")]) == 2
    assert "E9" in capsys.readouterr().err


def test_validate_failure_exits_6(tmp_path):
    # deep anchors are unresolvable at this sample size for a fixed bad seed
    assert main(["validate", "E1", "--seed", "42", "--out", str(tmp_path / "v")]) == 6


def test_charfn_output(tmp_path):
    text = """
joint.A.variant = beta
joint.A.p = 1.0
joint.A.q = 1.0
joint.B.variant = exp_difference
joint.B.left.weights = 1.0
joint.B.left.rates = 2.0
joint.B.right.weights = 1.0
joint.B.right.rates = 1.0
charfn.t_grid = 0.5,1,2
"""
    path = write(tmp_path, text)
    out = tmp_path / "cf"
    assert run("charfn", path, out) == 0
    lines = (out / "charfn.csv").read_text().splitlines()
    assert lines[0] == "t,re,im"
    assert len(lines) == 4


def test_charfn_rejects_pointmass_coefficient(tmp_path):
    path = write(tmp_path, BASE)
    assert run("charfn", path, tmp_path / "o") == 2


def test_json_reports_are_byte_stable(tmp_path):
    path = write(tmp_path, BASE)
    run("moments", path, tmp_path / "a")
    run("moments", path, tmp_path / "b")
    assert (tmp_path / "a" / "verdict.json").read_bytes() == (tmp_path / "b" / "verdict.json").read_bytes()


def test_sample_csv_identical_across_stream_counts(tmp_path):
    blobs = []
    for streams in (1, 4, 8):
        path = write(tmp_path, BASE + f"sim.n_streams = {streams}\n", f"cfg{streams}.txt")
        out = tmp_path / f"out{streams}"
        assert run("simulate", path, out) == 0
        blobs.append((out / "samples.csv").read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


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
