"""Byte-for-byte JSON reports on fixed configs.

The files under tests/golden/ were written by the code before the law
facts (exponential tail, Beta(lam, 1) shape, pole order, unit-atom
inequality) moved onto the distribution tree; the refactor must not
change a byte of them.  criteria_traces.json was written by the criteria
before their three-valued verdict rule was stated once.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from perpetuity import (Beta, Difference, Exponential, Gamma, JointInput, Mixture, Negated, PointMass,
                        SurvivalDefined, ThresholdDependent, Uniform)
from perpetuity.cli import main
from perpetuity.criteria import (dispatch_exp_moment, exp_moment_criterion_mixedA, exp_moment_criterion_positiveA,
                                 prop_main_part1, two_sided_criterion_AIR)

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("command,name,report", [
    ("tail", "tail_thm2_left_tail", "prediction.json"),
    ("tail", "tail_thm2_remainder", "prediction.json"),
    ("tail", "tail_atoms_exp", "prediction.json"),
    ("moments", "moments_unit_atom", "verdict.json"),
])
def test_cli_json_matches_golden(tmp_path, command, name, report):
    out = tmp_path / "out"
    assert main([command, str(GOLDEN / f"{name}.cfg"), "--out", str(out), "--no-timestamp"]) == 0
    assert (out / report).read_text() == (GOLDEN / f"{name}.json").read_text()


UNIT_ATOM_CASES = [
    ({-1.0: 0.2, 0.5: 0.8}, 4.0, 0.5),
    ({-1.0: 0.2, 1.0: 0.1, 0.5: 0.7}, 1.5, 1.0),
    ({-1.0: 0.3, 1.0: 0.3, 0.5: 0.4}, 1.5, 1.2),
    ({-1.0: 0.2, 0.5: 0.8}, 1.5, 2.0),
]


def test_unit_atom_verdicts_match_golden():
    out = {}
    for atoms, rate, r in UNIT_ATOM_CASES:
        joint = JointInput(Mixture(tuple((w, PointMass(v)) for v, w in atoms.items())), Exponential(rate))
        key = "A=" + ",".join(f"{v:g}:{w:g}" for v, w in atoms.items()) + f" B=Exp({rate:g}) r={r:g}"
        out[key] = {"prop_main_part1": prop_main_part1(joint, r).as_dict(),
                    "two_sided_criterion_AIR": two_sided_criterion_AIR(joint, r).as_dict()}
    text = json.dumps(out, indent=2, sort_keys=True) + "\n"
    assert text == (GOLDEN / "unit_atom_verdicts.json").read_text()


def _atoms(*pairs):
    return Mixture(tuple((w, PointMass(v)) for v, w in pairs))


_POLY_EXP = SurvivalDefined(lambda x: (1.0 + np.asarray(x, dtype=float)) ** -2
                            * np.exp(-np.asarray(x, dtype=float)), 0.0, 1.0, "poly-exp")
TRACE_A = {
    "pm(1)": PointMass(1.0),
    "pm(0.5)": PointMass(0.5),
    "pm(-1.5)": PointMass(-1.5),
    "atoms(0.5,-0.5)": _atoms((0.5, 0.5), (-0.5, 0.5)),
    "atoms(-1:.2,1:.1,0.5)": _atoms((-1.0, 0.2), (1.0, 0.1), (0.5, 0.7)),
    "atoms(-1:.999,0.5)": _atoms((-1.0, 0.999), (0.5, 0.001)),
    "atoms(0:.2,0.5)": _atoms((0.0, 0.2), (0.5, 0.8)),
    "atoms(-0.9,-0.5)": _atoms((-0.9, 0.5), (-0.5, 0.5)),
    "beta(1,2)": Beta(1.0, 2.0),
    "unif(0,1)": Uniform(0.0, 1.0),
    "unif(0.5,1.5)": Uniform(0.5, 1.5),
    "unif(-0.9,-0.1)": Uniform(-0.9, -0.1),
    "unif(-0.5,0.5)": Uniform(-0.5, 0.5),
    "mix(1:.5,unif(0,1))": Mixture(((0.5, PointMass(1.0)), (0.5, Uniform(0.0, 1.0)))),
    "mix(-0.5:.5,unif(-0.9,-0.1))": Mixture(((0.5, PointMass(-0.5)), (0.5, Uniform(-0.9, -0.1)))),
    "mix(unif(0,0.5),beta(2,1))": Mixture(((0.5, Uniform(0.0, 0.5)), (0.5, Beta(2.0, 1.0)))),
}
TRACE_B = {
    "exp(1)": Exponential(1.0),
    "gamma(1.5,2)": Gamma(1.5, 2.0),
    "pm(0.1)": PointMass(0.1),
    "unif(0,1)": Uniform(0.0, 1.0),
    "diff(exp(1),exp(2))": Difference(Exponential(1.0), Exponential(2.0)),
    "neg(exp(1))": Negated(Exponential(1.0)),
    "mix(0:.5,exp(1))": Mixture(((0.5, PointMass(0.0)), (0.5, Exponential(1.0)))),
    "poly-exp": _POLY_EXP,
}
TRACE_JOINTS = {f"A={a} B={b}": JointInput(A, B) for a, A in TRACE_A.items() for b, B in TRACE_B.items()}
# a coefficient whose atom at 1 the tree cannot state
TRACE_JOINTS["A=diff(poly-exp,pm(-0.5)) B=exp(1)"] = JointInput(Difference(_POLY_EXP, PointMass(-0.5)),
                                                                Exponential(1.0))
TRACE_JOINTS["threshold(0.3,0.7,1) B=exp(1)"] = JointInput(None, Exponential(1.0), ThresholdDependent(0.3, 0.7, 1.0))
TRACE_JOINTS["threshold(0.3,0.7,1) B=poly-exp"] = JointInput(None, _POLY_EXP, ThresholdDependent(0.3, 0.7, 1.0))
TRACE_ENTRIES = {f.__name__: f for f in (dispatch_exp_moment, exp_moment_criterion_positiveA,
                                         exp_moment_criterion_mixedA, two_sided_criterion_AIR, prop_main_part1)}


def criteria_trace_text():
    """One line per (joint, r, entry point): the verdict's JSON, or the exception's type and message."""
    lines = []
    for key, joint in TRACE_JOINTS.items():
        for r in (0.5, 2.0):
            for name, entry in TRACE_ENTRIES.items():
                try:
                    got = json.dumps(entry(joint, r).as_dict(), sort_keys=True)
                except ValueError as exc:  # DispatchError and a bad r: the refusal is part of the contract
                    got = json.dumps(f"{type(exc).__name__}: {exc}")
                lines.append(f"{json.dumps(f'{key} r={r:g} {name}')}: {got}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def test_criteria_traces_match_golden():
    text = criteria_trace_text()
    assert text == (GOLDEN / "criteria_traces.json").read_text()
    # the grid reaches every verdict of every criterion branch, and the refusals
    reached = {(v["theorem_used"], v["verdict"]) if isinstance(v, dict) else v.split(":")[0]
               for v in json.loads(text).values()}
    branches = ["positive-A exponential-moment criterion", "mixed-sign-A exponential-moment criterion"]
    branches += [f"two-sided absolute-moment criterion ({p})" for p in ("no unit atoms", "unit atoms")]
    branches += [f"E psi(rA) finiteness criterion ({p})" for p in "abc"]
    assert reached == {(b, v) for b in branches for v in ("Finite", "Infinite", "Inconclusive")} | {
        ("none", "Inconclusive"), "DispatchError"}
