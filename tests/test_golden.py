"""Byte-for-byte JSON reports on fixed configs.

The files under tests/golden/ were written by the code before the law
facts (exponential tail, Beta(lam, 1) shape, pole order, unit-atom
inequality) moved onto the distribution tree; the refactor must not
change a byte of them.
"""

import json
from pathlib import Path

import pytest

from perpetuity import Exponential, JointInput, Mixture, PointMass
from perpetuity.cli import main
from perpetuity.criteria import prop_main_part1, two_sided_criterion_AIR

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
