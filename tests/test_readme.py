"""The README's python quick tour and its commands run as printed."""

import re
from pathlib import Path

import pytest

from perpetuity.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_block_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks, "README has no python block"
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert abs(float(lines[0]) - 2.0) < 0.05          # E X = 2
    assert lines[1].startswith("Finite ")
    assert abs(float(lines[2]) - 3.4627466) < 1e-6    # closed MGF product


def _write_config(tmp_path):
    """The README's config, as config.txt under tmp_path."""
    config = re.search(r"```\n(joint\..*?)```", README.read_text(), flags=re.S).group(1)
    (tmp_path / "config.txt").write_text(config)


def test_readme_commands_run_as_printed(tmp_path, monkeypatch):
    # the command-line block, on the README's own config, without the [optional] flags
    text = README.read_text()
    _write_config(tmp_path)
    commands = [line.split()[1:] for line in re.search(r"```sh\n(perpetuity .*?)```", text, flags=re.S)
                .group(1).splitlines()]
    assert [c[0] for c in commands] == ["simulate", "moments", "tail", "validate", "charfn"]
    monkeypatch.chdir(tmp_path)
    codes = {c[0]: main([arg for arg in c if not arg.startswith("[")]) for c in commands}
    assert codes == {"simulate": 0, "moments": 0, "tail": 0, "validate": 0, "charfn": 0}


def test_readme_charfn_is_the_constant_coefficient_product(tmp_path, monkeypatch):
    # A = 1/2 and B ~ Exp(1): psi(t) = prod_k 1/(1 - i t 2^-k)
    _write_config(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["charfn", "config.txt", "--out", "results"]) == 0
    rows = (tmp_path / "results" / "charfn.csv").read_text().splitlines()[1:]
    assert len(rows) == 5
    for t, re_, im in (row.split(",") for row in rows):
        want = 1.0
        for k in range(80):
            want /= 1.0 - 1j * float(t) * 0.5 ** k
        assert complex(float(re_), float(im)) == pytest.approx(want, rel=1e-11, abs=0.0)
