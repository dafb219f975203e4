"""The README's python quick tour and its commands run as printed."""

import re
from pathlib import Path

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


def test_readme_commands_run_as_printed(tmp_path, monkeypatch):
    # the command-line block, on the README's own config, without the [optional] flags
    text = README.read_text()
    config = re.search(r"```\n(joint\..*?)```", text, flags=re.S).group(1)
    (tmp_path / "config.txt").write_text(config)
    commands = [line.split()[1:] for line in re.search(r"```sh\n(perpetuity .*?)```", text, flags=re.S)
                .group(1).splitlines()]
    assert [c[0] for c in commands] == ["simulate", "moments", "tail", "validate", "charfn"]
    monkeypatch.chdir(tmp_path)
    codes = {c[0]: main([arg for arg in c if not arg.startswith("[")]) for c in commands}
    # charfn needs a Beta(lam, 1) coefficient, and the README's config has a constant one
    assert codes == {"simulate": 0, "moments": 0, "tail": 0, "validate": 0, "charfn": 2}
