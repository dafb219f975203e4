"""The README's python quick tour runs as printed."""

import re
from pathlib import Path

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
