"""The benchmark's eleven CLI commands give the same bytes as when the digests were written.

`workloads.Cli(31, tmp_path)` writes perfbench's fixed configs (seeds
drawn from 31) and lists its commands.  Each runs through `cli.main`
with `--no-timestamp`; its exit code, stdout, stderr and every output
file, with tmp_path redacted, go into one sha256 per command.  The
digests in tests/golden/cli_digests.json were written by the code before
the affine node replaced `Negated`, `Shifted` and `Scaled`; the
`tail.beta_exp` one since an exponential B's zero remainder became a
Frullani sum of no terms (its trace line and `source` moved, not its
constant); the `validate.E4` one since E4's reference became a contour
inversion of its transform (KS moved by 7e-11, the tail references by at
most 5.3e-8 relative, the exit code stayed 6); the `validate.E3` one since
`Difference.survival` integrates in t = sqrt(y - lo) (KS moved by 4.5e-13,
the five tail references by at most 5e-12 relative, toward mpmath's values,
the exit code stayed 0).  Every command that draws moved when each chunk's
stream went from Philox to PCG64DXSM: `simulate`, the three `tail` runs and
the five `validate` runs.  `validate` also went from the fixed [0.9, 1.1]
ratio band to binomial bands on the exceedance counts, with the level and
the verdict rule in `validation.json`; E4 and E5 went from exit 6 to 0.
`moments` and `charfn` draw nothing and kept their digests.
"""

import contextlib
import hashlib
import importlib
import io
import json
from pathlib import Path

from perpetuity import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
DIGESTS = Path(__file__).parent / "golden" / "cli_digests.json"


def _digest(argv, out: Path, tmp_path: Path) -> str:
    sink_out, sink_err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
        try:
            code = cli.main(argv + ["--out", str(out), "--no-timestamp"])
        except SystemExit as e:
            code = e.code
    parts = [str(code).encode(), sink_out.getvalue().encode(), sink_err.getvalue().encode()]
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        parts += [path.relative_to(out).as_posix().encode(), path.read_bytes()]
    h = hashlib.sha256()
    for part in parts:
        part = part.replace(str(tmp_path).encode(), b"<tmp>")
        h.update(len(part).to_bytes(8, "little") + part)
    return h.hexdigest()


def cli_digests(tmp_path: Path) -> dict:
    """label -> sha256 of the command's exit code, streams and output files."""
    workload = importlib.import_module("workloads").Cli(31, tmp_path)
    return {label: _digest(argv, tmp_path / label, tmp_path) for label, argv, _ in workload.commands}


def test_benchmark_cli_outputs_match_their_digests(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    assert cli_digests(tmp_path) == json.loads(DIGESTS.read_text())
