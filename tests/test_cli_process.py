"""What a CLI process sets up and what it loads: the allocator policy `main` applies before any
command, and scipy.special imported only where a law first needs it."""

import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import perpetuity
import perpetuity.cli as cli_module

SRC = Path(perpetuity.__file__).resolve().parent.parent


def _run_python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_main_applies_the_heap_policy_before_the_command(monkeypatch):
    calls = []
    monkeypatch.setattr(cli_module, "_keep_freed_heap", lambda: calls.append("policy") or True)
    monkeypatch.setitem(cli_module._COMMANDS, "moments", lambda cfg, args: calls.append("moments") or 0)
    assert cli_module.main(["moments"]) == 0
    assert calls == ["policy", "moments"]


class _NoMallopt:
    """A loaded libc without `mallopt`, as on macOS or Windows."""


def _cannot_load(name):
    raise OSError("no libc")


@pytest.mark.parametrize("cdll", [lambda name: _NoMallopt(), _cannot_load], ids=["no-mallopt", "no-libc"])
def test_heap_policy_is_a_no_op_without_mallopt(monkeypatch, cdll):
    monkeypatch.setattr(cli_module.ctypes, "CDLL", cdll)
    assert cli_module._keep_freed_heap() is False


# fixed before the run: without the policy E4's 10^5-draw batch took about 15,000 minor faults when drawn again
SECOND_BATCH_FAULT_BOUND = 2_000


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc", reason="glibc's mallopt only")
def test_a_second_batch_reuses_the_freed_heap():
    faults = _run_python("""
        import resource
        from perpetuity import cli, oracle
        from perpetuity.simulate import SimConfig, sample_batch

        assert cli._keep_freed_heap()
        # one stream: a helper thread's first chunk would fault in its own arena, whichever batch it falls in
        joint, sim = oracle.get_case("E4").joint, SimConfig(n_samples=100_000, master_seed=0, n_streams=1)
        sample_batch(joint, sim)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        sample_batch(joint, sim)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """)
    assert int(faults) < SECOND_BATCH_FAULT_BOUND


def test_moments_and_charfn_leave_scipy_special_unimported(tmp_path):
    beta_exp = tmp_path / "beta_exp.cfg"
    beta_exp.write_text("joint.A.variant = beta\njoint.A.p = 2\njoint.B.variant = exponential\njoint.B.rate = 1\n"
                        "moments.r = 0.5\n")
    loaded = _run_python(f"""
        import contextlib, io, sys
        from perpetuity.cli import main

        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["moments", {str(beta_exp)!r}, "--out", {str(tmp_path / "m")!r}]) == 0
            assert main(["charfn", {str(beta_exp)!r}, "--out", {str(tmp_path / "c")!r}]) == 0
        print("scipy.special" in sys.modules)
    """)
    assert loaded.strip() == "False"
