"""The benchmark's traced runs patch program functions by name; a renamed or dropped one fails here.

perfbench/workloads.py replaces attributes such as `cli.thm2_K` and
`asymptotics.thm2_K` with traced wrappers.  Entering each workload's
tracing context looks every target up, and a registry prediction inside
it runs through the wrappers.
"""

import importlib
from pathlib import Path

import pytest

from perpetuity import asymptotics, cli
from perpetuity.oracle import list_cases

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
THM2_CASES = 4  # E1, E3, E4, E5; E2 takes the constant-A route


@pytest.mark.parametrize("name", ["Analytic", "Cli"])
def test_traced_workloads_find_their_patch_targets(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    harness = importlib.import_module("harness")
    workloads = importlib.import_module("workloads")
    originals = (asymptotics.thm2_K, cli.thm2_K, cli.prop_main_constant, cli.thm1_constant)
    workload = getattr(workloads, name)(1, tmp_path)
    tracer = harness.Tracer()
    with workload.tracing(tracer):
        for case in list_cases():
            assert case.predict().form.b == case.asymptote.b
    if name == "Analytic":
        assert len(tracer.named("asymptotics.thm2_K")) == THM2_CASES
    assert (asymptotics.thm2_K, cli.thm2_K, cli.prop_main_constant, cli.thm1_constant) == originals
