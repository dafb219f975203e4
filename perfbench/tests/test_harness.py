"""Tests of the benchmark's own arithmetic: latency summaries, failure
accounting, span self time, the pass loop, and the metric catalogue
against BENCHMARK.json.

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import layers  # noqa: E402
from harness import Span, Tally, Tracer, run_passes, self_times, summarize  # noqa: E402


# -- latency summary ------------------------------------------------------------

def test_summary_median_and_tail_with_ten_beyond():
    s = summarize(range(1, 1001))
    assert s["count"] == 1000
    assert s["p50"] == 500.5
    # p99.5 would leave only 5 samples beyond; p99 leaves exactly 10
    assert (s["tail_pct"], s["tail"], s["beyond"]) == (99.0, 990.0, 10)


def test_summary_tail_falls_back_to_lower_percentile():
    s = summarize(range(100, 0, -1))
    assert (s["tail_pct"], s["tail"], s["beyond"]) == (90.0, 90.0, 10)


def test_summary_without_enough_samples_has_no_tail():
    s = summarize([3.0, 1.0, 2.0])
    assert s["p50"] == 2.0 and s["tail"] is None and s["tail_pct"] is None


# -- failure accounting -----------------------------------------------------------

def test_exit_6_is_counted_apart_from_failures():
    t = Tally()
    t.exit_code(0, "validate E1", verdict=(6,))
    t.exit_code(6, "validate E3", verdict=(6,))
    t.exit_code(2, "validate E4", verdict=(6,))
    assert (t.attempted, t.failed, t.verdicts) == (3, 1, 1)
    assert t.failed_frac == pytest.approx(1 / 3)
    assert "validate E4" in t.messages[0]


def test_exit_6_without_verdict_allowance_is_a_failure():
    t = Tally()
    assert not t.exit_code(6, "tail")
    assert (t.attempted, t.failed, t.verdicts) == (1, 1, 0)


def test_exception_and_failed_check_count_as_failures():
    t = Tally()
    assert t.guard("ok", lambda: 7) == 7
    assert t.guard("boom", lambda: 1 / 0) is None
    t.check(True, "fine")
    t.check(False, "bytes differ")
    assert (t.attempted, t.failed) == (3, 2)
    assert "ZeroDivisionError" in t.messages[0] and t.messages[1] == "bytes differ"


# -- spans and self time ----------------------------------------------------------

def test_self_time_subtracts_direct_children():
    spans = [Span("cli", None, 0.0, 10.0), Span("simulate", 0, 1.0, 3.0),
             Span("oracle", 0, 4.0, 8.0), Span("quadrature", 2, 5.0, 6.0)]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [Span("parent", None, 0.0, 10.0), Span("a", 0, 1.0, 5.0),
             Span("b", 0, 4.0, 8.0), Span("c", 0, 9.0, 12.0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 1.0)


def test_tracer_nests_spans_and_restores_patched_attributes():
    owner = types.SimpleNamespace(f=lambda x: x + 1)
    orig = owner.f
    tr = Tracer()
    with tr.span("outer"):
        with tr.patched([(owner, "f", "layer.f")]):
            assert owner.f(1) == 2
            assert owner.f is not orig
    assert owner.f is orig
    assert [(s.name, s.parent) for s in tr.spans] == [("outer", None), ("layer.f", 0)]
    assert all(s.end >= s.start for s in tr.spans)


# -- pass loop ------------------------------------------------------------------

def test_run_passes_runs_at_least_once_and_stops_near_the_budget():
    nap = lambda i: [lambda: time.sleep(0.01), lambda: time.sleep(0.01)]
    walls, kernel = run_passes(nap, 0.0)
    assert len(walls) == 1 and kernel == [] and walls[0] >= 0.02
    walls, _ = run_passes(nap, 0.1)
    assert 3 <= len(walls) <= 7


def test_run_passes_calibrates_after_every_operation_outside_the_pass_time():
    walls, kernel = run_passes(lambda i: [lambda: time.sleep(0.01)] * 3, 0.0, calibrate=True)
    assert len(walls) == 1 and len(kernel) == 3
    assert walls[0] < 0.03 + sum(kernel) / 2  # the kernel time is not in the pass


# -- catalogue ------------------------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_catalogue_matches_benchmark_json():
    doc = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(layers.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == list(layers.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [r[:3] for r in layers.PER_LAYER]


def test_catalogue_names_are_valid_and_unique():
    rows = list(layers.END_TO_END) + list(layers.PER_LAYER)
    names = [r[0] for r in rows]
    assert len(names) == len(set(names))
    for name, unit, better, *_ in rows:
        assert NAME.match(name) and UNIT.match(unit) and better in ("lower", "higher"), name
    assert ("setup_s", "s", "lower", max(b for *_, b in layers.END_TO_END)) == layers.END_TO_END[0]
    assert all(moves for *_, moves in layers.PER_LAYER)
