"""Metric catalogue: every metric the benchmark prints, with its unit, its
direction and, for per-layer metrics, the end-to-end metric and workload
it should move.

BENCHMARK.json lists the same names and units (tests/test_harness.py
keeps the two in step); its fixed key set has no room for the "moves"
column, so that column lives here and is printed with every traced run.
"""

from __future__ import annotations

WORKLOADS = ("mc-large", "analytic", "cli")

# name, unit, better, bound (share of the parent's median).
#
# wall_norm_s is the median pass wall time scaled to a reference host speed:
# x KERNEL_REF_S / mean time of a fixed reference kernel run between the
# workload's operations (harness.run_passes).  On a shared 2-vCPU Xeon VM
# the raw median pass time drifted with the host's CPU speed: its
# run-to-run spread (quartile distance over median, ten seeds, 25 s runs)
# reached 0.28 on analytic and 0.35 on cli, against 0.13 for wall_norm_s in
# the same runs.  Process CPU time tracked wall time, so the drift was not
# stolen time, and more passes per run did not remove it.  The raw median
# is still printed as wall_s, ungated.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_norm_s", "s", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

MC_JOINTS = ("beta_exp", "pm_exp", "unif_polyexp")
CLI_JOINTS = ("beta_exp", "atoms_exp", "unif_polyexp")
CASES = ("E1", "E2", "E3", "E4", "E5")
CLI_COMMANDS = ("simulate", "moments", "tail.beta_exp", "tail.atoms_exp", "tail.unif_polyexp",
                "charfn") + tuple(f"validate.{c}" for c in CASES)

# Per-law draw costs (ns per draw, Philox, 65,536-draw batches) measured when
# the ROADMAP was written; printed beside the traced figures for comparison.
ROADMAP_DRAW_NS = {"beta2_1": 73.9, "exponential1": 14.4, "polyexp": 191.0}

MC = "wall_norm_s on mc-large"
AN = "wall_norm_s on analytic"
CLI = "wall_norm_s on cli"


def _per_layer():
    rows = []
    for law in ("beta2_1", "uniform01", "exponential1", "polyexp", "mixture_e2", "pointmass05"):
        rows.append((f"distributions.draw_ns.{law}", "ns", "lower", f"{MC}; {CLI}"))
    rows.append(("distributions.table_build_ms.polyexp", "ms", "lower", "setup_s on mc-large and cli"))
    rows.append(("distributions.survival_us.difference_gamma", "us", "lower", f"{AN}; {CLI}"))
    for j in MC_JOINTS:
        rows += [
            (f"simulate.batch_s.{j}.1stream", "s", "lower", MC),
            (f"simulate.batch_s.{j}.2stream", "s", "lower", MC),
            (f"simulate.ns_per_term.{j}", "ns", "lower", MC),
            (f"simulate.mean_terms.{j}", "count", "lower", MC),
            (f"simulate.term_samples.{j}", "count", "lower", MC),
            (f"simulate.truncated.{j}", "count", "lower", MC),
            (f"simulate.stream_speedup.{j}", "x", "higher", f"{MC} (2-stream batches only)"),
            (f"simulate.sampler_share.{j}", "computed_frac", "lower", MC),
        ]
    for j in CLI_JOINTS:
        rows.append((f"simulate.small_batch_ms.{j}", "ms", "lower", CLI))
    rows.append(("simulate.csv_write_ms", "ms", "lower", CLI))
    rows += [
        ("quadrature.integrals", "count", "lower", AN),
        ("quadrature.panels_per_integral", "count", "lower", AN),
        ("quadrature.evals_per_integral", "count", "lower", AN),
        ("quadrature.ns_per_eval", "ns", "lower", AN),
        ("quadrature.nonconverged", "count", "lower", AN),
        ("criteria.verdict_us", "us", "lower", AN),
        ("criteria.verdict_mismatch", "count", "lower", "correctness on analytic"),
    ]
    for c in ("E1", "E3", "E4", "E5"):
        rows.append((f"asymptotics.thm2_K_ms.{c}", "ms", "lower", AN))
    rows += [
        ("asymptotics.prop_main_ms.E2", "ms", "lower", AN),
        ("asymptotics.cf_us_per_t", "us", "lower", AN),
        ("asymptotics.thm1_s", "s", "lower", CLI),
        ("asymptotics.prop_main_mc_s", "s", "lower", CLI),
    ]
    for c in ("E3", "E4", "E5"):
        rows.append((f"oracle.refsurv_ms_per_point.{c}", "ms", "lower", f"{AN}; {CLI}"))
    for c in CASES:
        rows.append((f"oracle.validate_sample_s.{c}", "s", "lower", CLI))
    for c in CASES:
        rows.append((f"oracle.validate_reference_s.{c}", "s", "lower", CLI))
    rows.append(("oracle.validate_failed", "count", "lower", "informational (statistical verdicts)"))
    for cmd in CLI_COMMANDS:
        rows.append((f"cli.cmd_s.{cmd}", "s", "lower", CLI))
    rows.append(("cli.self_frac", "frac", "lower", CLI))
    rows.append(("trace.overhead_frac", "frac", "lower", "none (cost of tracing itself)"))
    return tuple(rows)


PER_LAYER = _per_layer()
