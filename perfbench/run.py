"""perpetuity-lab benchmark.

    python3 perfbench/run.py --workload {mc-large,analytic,cli} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ./src.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end metrics of the named workload, measured untraced; with
--trace 1 they are the per-layer metrics (layers.PER_LAYER), taken from
spans that this benchmark records around its calls into the program.
Lines before it are a readable report; the full record, with provenance
and sample counts, is written to .perfbench_out/<workload>-<seed>-<mode>/.
"""

import time

T_START = time.perf_counter()  # setup_s probes measure from here: imports follow

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120


def _use_program_sources():
    src = ROOT / "src"
    if not (src / "perpetuity" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))


def _setup_probe(workload, seed, work):
    """One fresh-interpreter set-up: import, build the inputs, one warm-up operation."""
    import harness
    import workloads

    tally = harness.Tally()
    w = workloads.make(workload, seed, work)
    w.warmup(tally)
    if tally.failed:
        raise SystemExit("perfbench: warm-up failed\n" + "\n".join(tally.messages))
    print(json.dumps({"setup_s": time.perf_counter() - T_START}))


def _measure_setup(workload, seed, work):
    values = []
    for k in range(SETUP_PROBES):
        res = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload,
             "--seed", str(seed), "--work", str(work / f"probe{k}")],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if res.returncode != 0:
            raise RuntimeError(f"set-up probe exited {res.returncode}: {res.stderr[-2000:]}")
        values.append(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])
    return values


def _plain_run(args, work, tally):
    import harness
    import workloads

    setup = _measure_setup(args.workload, args.seed, work)
    w = workloads.make(args.workload, args.seed, work / args.workload)
    w.warmup(tally)
    walls, kernel = harness.run_passes(lambda i: w.ops(i, tally), args.seconds, calibrate=True)
    w.finish(tally)
    # the mean, like a pass time, averages the host speed over time
    speed = harness.KERNEL_REF_S / statistics.fmean(kernel)
    metrics = {
        "setup_s": (statistics.median(setup), len(setup), "median of fresh-interpreter probes"),
        "wall_norm_s": (statistics.median(walls) * speed, len(walls),
                        f"median pass wall time x host speed ({len(kernel)} reference-kernel samples)"),
        "peak_rss_mb": (harness.peak_rss_mb(), 1, "getrusage(RUSAGE_SELF) peak"),
    }
    headline = {"wall_s": {"value": statistics.median(walls), "unit": "s", "samples": len(walls),
                           "statistic": "median pass wall time, not normalized"},
                **w.headline()}
    return metrics, {"headline": headline, **_extra(w), "setup_probes_s": setup, "pass_walls_s": walls,
                     "kernel_s": kernel, "host_speed": speed}


def _traced_run(args, work, tally):
    """Untraced then traced passes of the named workload, for the tracing
    overhead; then one traced pass of each other workload, so that every
    per-layer metric is present in every traced run."""
    import harness
    import layers
    import workloads

    spans_out = {}
    w = workloads.make(args.workload, args.seed, work / args.workload)
    w.warmup(tally)
    plain, _ = harness.run_passes(lambda i: w.ops(i, tally), args.seconds / 2.0)
    w.reset()
    tracer = harness.Tracer()
    with w.tracing(tracer):
        traced, _ = harness.run_passes(lambda i: w.ops(i, tally, tracer), args.seconds / 2.0)
    runs = [(w, tracer, len(traced))]  # workload, its spans, traced passes
    for other in layers.WORKLOADS:
        if other == args.workload:
            continue
        o = workloads.make(other, args.seed, work / other)
        o.warmup(tally)
        t = harness.Tracer()
        with o.tracing(t):
            for op in o.ops(0, tally, t):
                op()
        runs.append((o, t, 1))
    draw_ns = workloads.distribution_metrics(args.seed)
    values = dict(draw_ns)
    for wl, t, passes in runs:
        values.update(wl.layer_metrics(t, draw_ns))
        spans_out[wl.name] = (t, passes)
    values["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(plain) - 1.0, len(traced),
                                     "median traced pass / median untraced pass - 1")
    metrics = {name: values[name] for name, *_ in layers.PER_LAYER}
    extra = {"untraced_pass_walls_s": plain, "traced_pass_walls_s": traced,
             "roadmap_draw_ns": layers.ROADMAP_DRAW_NS,
             "moves": {name: moves for name, _, _, moves in layers.PER_LAYER}}
    for wl, _, _ in runs:
        extra.update(_extra(wl))
    return metrics, extra, spans_out


def _extra(w):
    out = {}
    if w.name == "cli":
        out["validate"] = w.validate
        out["validate_note"] = ("exit 6 is a statistical verdict at the CLI defaults (10^5 draws, "
                                "seed 0); it is counted apart and never in failed")
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("mc-large", "analytic", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--work", type=str, default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    _use_program_sources()
    if args.setup_probe:
        _setup_probe(args.workload, args.seed, Path(args.work))
        return 0

    import harness
    import layers

    mode = "trace" if args.trace else "plain"
    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-{args.seed}-{mode}"
    work = out_dir / "work"
    shutil.rmtree(out_dir, ignore_errors=True)
    work.mkdir(parents=True)
    tally = harness.Tally()
    try:
        if args.trace:
            metrics, extra, tracers = _traced_run(args, work, tally)
            catalogue = {name: unit for name, unit, *_ in layers.PER_LAYER}
            for name, (t, passes) in tracers.items():
                t.dump(out_dir / f"spans-{name}.json")
                extra.setdefault("traced_passes", {})[name] = passes
        else:
            metrics, extra = _plain_run(args, work, tally)
            catalogue = {name: unit for name, unit, *_ in layers.END_TO_END}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    bad = [name for name, (v, *_) in metrics.items() if not math.isfinite(float(v))]
    if bad:
        raise SystemExit(f"perfbench: metrics not measured: {', '.join(bad)}")
    record = {
        "provenance": harness.provenance(ROOT, args.workload, args.seed),
        "seconds": args.seconds,
        "metrics": {name: {"value": float(v), "unit": catalogue[name], "samples": n, "statistic": stat}
                    for name, (v, n, stat) in metrics.items()},
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_frac": tally.failed_frac,
        "statistical_verdicts": tally.verdicts,
        "failures": tally.messages,
        **extra,
    }
    (out_dir / "result.json").write_text(json.dumps(record, indent=1))

    print(f"# perfbench {args.workload} seed={args.seed} mode={mode} -> {out_dir.relative_to(ROOT)}/result.json")
    print("# provenance " + json.dumps(record["provenance"]))
    for name, m in record["metrics"].items():
        moves = f"  moves: {extra['moves'][name]}" if "moves" in extra else ""
        law = name.rsplit(".", 1)[-1]
        if name.startswith("distributions.draw_ns.") and law in layers.ROADMAP_DRAW_NS:
            moves = f"  ROADMAP baseline {layers.ROADMAP_DRAW_NS[law]} ns;" + moves
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']:<14s} n={m['samples']} ({m['statistic']}){moves}")
    for name, m in extra.get("headline", {}).items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']:<14s} n={m['samples']} ({m['statistic']})")
    for label, v in extra.get("validate", {}).items():
        ratios = ", ".join(f"{r['ratio']:.3f}" for r in v["tail_rows"])
        print(f"# {label}: exit {v['exit_code']}, KS {v['ks']:.4g} (threshold {v['ks_threshold']:.4g}), "
              f"tail ratios [{ratios}]")
    if "validate_note" in extra:
        print("# note: " + extra["validate_note"])
    print(f"# attempted {tally.attempted}, failed {tally.failed} (failed_frac {tally.failed_frac:.3g}), "
          f"statistical verdicts counted apart: {tally.verdicts}")
    for msg in tally.messages:
        print("# FAILED: " + msg.replace("\n", " | "), file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
