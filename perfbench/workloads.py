"""The three closed-loop workloads.

Each workload is one client thread that issues its next call only after
the previous one returned; the program may use a second thread only
through `SimConfig.n_streams = 2`.  A workload turns the benchmark seed
into inputs (configs and `SimConfig`s) in its constructor and hands only
those to the program.  One *pass* is a fixed list of operations (`ops`);
the end-to-end `wall_norm_s` is the median pass time scaled to a
reference host speed (see harness.run_passes).

Why these three:

* mc-large: long `sample_batch` calls on the three ROADMAP joints, at 1
  and 2 streams.  The samplers and the series kernel do almost all the
  work; the analytic modules do none.  The joints differ in terms per
  draw and in per-law cost (Beta, poly-exp inversion, constant A), so
  each sampler change has a joint that shows it.
* analytic: no draws at all.  Tail constants, verdicts, characteristic
  functions, Frullani integrals and exact reference survivals.  It shows
  a quadrature or oracle change, and should show no change from a
  sampler change.
* cli: the five commands in-process at the CLI's default size (10^5
  draws, one stream), where per-call costs weigh more: per-chunk
  seeding, the poly-exp table build, the convergence check, CSV
  formatting, sort/quantile and the oracle's reference CDF.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import io
import json
import math
import statistics
import time
from pathlib import Path

import numpy as np
from scipy import special

from perpetuity import asymptotics, cli, oracle, simulate
from perpetuity.asymptotics import perpetuity_cf
from perpetuity.criteria import dispatch_exp_moment
from perpetuity.distributions import (
    Beta,
    Difference,
    Exponential,
    Gamma,
    JointInput,
    Mixture,
    PointMass,
    SurvivalDefined,
    Uniform,
)
from perpetuity.oracle import list_cases, reference_survival
from perpetuity.quadrature import frullani, integrate_semi_infinite
from perpetuity.simulate import CHUNK, SimConfig, sample_batch

from harness import Tally, Tracer, self_times, summarize
from layers import CASES, CLI_COMMANDS, CLI_JOINTS, MC_JOINTS

MC_CHUNKS = 4          # draws per mc-large batch = MC_CHUNKS * 65,536
DRAW_REPS = 15         # 65,536-draw batches per law in the sampler micro-benchmark


def _span(tracer, name, **attrs):
    return tracer.span(name, **attrs) if tracer is not None else contextlib.nullcontext()


def _median(xs):
    return statistics.median(xs) if xs else math.nan


def _med(xs, scale=1.0):
    """(value, sample count, statistic) of one per-layer metric: median * scale."""
    return (_median(xs) * scale, len(xs), "median")


def poly_exp():
    """B with survival (1+x)^-2 e^-x, the poly-exp law of the ROADMAP joints."""
    S = lambda x: (1.0 + np.asarray(x, dtype=float)) ** -2 * np.exp(-np.asarray(x, dtype=float))
    return SurvivalDefined(S, 0.0, 1.0, "poly-exp")


def _cases():
    return {c.id.split("-")[0]: c for c in list_cases()}


# ---------------------------------------------------------------------------
# mc-large
# ---------------------------------------------------------------------------

class McLarge:
    name = "mc-large"

    def __init__(self, seed: int, work: Path):
        self.joints = {
            "beta_exp": JointInput(Beta(2.0, 1.0), Exponential(1.0)),
            "pm_exp": JointInput(PointMass(0.5), Exponential(1.0)),
            "unif_polyexp": JointInput(Uniform(0.0, 1.0), poly_exp()),
        }
        # E X = E B / (1 - E A); E B = 1 - e E_1(1) for the poly-exp law
        self.exact_mean = {"beta_exp": 3.0, "pm_exp": 2.0,
                           "unif_polyexp": 2.0 * (1.0 - math.e * float(special.exp1(1.0)))}
        self.n = MC_CHUNKS * CHUNK
        self.master_seeds = np.random.default_rng([seed, 1]).integers(0, 2**31 - 1, size=(64, len(MC_JOINTS)))
        self.records = []

    def reset(self):
        self.records = []

    def tracing(self, tracer):
        return contextlib.nullcontext()

    def warmup(self, tally: Tally):
        for name, joint in self.joints.items():
            tally.guard(f"warmup {name}", sample_batch, joint, SimConfig(n_samples=4096, master_seed=1))

    def _batch(self, tracer, name, seed, streams):
        cfg = SimConfig(n_samples=self.n, master_seed=seed, n_streams=streams)
        t0 = time.perf_counter()
        with _span(tracer, "simulate.sample_batch", joint=name, streams=streams):
            batch = sample_batch(self.joints[name], cfg)
        return batch, time.perf_counter() - t0

    def _joint_op(self, i, k, name, tally, tracer):
        seed = int(self.master_seeds[i % len(self.master_seeds), k])
        b1, t1 = self._batch(tracer, name, seed, 1)
        b2, t2 = self._batch(tracer, name, seed, 2)
        tally.check(b1.values.tobytes() == b2.values.tobytes(),
                    f"{name} seed {seed}: samples differ between 1 and 2 streams")
        v = b1.values
        se = float(v.std(ddof=1)) / math.sqrt(v.size)
        tally.check(bool(np.all(np.isfinite(v))) and abs(float(v.mean()) - self.exact_mean[name]) <= 6.0 * se,
                    f"{name} seed {seed}: mean {v.mean():.6g} vs exact {self.exact_mean[name]:.6g}")
        rep = b1.truncation_report
        for streams, t in ((1, t1), (2, t2)):
            self.records.append({"pass": i, "joint": name, "streams": streams, "seconds": t,
                                 "term_samples": int(b1.terms_used.sum()),
                                 "mean_terms": rep["mean_terms"], "truncated": rep["n_truncated"]})

    def ops(self, i: int, tally: Tally, tracer=None):
        return [functools.partial(tally.guard, f"mc-large {name}", self._joint_op, i, k, name, tally, tracer)
                for k, name in enumerate(MC_JOINTS)]

    def finish(self, tally: Tally):
        pass

    def headline(self) -> dict:
        out = {}
        for streams in (1, 2):
            rows = [r for r in self.records if r["streams"] == streams]
            secs = sum(r["seconds"] for r in rows)
            out[f"draws_per_s.{streams}stream"] = {
                "value": len(rows) * self.n / secs if secs else math.nan, "unit": "1/s",
                "samples": len(rows), "statistic": "pooled over the three joints"}
        return out

    def layer_metrics(self, tracer: Tracer, draw_ns: dict) -> dict:
        laws = {"beta_exp": ("beta2_1", "exponential1"), "pm_exp": ("pointmass05", "exponential1"),
                "unif_polyexp": ("uniform01", "polyexp")}
        out = {}
        for name in MC_JOINTS:
            rows = {s: [r for r in self.records if r["joint"] == name and r["streams"] == s] for s in (1, 2)}
            n = len(rows[1])
            t1, t2 = _median([r["seconds"] for r in rows[1]]), _median([r["seconds"] for r in rows[2]])
            first = rows[1][0]
            ns_term = _median([r["seconds"] / r["term_samples"] * 1e9 for r in rows[1]])
            law_ns = sum(draw_ns[f"distributions.draw_ns.{law}"][0] for law in laws[name])
            out.update({
                f"simulate.batch_s.{name}.1stream": (t1, n, "median"),
                f"simulate.batch_s.{name}.2stream": (t2, len(rows[2]), "median"),
                f"simulate.ns_per_term.{name}": (ns_term, n, "median"),
                f"simulate.mean_terms.{name}": (first["mean_terms"], 1, "first traced pass"),
                f"simulate.term_samples.{name}": (first["term_samples"], 1, "exact count, first traced pass"),
                f"simulate.truncated.{name}": (first["truncated"], 1, "exact count, first traced pass"),
                f"simulate.stream_speedup.{name}": (t1 / t2, n, "ratio of medians"),
                f"simulate.sampler_share.{name}": (law_ns / ns_term, n,
                                                   "computed: (draw_ns A + draw_ns B) / ns_per_term"),
            })
        return out


# ---------------------------------------------------------------------------
# analytic
# ---------------------------------------------------------------------------

def _atoms(*pairs):
    return Mixture(tuple((w, PointMass(v)) for v, w in pairs))


# The nine worked verdicts of acceptance criterion 6: (joint, r, verdict).
VERDICT_TABLE = (
    (JointInput(Beta(2.0, 1.0), Exponential(1.0)), 0.5, "Finite"),
    (JointInput(Beta(2.0, 1.0), Exponential(1.0)), 1.5, "Infinite"),
    (JointInput(Mixture(((0.5, PointMass(1.0)), (0.5, Uniform(0.0, 1.0)))), Exponential(2.0)), 1.0, "Infinite"),
    (JointInput(_atoms((0.5, 0.5), (-0.5, 0.5)), Exponential(2.0)), 1.0, "Finite"),
    (JointInput(PointMass(-0.5), Exponential(1.0)), 0.5, "Finite"),
    (JointInput(PointMass(-0.5), Exponential(1.0)), 1.2, "Infinite"),
    (JointInput(PointMass(0.5), Exponential(2.0)), 1.0, "Finite"),
    (JointInput(_atoms((-1.0, 0.3), (0.5, 0.7)), PointMass(0.1)), 1.0, "Finite"),
    (JointInput(_atoms((-1.0, 0.999), (0.5, 0.001)), Exponential(1.0)), 0.9, "Infinite"),
)


def _form_matches(pred, want, rel=1e-6) -> bool:
    f = pred.form
    return (abs(f.a - want.a) <= rel * abs(want.a)
            and abs(f.c - want.c) <= rel * max(abs(want.c), 1.0)
            and abs(f.b - want.b) <= rel * abs(want.b))


class _Counter:
    """Callable wrapper that counts evaluations of the function it wraps."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


class Analytic:
    name = "analytic"

    def __init__(self, seed: int, work: Path):
        rng = np.random.default_rng([seed, 2])
        self.cases = _cases()
        self.t_grid = [float(t) for t in np.sort(rng.uniform(0.25, 6.0, 8))]
        self.x_grid = np.sort(rng.uniform(0.5, 10.0, 8))
        self.frullani_ab = [(float(a), float(b)) for a, b in rng.uniform(0.1, 10.0, size=(50, 2))]
        crit5 = JointInput(Beta(1.0, 1.0), Difference(Exponential(2.0), Exponential(1.0)))
        self.cf_joints = (
            ("E1", self.cases["E1"].joint, lambda t: (1.0 - 1j * t) ** -3),
            ("crit5", crit5, _cf5_closed),
        )
        self.latencies = []
        self.mismatches = 0
        self.passes = 0

    def reset(self):
        self.latencies = []
        self.mismatches = 0
        self.passes = 0

    def tracing(self, tracer):
        """Count the evaluations of the callables thm2_K receives from the registry cases."""
        orig = asymptotics.thm2_K

        def counted_thm2_K(lam, tail, left_tail=None, left_decay_hint=None, tol=1e-10):
            r = _Counter(tail.r)
            left = _Counter(left_tail) if left_tail is not None else None
            with tracer.span("asymptotics.thm2_K") as sp:
                pred = orig(lam, dataclasses.replace(tail, r=r), left_tail=left,
                            left_decay_hint=left_decay_hint, tol=tol)
            sp.attrs["evals"] = r.calls + (left.calls if left is not None else 0)
            sp.attrs["integrals"] = sum("integral =" in line for line in pred.preconditions_trace)
            return pred

        @contextlib.contextmanager
        def patched():
            asymptotics.thm2_K = counted_thm2_K
            try:
                yield
            finally:
                asymptotics.thm2_K = orig

        return patched()

    def warmup(self, tally: Tally):
        tally.guard("warmup E1 predict", self.cases["E1"].predict)

    def _query(self, tally, tracer, what, name, fn, check, **attrs):
        t0 = time.perf_counter()
        try:
            with _span(tracer, name, **attrs) as sp:
                out = fn()
            elapsed = time.perf_counter() - t0
            ok = check(out)
        except Exception:  # counted as a failed operation; the client keeps going
            tally.fail(what)
            return None
        self.latencies.append(elapsed)
        return sp, out, tally.check(ok, f"{what}: check failed")

    def ops(self, i: int, tally: Tally, tracer=None):
        return [functools.partial(self._pass, tally, tracer)]

    def _pass(self, tally: Tally, tracer):
        self.passes += 1
        for cid in ("E1", "E2", "E3", "E4", "E5"):
            case = self.cases[cid]
            self._query(tally, tracer, f"{cid} predict", "asymptotics.predict", case.predict,
                        lambda p, want=case.asymptote: _form_matches(p, want), case=cid)
        for k, (joint, r, want) in enumerate(VERDICT_TABLE):
            res = self._query(tally, tracer, f"verdict row {k}", "criteria.dispatch_exp_moment",
                              lambda: dispatch_exp_moment(joint, r), lambda v, w=want: v.verdict == w)
            if res and not res[2]:
                self.mismatches += 1
        for label, joint, closed in self.cf_joints:
            for t in self.t_grid:
                self._query(tally, tracer, f"cf {label} t={t:.4g}", "asymptotics.perpetuity_cf",
                            lambda: perpetuity_cf(joint, t), lambda v, t=t: abs(v - closed(t)) <= 1e-6)
        for a, b in self.frullani_ab:
            f = lambda y, a=a, b=b: (math.exp(-a * y) - math.exp(-(a + b) * y)) / y if y > 0 else b
            g = _Counter(f) if tracer is not None else f
            res = self._query(tally, tracer, f"frullani a={a:.4g} b={b:.4g}", "quadrature.integrate_semi_infinite",
                              lambda: integrate_semi_infinite(g, 0.0, 1e-11, a),
                              lambda q, a=a, b=b: q.converged and abs(q.value - frullani(a, b)) <= 1e-8 * frullani(a, b))
            if res and tracer is not None:
                sp, q, _ = res
                sp.attrs.update(evals=g.calls, panels=q.subdivisions, converged=int(q.converged))
        for cid in ("E3", "E4", "E5"):
            case = self.cases[cid]
            self._query(tally, tracer, f"{cid} reference survival", "oracle.reference_survival",
                        lambda: np.asarray(reference_survival(case, self.x_grid)), _survival_ok,
                        case=cid, points=len(self.x_grid))

    def finish(self, tally: Tally):
        pass

    def headline(self) -> dict:
        s = summarize([v * 1e3 for v in self.latencies])
        return {
            "query_p50_ms": {"value": s["p50"], "unit": "ms", "samples": s["count"], "statistic": "median"},
            "query_ptail_ms": {"value": s["tail"], "unit": "ms", "samples": s["count"],
                               "statistic": f"p{s['tail_pct']} ({s['beyond']} samples beyond)"},
        }

    def layer_metrics(self, tracer: Tracer, draw_ns: dict) -> dict:
        passes = max(self.passes, 1)
        quad = [s for _, s in tracer.named("quadrature.integrate_semi_infinite")]
        thm2 = [s for _, s in tracer.named("asymptotics.thm2_K")]
        integrals = len(quad) + sum(s.attrs["integrals"] for s in thm2)
        evals = sum(s.attrs["evals"] for s in quad) + sum(s.attrs["evals"] for s in thm2)
        busy = sum(s.duration for s in quad) + sum(s.duration for s in thm2)
        out = {
            "quadrature.integrals": (integrals / passes, passes, "count per pass"),
            "quadrature.panels_per_integral": (sum(s.attrs["panels"] for s in quad) / len(quad), len(quad),
                                               "mean over the Frullani integrals"),
            "quadrature.evals_per_integral": (evals / integrals, integrals, "mean"),
            "quadrature.ns_per_eval": (busy / evals * 1e9, evals, "busy time / evaluations"),
            "quadrature.nonconverged": (sum(1 - s.attrs["converged"] for s in quad) / passes, passes,
                                        "count per pass"),
            "criteria.verdict_us": _med([s.duration for _, s in tracer.named("criteria.dispatch_exp_moment")], 1e6),
            "criteria.verdict_mismatch": (self.mismatches / passes, passes, "count per pass"),
            "asymptotics.cf_us_per_t": _med([s.duration for _, s in tracer.named("asymptotics.perpetuity_cf")], 1e6),
        }
        predict = tracer.named("asymptotics.predict")
        for cid in ("E1", "E3", "E4", "E5"):
            out[f"asymptotics.thm2_K_ms.{cid}"] = _med([s.duration for _, s in predict if s.attrs["case"] == cid], 1e3)
        out["asymptotics.prop_main_ms.E2"] = _med([s.duration for _, s in predict if s.attrs["case"] == "E2"], 1e3)
        for cid in ("E3", "E4", "E5"):
            out[f"oracle.refsurv_ms_per_point.{cid}"] = _med(
                [s.duration / s.attrs["points"] for _, s in tracer.named("oracle.reference_survival")
                 if s.attrs["case"] == cid], 1e3)
        return out


def _survival_ok(v) -> bool:
    return bool(np.all(np.isfinite(v)) and np.all((v >= 0.0) & (v <= 1.0)) and np.all(np.diff(v) <= 1e-9))


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

_BETA = """joint.A.variant = beta
joint.A.p = 2
joint.B.variant = exponential
joint.B.rate = 1
moments.r = 0.5
"""
_ATOMS = """joint.A.variant = atoms
joint.A.values = 0.25,0.75
joint.A.weights = 0.5,0.5
joint.B.variant = exponential
joint.B.rate = 1
tail.b = 1.0
"""
_POLYEXP = """joint.A.variant = uniform
joint.B.variant = poly_exp
joint.B.power = -2
joint.B.rate = 1
tail.a = 1
tail.c = -2
tail.b = 1
"""
_CF5 = """joint.A.variant = beta
joint.A.p = 1.0
joint.A.q = 1.0
joint.B.variant = exp_difference
joint.B.left.weights = 1.0
joint.B.left.rates = 2.0
joint.B.right.weights = 1.0
joint.B.right.rates = 1.0
"""
CASE_IDS = {c: cid for c, cid in zip(CASES, ("E1", "E2-const-A", "E3-gamma-diff", "E4-mixture", "E5-neglog"))}


def _cf5_closed(t):
    return (2.0 / (2.0 - 1j * t)) ** (4.0 / 3.0) * (1.0 / (1.0 + 1j * t)) ** (5.0 / 3.0)


class Cli:
    """The five commands through `perpetuity.cli.main`, in-process.

    Configs go in by `--config`: the README's positional form is parsed as
    a case id and exits 2.  `validate` runs at the CLI defaults (10^5
    draws, seed 0), where E3 and E4 exit 6 on sampling error alone; that
    exit is recorded as a statistical verdict, never as a failure, and the
    seed and size are left as the CLI sets them.
    """

    name = "cli"

    def __init__(self, seed: int, work: Path):
        rng = np.random.default_rng([seed, 3])
        s = [int(v) for v in rng.integers(0, 2**31 - 1, size=3)]
        self.t_grid = [float(f"{t:.6g}") for t in np.sort(rng.uniform(0.25, 4.0, 5))]
        self.work = work
        work.mkdir(parents=True, exist_ok=True)
        texts = {
            "beta_exp": _BETA + f"sim.seed = {s[0]}\n",
            "atoms_exp": _ATOMS + f"sim.seed = {s[1]}\n",
            "unif_polyexp": _POLYEXP + f"sim.seed = {s[2]}\n",
            "cf5": _CF5 + "charfn.t_grid = " + ",".join(repr(t) for t in self.t_grid) + "\n",
        }
        texts["beta_exp_2streams"] = texts["beta_exp"] + "sim.n_streams = 2\n"
        self.cfg = {}
        for name, text in texts.items():
            path = work / f"{name}.cfg"
            path.write_text(text)
            self.cfg[name] = str(path)
        # label, argv without --out, config joint
        self.commands = [
            ("simulate", ["simulate", "--config", self.cfg["beta_exp"]], "beta_exp"),
            ("moments", ["moments", "--config", self.cfg["beta_exp"], "--strict"], "beta_exp"),
        ] + [(f"tail.{j}", ["tail", "--config", self.cfg[j], "--verify"], j) for j in CLI_JOINTS] + [
            ("charfn", ["charfn", "--config", self.cfg["cf5"]], "cf5"),
        ] + [(f"validate.{c}", ["validate", CASE_IDS[c]], None) for c in CASES]
        assert tuple(c[0] for c in self.commands) == CLI_COMMANDS
        self.reset()

    def reset(self):
        self.cmd_seconds = {label: [] for label in CLI_COMMANDS}
        self.validate = {}
        self.exit6 = []

    def tracing(self, tracer):
        return tracer.patched([
            (cli, "sample_batch", "simulate.sample_batch"),
            (asymptotics, "sample_batch", "simulate.sample_batch"),
            (oracle, "sample_batch", "simulate.sample_batch"),
            (oracle, "reference_survival", "oracle.reference_survival"),
            (cli, "check_convergence", "simulate.check_convergence"),
            (simulate.SampleBatch, "to_csv", "simulate.to_csv"),
            (cli, "thm1_constant", "asymptotics.thm1_constant"),
            (cli, "prop_main_constant", "asymptotics.prop_main_constant"),
            (cli, "thm2_K", "asymptotics.thm2_K"),
            (cli, "perpetuity_cf", "asymptotics.perpetuity_cf"),
            (cli, "dispatch_exp_moment", "criteria.dispatch_exp_moment"),
            (cli, "compare_empirical", "oracle.compare_empirical"),
        ])

    def _main(self, argv, out: Path) -> int:
        sink_out, sink_err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
            try:
                return cli.main(argv + ["--out", str(out), "--no-timestamp"])
            except SystemExit as e:  # argparse rejects bad argv this way
                return e.code if isinstance(e.code, int) else 2

    def warmup(self, tally: Tally):
        code = tally.guard("warmup moments", self._main, self.commands[1][1], self.work / "warmup")
        if code is not None:
            tally.exit_code(code, "warmup moments")

    def ops(self, i: int, tally: Tally, tracer=None):
        self.exit6.append(0)
        return [functools.partial(self._command, label, argv, joint, tally, tracer)
                for label, argv, joint in self.commands]

    def _command(self, label, argv, joint, tally, tracer):
        out = self.work / label
        t0 = time.perf_counter()
        with _span(tracer, "cli.command", label=label, joint=joint):
            code = tally.guard(label, self._main, argv, out)
        self.cmd_seconds[label].append(time.perf_counter() - t0)
        if code is None:
            return
        if label.startswith("validate."):
            if tally.exit_code(code, label, verdict=(6,)):
                self.exit6[-1] += code == 6
                tally.guard(f"{label} report", self._record_validate, label, code, out, tally)
        elif tally.exit_code(code, label):
            tally.guard(f"{label} output", self._check_output, label, out, tally)

    def _record_validate(self, label, code, out, tally):
        rep = json.loads((out / "validation.json").read_text())
        self.validate[label] = {
            "exit_code": code, "ks": rep["ks"], "ks_threshold": rep["ks_threshold"],
            "tail_rows": [{k: r[k] for k in ("x", "p_hat", "std_err", "reference", "ratio", "checked")}
                          for r in rep["tail_rows"]],
        }
        tally.check(rep["passed"] == (code == 0), f"{label}: exit {code} disagrees with passed={rep['passed']}")

    def _check_output(self, label, out, tally):
        if label == "simulate":
            summary = json.loads((out / "summary.json").read_text())
            tally.check(summary["n_samples"] == 100_000, "simulate: wrong sample count")
        elif label == "charfn":
            rows = (out / "charfn.csv").read_text().splitlines()[1:]
            worst = max(abs(complex(float(re), float(im)) - _cf5_closed(float(t)))
                        for t, re, im in (r.split(",") for r in rows))
            tally.check(len(rows) == len(self.t_grid) and worst <= 1e-6, f"charfn: off the closed form by {worst:.3g}")
        elif label.startswith("tail."):
            constant = json.loads((out / "prediction.json").read_text())["constant"]
            rows = (out / "ratio.csv").read_text().splitlines()[1:]
            tally.check(math.isfinite(constant) and constant > 0 and len(rows) == 5,
                        f"{label}: constant {constant}, {len(rows)} ratio rows")

    def finish(self, tally: Tally):
        """Byte-stability checks, run once after the measured passes."""
        one, two = self.work / "simulate", self.work / "simulate_2streams"
        code = tally.guard("simulate at 2 streams", self._main,
                           ["simulate", "--config", self.cfg["beta_exp_2streams"]], two)
        if code is not None and tally.exit_code(code, "simulate at 2 streams"):
            tally.check((one / "samples.csv").read_bytes() == (two / "samples.csv").read_bytes(),
                        "simulate: samples.csv differs between 1 and 2 streams")
            tally.check((one / "summary.json").read_bytes() == (two / "summary.json").read_bytes(),
                        "simulate: summary.json not byte-stable")
        again = self.work / "moments_again"
        code = tally.guard("moments again", self._main, self.commands[1][1], again)
        if code is not None and tally.exit_code(code, "moments again"):
            tally.check((self.work / "moments" / "verdict.json").read_bytes() == (again / "verdict.json").read_bytes(),
                        "moments: verdict.json not byte-stable")

    def headline(self) -> dict:
        return {f"cmd_s.{label}": {"value": _median(v), "unit": "s", "samples": len(v), "statistic": "median"}
                for label, v in self.cmd_seconds.items()}

    def layer_metrics(self, tracer: Tracer, draw_ns: dict) -> dict:
        spans = tracer.spans
        cmd_of = {}  # span index -> index of its enclosing cli.command span
        for i, s in enumerate(spans):
            if s.name == "cli.command":
                cmd_of[i] = i
            elif s.parent is not None and s.parent in cmd_of:
                cmd_of[i] = cmd_of[s.parent]

        def under(name, label=None, joint=None):
            """Spans called `name` inside a command with this label or config joint."""
            out = []
            for i, s in tracer.named(name):
                cmd = spans[cmd_of[i]].attrs if i in cmd_of else {}
                if (label is None or cmd.get("label") == label) and \
                        (joint is None or (cmd.get("joint") == joint and not cmd["label"].startswith("validate."))):
                    out.append((i, s))
            return out

        out = {f"cli.cmd_s.{label}": _med([s.duration for _, s in under("cli.command", label=label)])
               for label in CLI_COMMANDS}
        for j in CLI_JOINTS:
            out[f"simulate.small_batch_ms.{j}"] = _med(
                [s.duration for _, s in under("simulate.sample_batch", joint=j)], 1e3)
        out["simulate.csv_write_ms"] = _med([s.duration for _, s in tracer.named("simulate.to_csv")], 1e3)
        out["asymptotics.thm1_s"] = _med([s.duration for _, s in under("asymptotics.thm1_constant")])
        out["asymptotics.prop_main_mc_s"] = _med(
            [s.duration for _, s in under("asymptotics.prop_main_constant", label="tail.atoms_exp")])
        for c in CASES:
            label = f"validate.{c}"
            out[f"oracle.validate_sample_s.{c}"] = _med(
                [s.duration for _, s in under("simulate.sample_batch", label=label)])
            per_cmd = {}
            for i, s in under("oracle.reference_survival", label=label):
                per_cmd[cmd_of[i]] = per_cmd.get(cmd_of[i], 0.0) + s.duration
            out[f"oracle.validate_reference_s.{c}"] = _med(list(per_cmd.values()))
        out["oracle.validate_failed"] = _med(self.exit6)
        cmds = [i for i, s in enumerate(spans) if s.name == "cli.command"]
        own = self_times(spans)
        out["cli.self_frac"] = (sum(own[i] for i in cmds) / sum(spans[i].duration for i in cmds), len(cmds),
                                "self time / command time")
        return out


# ---------------------------------------------------------------------------
# Per-law sampler micro-benchmark (traced runs)
# ---------------------------------------------------------------------------

def distribution_metrics(seed: int) -> dict:
    cases = _cases()
    laws = {
        "beta2_1": Beta(2.0, 1.0),
        "uniform01": Uniform(0.0, 1.0),
        "exponential1": Exponential(1.0),
        "polyexp": poly_exp(),
        "mixture_e2": cases["E2"].joint.B,
        "pointmass05": PointMass(0.5),
    }
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 4])))
    x_grid = np.sort(np.random.default_rng([seed, 5]).uniform(0.5, 10.0, 8))
    out = {}
    for name, law in laws.items():
        law.sample(rng, CHUNK)
        times = []
        for _ in range(DRAW_REPS):
            t0 = time.perf_counter()
            law.sample(rng, CHUNK)
            times.append(time.perf_counter() - t0)
        out[f"distributions.draw_ns.{name}"] = _med(times, 1e9 / CHUNK)
    builds = []
    for _ in range(5):
        fresh = poly_exp()
        t0 = time.perf_counter()
        fresh.inverse_survival(0.5)
        builds.append(time.perf_counter() - t0)
    out["distributions.table_build_ms.polyexp"] = _med(builds, 1e3)
    law = cases["E3"].exact_X_law
    diff = Difference(Gamma(law.shape1, law.rate1), Gamma(law.shape2, law.rate2))
    per_point = []
    for x in x_grid:
        t0 = time.perf_counter()
        diff.survival(float(x))
        per_point.append(time.perf_counter() - t0)
    out["distributions.survival_us.difference_gamma"] = _med(per_point, 1e6)
    return out


WORKLOAD_CLASSES = {"mc-large": McLarge, "analytic": Analytic, "cli": Cli}


def make(name: str, seed: int, work: Path):
    return WORKLOAD_CLASSES[name](seed, work)
