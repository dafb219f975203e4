"""Command-line surface.

Experiments are described by a flat key-value config file (one dotted
assignment per line), e.g.::

    joint.A.variant = beta
    joint.A.p = 2
    joint.B.variant = exponential
    joint.B.rate = 1
    sim.n_samples = 100000
    sim.seed = 42

Commands: simulate, moments, tail, validate, charfn.
Exit codes: 0 ok, 2 config error, 3 divergence, 4 inconclusive under
--strict, 5 no applicable tail theorem, 6 validation failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

from .asymptotics import (
    PredictionRefused,
    perpetuity_cf,
    prop_main_constant,
    thm1_constant,
    thm2_K,
)
from .criteria import DispatchError, dispatch_exp_moment
from .distributions import (
    Beta,
    Difference,
    Exponential,
    Gamma,
    GammaLike,
    JointInput,
    Mixture,
    PointMass,
    SurvivalDefined,
    ThresholdDependent,
    Uniform,
    ValidationError,
    validate_nondegeneracy,
)
from .oracle import compare_empirical, get_case
from .simulate import SimConfig, check_convergence, empirical_tail, sample_batch

__all__ = ["entry", "parse_config_text", "serialize_config", "build_joint", "config_hash"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_INCONCLUSIVE = 4
EXIT_NO_THEOREM = 5
EXIT_VALIDATION = 6


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def parse_config_text(text: str) -> dict[str, str]:
    """Flat dotted-key map from one-assignment-per-line text."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, val = line.split("=", 1)
        key = key.strip()
        val = val.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key}")
        out[key] = val
    return out


def serialize_config(cfg: dict[str, str]) -> str:
    return "".join(f"{k} = {cfg[k]}\n" for k in sorted(cfg))


_TOP_KEYS = {
    "sim.n_samples", "sim.seed", "sim.n_streams", "sim.truncation_eps",
    "sim.max_terms", "sim.x_grid",
    "moments.r", "moments.support_unbounded",
    "tail.a", "tail.b", "tail.c",
    "charfn.t_grid",
    "validate.case",
}

_A_KEYS = {
    "beta": {"p", "q"},
    "uniform": {"lo", "hi"},
    "pointmass": {"value"},
    "atoms": {"values", "weights"},
}
_B_KEYS = {
    "exponential": {"rate"},
    "gamma": {"shape", "rate"},
    "uniform": {"lo", "hi"},
    "pointmass": {"value"},
    "exp_mixture": {"weights", "rates"},
    "exp_difference": {"left.weights", "left.rates", "right.weights", "right.rates"},
    "poly_exp": {"power", "rate"},
}


def _require(cfg: dict, key: str) -> str:
    if key not in cfg:
        raise ConfigError(f"missing required key: {key}")
    return cfg[key]


def _floats(val: str) -> list[float]:
    try:
        return [float(v.strip()) for v in val.split(",") if v.strip()]
    except ValueError as e:
        raise ConfigError(f"expected comma-separated numbers, got {val!r}") from e


def _float(cfg: dict, key: str, default: Optional[float] = None) -> float:
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required key: {key}")
        return default
    try:
        return float(cfg[key])
    except ValueError as e:
        raise ConfigError(f"{key}: expected a number, got {cfg[key]!r}") from e


def _int(cfg: dict, key: str, default: Optional[int] = None) -> int:
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required key: {key}")
        return default
    try:
        return int(cfg[key])
    except ValueError as e:
        raise ConfigError(f"{key}: expected an integer, got {cfg[key]!r}") from e


def _exp_mixture(cfg: dict, prefix: str):
    weights = _floats(_require(cfg, prefix + ".weights"))
    rates = _floats(_require(cfg, prefix + ".rates"))
    if len(weights) != len(rates):
        raise ConfigError(f"{prefix}: weights and rates must have equal length")
    if len(weights) == 1:
        return Exponential(rates[0])
    return Mixture(tuple((w, Exponential(r)) for w, r in zip(weights, rates)))


def _build_A(cfg: dict):
    variant = _require(cfg, "joint.A.variant")
    if variant == "beta":
        return Beta(_float(cfg, "joint.A.p"), _float(cfg, "joint.A.q", 1.0))
    if variant == "uniform":
        return Uniform(_float(cfg, "joint.A.lo", 0.0), _float(cfg, "joint.A.hi", 1.0))
    if variant == "pointmass":
        return PointMass(_float(cfg, "joint.A.value"))
    if variant == "atoms":
        vals = _floats(_require(cfg, "joint.A.values"))
        ws = _floats(_require(cfg, "joint.A.weights"))
        if len(vals) != len(ws):
            raise ConfigError("joint.A: values and weights must have equal length")
        return Mixture(tuple((w, PointMass(v)) for w, v in zip(ws, vals)))
    raise ConfigError(f"joint.A.variant: unknown variant {variant!r}")


def _build_B(cfg: dict):
    variant = _require(cfg, "joint.B.variant")
    if variant == "exponential":
        return Exponential(_float(cfg, "joint.B.rate"))
    if variant == "gamma":
        return Gamma(_float(cfg, "joint.B.shape"), _float(cfg, "joint.B.rate"))
    if variant == "uniform":
        return Uniform(_float(cfg, "joint.B.lo", 0.0), _float(cfg, "joint.B.hi", 1.0))
    if variant == "pointmass":
        return PointMass(_float(cfg, "joint.B.value"))
    if variant == "exp_mixture":
        return _exp_mixture(cfg, "joint.B")
    if variant == "exp_difference":
        return Difference(_exp_mixture(cfg, "joint.B.left"), _exp_mixture(cfg, "joint.B.right"))
    if variant == "poly_exp":
        power = _float(cfg, "joint.B.power")
        rate = _float(cfg, "joint.B.rate")
        if power > 0 or rate <= 0:
            raise ConfigError("joint.B (poly_exp): needs power <= 0 and rate > 0")
        S = lambda x: (1.0 + np.maximum(np.asarray(x, dtype=float), 0.0)) ** power * \
            np.exp(-rate * np.maximum(np.asarray(x, dtype=float), 0.0))
        return SurvivalDefined(S, 0.0, decay_rate=rate, name=f"(1+x)^{power:g} exp(-{rate:g} x)")
    raise ConfigError(f"joint.B.variant: unknown variant {variant!r}")


def _check_keys(cfg: dict):
    a_variant = cfg.get("joint.A.variant")
    b_variant = cfg.get("joint.B.variant")
    dep_variant = cfg.get("joint.dependence.variant", "independent")
    allowed = set(_TOP_KEYS)
    allowed.add("joint.dependence.variant")
    if dep_variant == "threshold":
        allowed |= {"joint.dependence.zeta1", "joint.dependence.zeta2", "joint.dependence.q"}
    elif dep_variant != "independent":
        raise ConfigError(f"joint.dependence.variant: unknown variant {dep_variant!r}")
    if a_variant is not None:
        allowed.add("joint.A.variant")
        allowed |= {f"joint.A.{k}" for k in _A_KEYS.get(a_variant, set())}
    if b_variant is not None:
        allowed.add("joint.B.variant")
        allowed |= {f"joint.B.{k}" for k in _B_KEYS.get(b_variant, set())}
    for key in cfg:
        if key not in allowed:
            raise ConfigError(f"unknown config key: {key}")


def build_joint(cfg: dict) -> JointInput:
    _check_keys(cfg)
    dep_variant = cfg.get("joint.dependence.variant", "independent")
    B = _build_B(cfg)
    if dep_variant == "threshold":
        if "joint.A.variant" in cfg:
            raise ConfigError("joint.A.*: must be unset for threshold dependence (A is derived)")
        dep = ThresholdDependent(
            _float(cfg, "joint.dependence.zeta1"),
            _float(cfg, "joint.dependence.zeta2"),
            _float(cfg, "joint.dependence.q"),
        )
        return JointInput(None, B, dep)
    return JointInput(_build_A(cfg), B)


def build_sim_config(cfg: dict, seed_override: Optional[int] = None) -> SimConfig:
    seed = seed_override if seed_override is not None else _int(cfg, "sim.seed", 0)
    return SimConfig(
        n_samples=_int(cfg, "sim.n_samples", 100_000),
        master_seed=seed,
        truncation_eps=_float(cfg, "sim.truncation_eps", 1e-16),
        max_terms=_int(cfg, "sim.max_terms", 1_000_000),
        n_streams=_int(cfg, "sim.n_streams", 1),
    )


def config_hash(cfg: dict, seed: int) -> str:
    """Identity of an experiment; stream count excluded (output-invariant)."""
    trimmed = {k: v for k, v in cfg.items() if k != "sim.n_streams"}
    blob = serialize_config(trimmed) + f"seed={seed}\n"
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _emit_json(payload: dict, path: Optional[Path], no_timestamp: bool):
    if not no_timestamp:
        payload = dict(payload, timestamp=time.strftime("%Y-%m-%dT%H:%M:%S"))
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path is not None:
        path.write_text(text + "\n")
    print(text)


def cmd_simulate(cfg: dict, args) -> int:
    joint = build_joint(cfg)
    rep = validate_nondegeneracy(joint)
    if not rep.ok:
        print("config error: " + "; ".join(rep.violations), file=sys.stderr)
        return EXIT_CONFIG
    conv = check_convergence(joint)
    if conv.verdict == "diverges":
        print("divergence: " + "; ".join(conv.evidence), file=sys.stderr)
        return EXIT_DIVERGENCE
    sim = build_sim_config(cfg, args.seed)
    batch = sample_batch(joint, sim)
    h = config_hash(cfg, sim.master_seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "samples.csv"
    batch.to_csv(csv_path, h, sim.master_seed)
    summary = {
        "config_hash": h,
        "n_samples": int(batch.values.size),
        "truncation": batch.truncation_report,
        "convergence": {"verdict": conv.verdict, "e_log_abs_A": conv.e_log_abs_A},
    }
    if "sim.x_grid" in cfg:
        xs = _floats(cfg["sim.x_grid"])
        summary["empirical_tail"] = [
            {"x": t.x, "p_hat": t.p_hat, "std_err": t.std_err} for t in empirical_tail(batch, xs)
        ]
    _emit_json(summary, out / "summary.json", args.no_timestamp)
    return EXIT_OK


def cmd_moments(cfg: dict, args) -> int:
    joint = build_joint(cfg)
    r = _float(cfg, "moments.r")
    sup = cfg.get("moments.support_unbounded")
    sup_tv = None if sup is None else (sup.lower() == "true")
    try:
        verdict = dispatch_exp_moment(joint, r, sup_tv)
    except DispatchError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _emit_json(verdict.as_dict(), out / "verdict.json", args.no_timestamp)
    if args.strict and verdict.verdict == "Inconclusive":
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_tail(cfg: dict, args) -> int:
    joint = build_joint(cfg)
    misses = []
    prediction = None

    lam = joint.A.beta_lam() if joint.independent else None
    if lam is not None:
        tail, left = joint.B.exp_tail(), joint.B.left_tail()
        if tail is None or left is None:
            what = "exponential-plus-remainder model" if tail is None else "left-tail handle"
            misses.append(f"power-corrected route: no {what} for B")
        else:
            try:
                prediction = thm2_K(lam, tail, left_tail=left[0], left_decay_hint=left[1])
            except PredictionRefused as e:
                misses.append(f"power-corrected route: {e}")
    else:
        misses.append("power-corrected route: A is not a Beta(lam, 1) law")

    sim = build_sim_config(cfg, args.seed)
    if prediction is None and joint.independent:
        try:
            b = _float(cfg, "tail.b", joint.B.mgf_domain()[1])
            if not math.isfinite(b):
                raise PredictionRefused("no finite tail decay rate for B")
            prediction = prop_main_constant(joint, b, sim)
        except (PredictionRefused, DispatchError, ConfigError) as e:
            misses.append(f"inherited-tail route: {e}")

    if prediction is None:
        try:
            model = GammaLike(_float(cfg, "tail.a"), _float(cfg, "tail.c"), _float(cfg, "tail.b"))
            prediction = thm1_constant(joint, model, sim)
        except (PredictionRefused, ConfigError, ValidationError) as e:
            misses.append(f"smoothed-tail route: {e}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if prediction is None:
        print("no applicable tail theorem; nearest misses:", file=sys.stderr)
        for m in misses:
            print(f"  - {m}", file=sys.stderr)
        return EXIT_NO_THEOREM

    _emit_json(prediction.as_dict(), out / "prediction.json", args.no_timestamp)
    if args.verify:
        batch = sample_batch(joint, sim)
        if "sim.x_grid" in cfg:
            xs = _floats(cfg["sim.x_grid"])
        else:
            xs = list(np.quantile(batch.values, [0.99, 0.997, 0.999, 0.9997, 0.9999]))
        rows = []
        for t in empirical_tail(batch, xs):
            pred = float(np.asarray(prediction.form(t.x)))
            ratio = t.p_hat / pred if pred > 0 else math.inf
            rows.append((t.x, pred, t.p_hat, t.std_err, ratio))
        with open(out / "ratio.csv", "w") as fh:
            fh.write("x,predicted,empirical,std_err,ratio\n")
            for row in rows:
                fh.write(",".join(f"{v:.10g}" for v in row) + "\n")
    return EXIT_OK


def cmd_validate(cfg: dict, args) -> int:
    case_id = args.target or cfg.get("validate.case")
    if not case_id:
        print("config error: no reference case id given", file=sys.stderr)
        return EXIT_CONFIG
    try:
        case = get_case(case_id)
    except KeyError as e:
        print(f"config error: {e.args[0]}", file=sys.stderr)
        return EXIT_CONFIG
    sim = build_sim_config(cfg, args.seed)
    report = compare_empirical(case, sim)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _emit_json(report.as_dict(), out / "validation.json", args.no_timestamp)
    print(report.table(), file=sys.stderr)
    return EXIT_OK if report.passed else EXIT_VALIDATION


def cmd_charfn(cfg: dict, args) -> int:
    joint = build_joint(cfg)
    ts = _floats(cfg.get("charfn.t_grid", "0.25,0.5,1,2,4"))
    try:
        vals = [perpetuity_cf(joint, t) for t in ts]
    except PredictionRefused as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "charfn.csv", "w") as fh:
        fh.write("t,re,im\n")
        for t, v in zip(ts, vals):
            fh.write(f"{t:.10g},{v.real:.12g},{v.imag:.12g}\n")
    print((out / "charfn.csv").read_text(), end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="perpetuity", description="Perpetuity tail laboratory")
    p.add_argument("command", choices=["simulate", "moments", "tail", "validate", "charfn"])
    p.add_argument("target", nargs="?", default=None, metavar="CONFIG|CASE",
                   help="config path; for validate, the reference case id")
    p.add_argument("--config", type=str, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", type=str, default=".")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--no-timestamp", action="store_true", dest="no_timestamp")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    config_path = args.config
    if args.command != "validate" and args.target is not None:
        if config_path is not None:
            print(f"config error: config given twice: {args.target!r} and --config {config_path!r}",
                  file=sys.stderr)
            return EXIT_CONFIG
        config_path = args.target
    cfg: dict[str, str] = {}
    if config_path is not None:
        try:
            cfg = parse_config_text(Path(config_path).read_text())
        except (OSError, ConfigError) as e:
            print(f"config error: {e}", file=sys.stderr)
            return EXIT_CONFIG
    try:
        if args.command == "simulate":
            return cmd_simulate(cfg, args)
        if args.command == "moments":
            return cmd_moments(cfg, args)
        if args.command == "tail":
            return cmd_tail(cfg, args)
        if args.command == "validate":
            return cmd_validate(cfg, args)
        return cmd_charfn(cfg, args)
    except (ConfigError, ValidationError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
