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
    thm2_inputs,
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
from .oracle import ReferenceNotConverged, compare_empirical, get_case
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

def _require(cfg: dict, key: str) -> str:
    if key not in cfg:
        raise ConfigError(f"missing required key: {key}")
    return cfg[key]


def _floats(val: str) -> list[float]:
    try:
        return [float(v.strip()) for v in val.split(",") if v.strip()]
    except ValueError as e:
        raise ConfigError(f"expected comma-separated numbers, got {val!r}") from e


def _number(cfg: dict, key: str, default=None, kind=float):
    """cfg[key] as a float (or int), or `default` when the key is absent; no default means required."""
    if key not in cfg and default is not None:
        return default
    val = _require(cfg, key)
    try:
        return kind(val)
    except ValueError as e:
        raise ConfigError(f"{key}: expected {'an integer' if kind is int else 'a number'}, got {val!r}") from e


def _paired(cfg: dict, side: str, first: str, second: str):
    """Pairs from the equal-length number lists at side.first and side.second."""
    xs = _floats(_require(cfg, f"{side}.{first}"))
    ys = _floats(_require(cfg, f"{side}.{second}"))
    if len(xs) != len(ys):
        raise ConfigError(f"{side}: {first} and {second} must have equal length")
    return zip(xs, ys)


def _exp_mixture(cfg: dict, side: str):
    parts = tuple((w, Exponential(r)) for w, r in _paired(cfg, side, "weights", "rates"))
    # one rate is Exponential itself: a one-part Mixture would draw another stream
    return parts[0][1] if len(parts) == 1 else Mixture(parts)


def _poly_exp(cfg: dict, side: str):
    power = _number(cfg, side + ".power")
    rate = _number(cfg, side + ".rate")
    if power > 0 or rate <= 0:
        raise ConfigError(f"{side} (poly_exp): needs power <= 0 and rate > 0")
    S = lambda x: (1.0 + np.maximum(np.asarray(x, dtype=float), 0.0)) ** power * \
        np.exp(-rate * np.maximum(np.asarray(x, dtype=float), 0.0))
    return SurvivalDefined(S, 0.0, decay_rate=rate, name=f"(1+x)^{power:g} exp(-{rate:g} x)")


def _uniform(cfg: dict, side: str):
    return Uniform(_number(cfg, side + ".lo", 0.0), _number(cfg, side + ".hi", 1.0))


def _pointmass(cfg: dict, side: str):
    return PointMass(_number(cfg, side + ".value"))


# side -> variant -> (its keys under the side, the builder that reads them)
_LAWS = {
    "joint.A": {
        "beta": (("p", "q"), lambda cfg, side: Beta(_number(cfg, side + ".p"), _number(cfg, side + ".q", 1.0))),
        "uniform": (("lo", "hi"), _uniform),
        "pointmass": (("value",), _pointmass),
        "atoms": (("values", "weights"), lambda cfg, side: Mixture(
            tuple((w, PointMass(v)) for v, w in _paired(cfg, side, "values", "weights")))),
    },
    "joint.B": {
        "exponential": (("rate",), lambda cfg, side: Exponential(_number(cfg, side + ".rate"))),
        "gamma": (("shape", "rate"),
                  lambda cfg, side: Gamma(_number(cfg, side + ".shape"), _number(cfg, side + ".rate"))),
        "uniform": (("lo", "hi"), _uniform),
        "pointmass": (("value",), _pointmass),
        "exp_mixture": (("weights", "rates"), _exp_mixture),
        "exp_difference": (("left.weights", "left.rates", "right.weights", "right.rates"),
                           lambda cfg, side: Difference(_exp_mixture(cfg, side + ".left"),
                                                        _exp_mixture(cfg, side + ".right"))),
        "poly_exp": (("power", "rate"), _poly_exp),
    },
}
_THRESHOLD_KEYS = ("zeta1", "zeta2", "q")


def _law(cfg: dict, side: str):
    """The side's law; `_check_keys` has vetted its variant."""
    return _LAWS[side][_require(cfg, side + ".variant")][1](cfg, side)


def _check_keys(cfg: dict):
    dep_variant = cfg.get("joint.dependence.variant", "independent")
    if dep_variant not in ("independent", "threshold"):
        raise ConfigError(f"joint.dependence.variant: unknown variant {dep_variant!r}")
    allowed = _TOP_KEYS | {"joint.dependence.variant"}
    if dep_variant == "threshold":
        allowed |= {f"joint.dependence.{k}" for k in _THRESHOLD_KEYS}
    for side, laws in _LAWS.items():
        variant = cfg.get(side + ".variant")
        if variant is not None:
            if variant not in laws:
                raise ConfigError(f"{side}.variant: unknown variant {variant!r}")
            allowed |= {side + ".variant"} | {f"{side}.{k}" for k in laws[variant][0]}
    for key in cfg:
        if key not in allowed:
            raise ConfigError(f"unknown config key: {key}")


def build_joint(cfg: dict) -> JointInput:
    _check_keys(cfg)
    B = _law(cfg, "joint.B")
    if cfg.get("joint.dependence.variant", "independent") == "threshold":
        if "joint.A.variant" in cfg:
            raise ConfigError("joint.A.*: must be unset for threshold dependence (A is derived)")
        dep = ThresholdDependent(*(_number(cfg, f"joint.dependence.{k}") for k in _THRESHOLD_KEYS))
        return JointInput(None, B, dep)
    return JointInput(_law(cfg, "joint.A"), B)


def build_sim_config(cfg: dict, seed_override: Optional[int] = None) -> SimConfig:
    seed = seed_override if seed_override is not None else _number(cfg, "sim.seed", 0, int)
    return SimConfig(
        n_samples=_number(cfg, "sim.n_samples", 100_000, int),
        master_seed=seed,
        truncation_eps=_number(cfg, "sim.truncation_eps", 1e-16),
        max_terms=_number(cfg, "sim.max_terms", 1_000_000, int),
        n_streams=_number(cfg, "sim.n_streams", 1, int),
    )


def config_hash(cfg: dict, seed: int) -> str:
    """Identity of an experiment; stream count excluded (output-invariant)."""
    trimmed = {k: v for k, v in cfg.items() if k != "sim.n_streams"}
    blob = serialize_config(trimmed) + f"seed={seed}\n"
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Commands: each returns an exit code, or raises ConfigError (or lets
# DispatchError or ValidationError through) for `main` to report
# ---------------------------------------------------------------------------

def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _emit_json(payload: dict, path: Path, no_timestamp: bool):
    if not no_timestamp:
        payload = dict(payload, timestamp=time.strftime("%Y-%m-%dT%H:%M:%S"))
    text = json.dumps(payload, indent=2, sort_keys=True)
    path.write_text(text + "\n")
    print(text)


def cmd_simulate(cfg: dict, args) -> int:
    joint = build_joint(cfg)
    rep = validate_nondegeneracy(joint)
    if not rep.ok:
        raise ConfigError("; ".join(rep.violations))
    conv = check_convergence(joint)
    if conv.verdict == "diverges":
        print("divergence: " + "; ".join(conv.evidence), file=sys.stderr)
        return EXIT_DIVERGENCE
    sim = build_sim_config(cfg, args.seed)
    batch = sample_batch(joint, sim)
    h = config_hash(cfg, sim.master_seed)
    out = _out_dir(args)
    batch.to_csv(out / "samples.csv", h, sim.master_seed)
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
    r = _number(cfg, "moments.r")
    sup = cfg.get("moments.support_unbounded")
    if sup is not None and sup.lower() not in ("true", "false"):
        raise ConfigError(f"moments.support_unbounded: expected true or false, got {sup!r}")
    sup_tv = None if sup is None else (sup.lower() == "true")
    verdict = dispatch_exp_moment(joint, r, sup_tv)
    _emit_json(verdict.as_dict(), _out_dir(args) / "verdict.json", args.no_timestamp)
    if args.strict and verdict.verdict == "Inconclusive":
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_tail(cfg: dict, args) -> int:
    joint = build_joint(cfg)
    misses = []
    prediction = None

    try:
        prediction = thm2_K(*thm2_inputs(joint))
    except PredictionRefused as e:
        misses.append(f"power-corrected route: {e}")

    sim = build_sim_config(cfg, args.seed)
    if prediction is None and joint.independent:
        try:
            b = _number(cfg, "tail.b", joint.B.mgf_domain()[1])
            if not math.isfinite(b):
                raise PredictionRefused("no finite tail decay rate for B")
            prediction = prop_main_constant(joint, b, sim)
        except (PredictionRefused, DispatchError, ConfigError) as e:
            misses.append(f"inherited-tail route: {e}")

    if prediction is None:
        try:
            model = GammaLike(_number(cfg, "tail.a"), _number(cfg, "tail.c"), _number(cfg, "tail.b"))
            prediction = thm1_constant(joint, model, sim)
        except (PredictionRefused, ConfigError, ValidationError) as e:
            misses.append(f"smoothed-tail route: {e}")

    out = _out_dir(args)
    if prediction is None:
        print("no applicable tail theorem; nearest misses:", file=sys.stderr)
        for m in misses:
            print(f"  - {m}", file=sys.stderr)
        return EXIT_NO_THEOREM

    _emit_json(prediction.as_dict(), out / "prediction.json", args.no_timestamp)
    if args.verify:
        # a Monte Carlo route has already drawn this batch from the same `sim`
        batch = prediction.batch if prediction.batch is not None else sample_batch(joint, sim)
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
        raise ConfigError("no reference case id given")
    try:
        case = get_case(case_id)
    except KeyError as e:
        raise ConfigError(e.args[0]) from e
    sim = build_sim_config(cfg, args.seed)
    try:
        report = compare_empirical(case, sim)
    except ReferenceNotConverged as e:
        print(f"reference error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    _emit_json(report.as_dict(), _out_dir(args) / "validation.json", args.no_timestamp)
    print(report.table(), file=sys.stderr)
    return EXIT_OK if report.passed else EXIT_VALIDATION


def cmd_charfn(cfg: dict, args) -> int:
    joint = build_joint(cfg)
    ts = _floats(cfg.get("charfn.t_grid", "0.25,0.5,1,2,4"))
    if not all(map(math.isfinite, ts)):
        raise ConfigError("charfn.t_grid: every t must be finite")
    try:
        vals = perpetuity_cf(joint, np.array(ts))
    except PredictionRefused as e:
        raise ConfigError(str(e)) from e
    path = _out_dir(args) / "charfn.csv"
    with open(path, "w") as fh:
        fh.write("t,re,im\n")
        for t, v in zip(ts, vals):
            fh.write(f"{t:.10g},{v.real:.12g},{v.imag:.12g}\n")
    print(path.read_text(), end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "simulate": cmd_simulate,
    "moments": cmd_moments,
    "tail": cmd_tail,
    "validate": cmd_validate,
    "charfn": cmd_charfn,
}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="perpetuity", description="Perpetuity tail laboratory")
    p.add_argument("command", choices=list(_COMMANDS))
    p.add_argument("target", nargs="?", default=None, metavar="CONFIG|CASE",
                   help="config path; for validate, the reference case id")
    p.add_argument("--config", type=str, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", type=str, default=".")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--no-timestamp", action="store_true", dest="no_timestamp")
    return p


def _read_config(args) -> dict[str, str]:
    config_path = args.config
    if args.command != "validate" and args.target is not None:
        if config_path is not None:
            raise ConfigError(f"config given twice: {args.target!r} and --config {config_path!r}")
        config_path = args.target
    if config_path is None:
        return {}
    try:
        text = Path(config_path).read_text()
    except OSError as e:
        raise ConfigError(str(e)) from e
    return parse_config_text(text)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](_read_config(args), args)
    except (ConfigError, DispatchError, ValidationError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
