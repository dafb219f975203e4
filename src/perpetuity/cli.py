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
import ctypes
import hashlib
import json
import math
import sys
import time
from dataclasses import replace
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
from .simulate import (
    MAX_TERMS_LIMIT,
    SimConfig,
    _quantiles_of_sorted,
    _tail_of_sorted,
    check_convergence,
    empirical_tail,
    sample_batch,
)

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
        xs = [float(v.strip()) for v in val.split(",") if v.strip()]
    except ValueError as e:
        raise ConfigError(f"expected comma-separated numbers, got {val!r}") from e
    if not all(map(math.isfinite, xs)):
        raise ConfigError(f"expected comma-separated finite numbers, got {val!r}")
    return xs


def _number(cfg: dict, key: str, default=None, kind=float):
    """cfg[key] as a finite float (or an int), or `default` when the key is absent; no default means required."""
    if key not in cfg and default is not None:
        return default
    val = _require(cfg, key)
    try:
        x = kind(val)
    except ValueError as e:
        raise ConfigError(f"{key}: expected {'an integer' if kind is int else 'a number'}, got {val!r}") from e
    if kind is float and not math.isfinite(x):
        raise ConfigError(f"{key}: expected a finite number, got {val!r}")
    return x


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


def _in_range(key: str, x, low, high=None):
    if not x >= low:
        raise ConfigError(f"{key}: must be >= {low}, got {x!r}")
    if high is not None and not x <= high:
        raise ConfigError(f"{key}: must be <= {high}, got {x!r}")
    return x


def _positive(key: str, x):
    if not x > 0:
        raise ConfigError(f"{key}: must be > 0, got {x!r}")
    return x


def build_sim_config(cfg: dict, seed_override: Optional[int] = None) -> SimConfig:
    """The sampler's settings, each refused by name when out of range, before anything is drawn."""
    if seed_override is not None:
        seed = _in_range("--seed", seed_override, 0)
    else:
        seed = _in_range("sim.seed", _number(cfg, "sim.seed", 0, int), 0)
    sim = SimConfig(
        n_samples=_in_range("sim.n_samples", _number(cfg, "sim.n_samples", 100_000, int), 1),
        master_seed=seed,
        truncation_eps=_in_range("sim.truncation_eps", _number(cfg, "sim.truncation_eps", 1e-16), 0),
        max_terms=_in_range("sim.max_terms", _number(cfg, "sim.max_terms", 1_000_000, int), 1, MAX_TERMS_LIMIT),
    )
    # an absent sim.n_streams keeps SimConfig's default, one stream per core
    if "sim.n_streams" in cfg:
        sim = replace(sim, n_streams=_in_range("sim.n_streams", _number(cfg, "sim.n_streams", kind=int), 1))
    return sim


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
    xs = _floats(cfg["sim.x_grid"]) if "sim.x_grid" in cfg else None
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
    if xs is not None:
        summary["empirical_tail"] = [
            {"x": t.x, "p_hat": t.p_hat, "std_err": t.std_err} for t in empirical_tail(batch, xs)
        ]
    _emit_json(summary, out / "summary.json", args.no_timestamp)
    return EXIT_OK


def cmd_moments(cfg: dict, args) -> int:
    joint = build_joint(cfg)
    r = _positive("moments.r", _number(cfg, "moments.r"))
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
    xs = _floats(cfg["sim.x_grid"]) if args.verify and "sim.x_grid" in cfg else None
    # B's tail model, each key given refused by name before any route runs; a route that needs an absent key misses
    tail = {k: _number(cfg, k) for k in ("tail.a", "tail.b", "tail.c") if k in cfg}
    for k in ("tail.a", "tail.b"):
        if k in tail:
            _positive(k, tail[k])
    misses = []
    prediction = None

    try:
        prediction = thm2_K(*thm2_inputs(joint))
    except PredictionRefused as e:
        misses.append(f"power-corrected route: {e}")

    sim = build_sim_config(cfg, args.seed)
    if prediction is None and joint.independent:
        try:
            b = tail.get("tail.b", joint.B.mgf_domain()[1])
            if not math.isfinite(b):
                raise PredictionRefused("no finite tail decay rate for B")
            prediction = prop_main_constant(joint, b, sim)
        except (PredictionRefused, DispatchError) as e:
            misses.append(f"inherited-tail route: {e}")

    if prediction is None:
        try:
            model = GammaLike(_require(tail, "tail.a"), _require(tail, "tail.c"), _require(tail, "tail.b"))
            prediction = thm1_constant(joint, model, sim)
        except (PredictionRefused, ConfigError) as e:
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
        # one sort, read for both the default points and the counts above them
        sorted_vals = np.sort(batch.values)
        if xs is None:
            xs = _quantiles_of_sorted(sorted_vals)
        rows = []
        for t in _tail_of_sorted(sorted_vals, xs):
            pred = prediction.form(t.x)
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


# glibc's mallopt parameters (malloc.h) and the values `main` gives them.  A term of the sampler frees
# several 512 KB chunk arrays; under glibc's dynamic thresholds the freed heap is trimmed, and the next
# term faults those pages back in.  Fixed thresholds keep up to _TRIM_THRESHOLD of freed heap resident.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 1 << 20
_TRIM_THRESHOLD = 8 << 20


def _keep_freed_heap() -> bool:
    """Fix glibc's mmap and trim thresholds for this process; whether libc took both.

    False, and nothing changed, where libc has no `mallopt` or ctypes cannot load it.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return all([mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD), mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)])


def main(argv=None) -> int:
    _keep_freed_heap()
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
