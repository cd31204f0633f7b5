"""Command-line front end.

Thirteen subcommands drive the library: PGF evaluation, iteration, and
coefficients; activation curves and coefficient recovery; kernel values,
Gram matrices, depth limits, and sphere eigensystems; MLP convergence
studies; GP fit and predict; and the activation-comparison figure data.

Conventions shared by every subcommand:

    exit 0  success, outputs written;
    exit 2  invalid input or unwritable output (one-line diagnostic on stderr);
    exit 3  numerical failure (instability, factorization, zero norms);
    long flags only, full double-precision decimal output, CSV with header.

A JSON experiment config can supply any parameter group via ``--config``.
Its values become the subcommand's argument defaults at parse time, so each
parameter is resolved once: a flag beats the config, and the config beats
the flag's built-in default.  Schema: sections pgf{theta,a,c,q,r},
kernel{kind,depth,c_sequence}, activation{source,name,k_max},
mlp{widths,samples,seed}, gp{noise}, output{path}; unknown sections or keys
are rejected before any computation.  Two cases are special: a pure kernel
reads ``pgf.c`` and a c-mixed kernel reads ``kernel.c_sequence``, and
``--c`` beats both; ``kernel.depth`` never sets ``mlp-study --depth``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from typing import Sequence

import numpy as np

from .activations import (
    Activation,
    HermiteSeriesActivation,
    activation_from_coefficients,
    activation_to_pgf,
    reference_activation,
)
from .errors import ConfigError, ThetaKernelError
from .gp import fit as gp_fit
from .gp import predict as gp_predict
from .kernels import (
    CMixedKernel,
    KernelSpec,
    MixedKernel,
    PureKernel,
    correlation,
    eigensystem,
    gram,
    kernel_at_rho,
    kernel_limit,
    surface_area,
)
from .mlp import MlpConfig, convergence_study
from .pgf import (
    DEFAULT_SERIES_K,
    ThetaPgf,
    make_theta_pgf,
    pgf_iterate_closed,
    theta_coefficients,
    theta_pgf_to_series,
)

__all__ = ["app", "build_parser"]

#: reproduce-fig1 cases: theta PGF parameters and reference activation name.
_FIG1_CASES = {
    "linear": (dict(theta=-1.0, a=0.99, q=0.99), "linear"),
    "prelu-proxy": (dict(theta=1.0, a=1.65, c=0.146), "prelu(0.25)"),
    "relu-proxy": (dict(theta=0.99, a=0.22, c=0.203, r=4.8), "relu"),
}

# JSON true and false are Python bools, which are ints; neither counts as a number.
_NUMBER = (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), "a number")
_INTEGER = (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer")
_STRING = (lambda v: isinstance(v, str), "a string")
_PGF_KEYS = ("theta", "a", "c", "q", "r")

#: (section, key) -> (check, what the value must be).  Config files and the
#: kernel records of flags, --factors and model files are validated against it.
_CONFIG_SCHEMA = {
    **{("pgf", key): _NUMBER for key in _PGF_KEYS},
    ("kernel", "kind"): (lambda v: v in ("pure", "mixed", "cmixed"),
                         "pure, mixed, or cmixed"),
    ("kernel", "depth"): _INTEGER,
    ("kernel", "c_sequence"): (lambda v: isinstance(v, list)
                               and all(_NUMBER[0](x) for x in v), "a list of numbers"),
    ("activation", "source"): (lambda v: v in ("theta", "reference"), "theta or reference"),
    ("activation", "name"): _STRING,
    ("activation", "k_max"): _INTEGER,
    ("mlp", "widths"): (lambda v: isinstance(v, list)
                        and all(_INTEGER[0](x) for x in v), "a list of integers"),
    ("mlp", "samples"): _INTEGER,
    ("mlp", "seed"): _INTEGER,
    ("gp", "noise"): _NUMBER,
    ("output", "path"): _STRING,
}


def _fmt(value) -> str:
    return repr(float(value))


def _read_json(path: str, what: str):
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}")


def _check_keys(record, allowed, required, where: str) -> dict:
    """Reject a record that is not an object or has unknown or missing keys."""
    if not isinstance(record, dict):
        raise ConfigError(f"{where} must be a JSON object, got {record!r}")
    for key in record:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")
    for key in required:
        if record.get(key) is None:
            raise ConfigError(f"{where} lacks {key!r}")
    return record


def _check_values(section: str, body: dict) -> None:
    for key, value in body.items():
        check, what = _CONFIG_SCHEMA[(section, key)]
        if not check(value):
            raise ConfigError(f"{section}.{key} must be {what}")


def _config_defaults(path: str) -> dict:
    """The config file at path, validated, as argument defaults by dest.

    Each key names its flag's dest, except output.path, which sets --out."""
    raw = _read_json(path, "config")
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path}: root must be a JSON object")
    defaults = {}
    for section, body in raw.items():
        allowed = {key for sec, key in _CONFIG_SCHEMA if sec == section}
        if not allowed:
            raise ConfigError(f"unknown config section {section!r}")
        _check_values(section, _check_keys(body, allowed, (),
                                           f"config section {section!r}"))
        defaults.update({"out" if key == "path" else key: value
                         for key, value in body.items()})
    return defaults


# ---------------------------------------------------------------------------
# Shared builders
# ---------------------------------------------------------------------------

def _add_pgf_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--theta", type=float, default=None)
    sub.add_argument("--a", type=float, default=None)
    sub.add_argument("--c", type=str, default=None,
                     help="PGF constant; comma list for c-mixed kernels")
    sub.add_argument("--q", type=float, default=None)
    sub.add_argument("--r", type=float, default=None)
    sub.set_defaults(c_sequence=None)


def _parse(cast, raw, what: str):
    """cast(raw); a ValueError becomes a ConfigError naming the flag and why."""
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {what} from {raw!r}: {exc}")


def _c_list(raw, what: str, cast=float) -> tuple:
    """A comma list flag or a config list, each entry converted by cast."""
    if raw is None:
        raise ConfigError(f"missing required parameter: {what}")
    parts = raw if isinstance(raw, list) else [p for p in raw.split(",") if p.strip()]
    return tuple(_parse(cast, part, what) for part in parts)


def _pgf_from_json(record, where: str) -> ThetaPgf:
    """One PGF record {theta, a, c?, q?, r?}; a null value means absent."""
    _check_keys(record, _PGF_KEYS, ("theta", "a"), where)
    given = {key: value for key, value in record.items() if value is not None}
    _check_values("pgf", given)
    return make_theta_pgf(**given)


def _pgf_record(args) -> dict:
    record = {key: getattr(args, key) for key in _PGF_KEYS}
    if isinstance(record["c"], str):            # the --c flag; pgf.c is a number
        record["c"] = _parse(float, record["c"], "--c")
    return record


def _build_theta_pgf(args) -> ThetaPgf:
    return _pgf_from_json(_pgf_record(args), "the PGF given by flags and config")


def _pgf_to_json(f: ThetaPgf) -> dict:
    return {"theta": f.theta, "a": f.a, "c": f.c, "q": f.q, "r": f.r}


#: Keys of a kernel record, by kind; all are required.
_KERNEL_KEYS = {
    "pure": ("kind", "depth", "pgf"),
    "cmixed": ("kind", "theta", "c_sequence"),
    "mixed": ("kind", "factors"),
}


def _kernel_from_json(record, where: str) -> KernelSpec:
    """The one kernel constructor: flags, config, --factors and model files."""
    kind = record.get("kind") if isinstance(record, dict) else None
    if kind not in _KERNEL_KEYS:
        raise ConfigError(f"bad {where}: kind={kind!r}")
    _check_keys(record, _KERNEL_KEYS[kind], _KERNEL_KEYS[kind], where)
    _check_values("kernel", {k: record[k] for k in ("depth", "c_sequence") if k in record})
    if kind == "pure":
        return PureKernel(_pgf_from_json(record["pgf"], f"{where} pgf"), record["depth"])
    if kind == "cmixed":
        _check_values("pgf", {"theta": record["theta"]})
        return CMixedKernel(record["theta"], tuple(record["c_sequence"]))
    factors = record["factors"]
    if not isinstance(factors, list) or not factors:
        raise ConfigError(f"{where} factors must be a non-empty JSON list of PGF objects")
    return MixedKernel(tuple(_pgf_from_json(entry, f"{where} factor {i}")
                             for i, entry in enumerate(factors)))


def _build_kernel(args) -> KernelSpec:
    """Flags and config as a kernel record, built by _kernel_from_json."""
    if args.kind == "pure":
        record = {"depth": args.depth, "pgf": _pgf_record(args)}
    elif args.kind == "cmixed":
        # --c, a string, beats kernel.c_sequence; pgf.c, a number, is a pure-kernel key.
        cs = list(_c_list(args.c, "--c")) if isinstance(args.c, str) else args.c_sequence
        record = {"theta": args.theta, "c_sequence": cs}
    else:
        record = {"factors": None if args.factors is None
                  else _read_json(args.factors, "factors file")}
    return _kernel_from_json({"kind": args.kind, **record}, "kernel from flags and config")


def _build_activation(args) -> Activation:
    if args.coeffs is not None:
        return activation_from_coefficients(_read_csv(args.coeffs)[:, -1])
    source = args.source
    if source is None:
        source = "theta" if args.theta is not None else "reference"
    if source == "theta":
        return HermiteSeriesActivation(theta_pgf_to_series(_build_theta_pgf(args), args.k_max))
    if args.name is None:
        raise ConfigError("missing required parameter: --name")
    return _parse(reference_activation, args.name, "--name")


# ---------------------------------------------------------------------------
# Table and file helpers
# ---------------------------------------------------------------------------

def _read_csv(path: str) -> np.ndarray:
    """Numeric CSV rows; a single leading non-numeric row is taken as header."""
    try:
        with open(path, newline="") as handle:
            rows = [row for row in csv.reader(handle) if row]
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}")
    if not rows:
        raise ConfigError(f"{path} is empty")
    try:
        float(rows[0][0])
    except ValueError:
        rows = rows[1:]
    if not rows:
        raise ConfigError(f"{path} has a header but no data rows")
    try:
        data = np.array([[float(cell) for cell in row] for row in rows])
    except ValueError as exc:
        raise ConfigError(f"non-numeric data in {path}: {exc}")
    return data


def _write(path: str | None, emit) -> None:
    """Run emit on the file at path, or on stdout when path is None."""
    if path is None:
        return emit(sys.stdout)
    try:
        with open(path, "w", newline="") as handle:
            emit(handle)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}")


def _write_table(path: str | None, header: Sequence[str],
                 rows: Sequence[Sequence]) -> None:
    def emit(handle) -> None:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([cell if isinstance(cell, (str, int)) else _fmt(cell)
                             for cell in row])

    _write(path, emit)


def _write_json(path: str | None, record) -> None:
    _write(path, lambda handle: handle.write(json.dumps(record, indent=2) + "\n"))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_pgf_eval(args) -> None:
    f = _build_theta_pgf(args)
    print(_fmt(f.eval(args.s)))


def _cmd_pgf_iterate(args) -> None:
    f = pgf_iterate_closed(_build_theta_pgf(args), args.n)
    record = {**_pgf_to_json(f), "regime": f.regime.value}
    if args.s is not None:
        record["value"] = f.eval(args.s)
    print(json.dumps(record))


def _cmd_pgf_coeffs(args) -> None:
    p = theta_coefficients(_build_theta_pgf(args), args.k_max)
    _write_table(args.out, ["k", "p"], list(enumerate(p)))


def _grid(args) -> np.ndarray:
    lo, hi, step = args.x_min, args.x_max, args.step
    if not (hi > lo and step > 0 and math.isfinite((hi - lo) / step)):
        raise ConfigError(f"bad grid: need --x-min < --x-max and --step > 0 with a finite "
                          f"(x_max - x_min) / step, got {lo}, {hi} and {step}")
    count = int(round((hi - lo) / step))
    return np.linspace(lo, hi, count + 1)


def _cmd_activation_curve(args) -> None:
    act = _build_activation(args)
    xs = _grid(args)
    values = act(xs)
    _write_table(args.out, ["x", "phi"], list(zip(xs, values)))


def _cmd_activation_to_pgf(args) -> None:
    p = activation_to_pgf(_build_activation(args), args.k_max)
    _write_table(args.out, ["k", "p"], list(enumerate(p)))


def _rho_from_args(args) -> float:
    if args.rho is not None:
        if args.x is not None or args.z is not None:
            raise ConfigError("give either --rho or the pair --x/--z, not both")
        return args.rho
    if args.x is None or args.z is None:
        raise ConfigError("need --rho, or both --x and --z")
    return correlation(_c_list(args.x, "--x"), _c_list(args.z, "--z"))


def _cmd_kernel_eval(args) -> None:
    spec = _build_kernel(args)
    print(_fmt(kernel_at_rho(spec, _rho_from_args(args))))


def _cmd_kernel_gram(args) -> None:
    spec = _build_kernel(args)
    points = _read_csv(args.points)
    matrix = gram(spec, points)
    header = [f"c{i}" for i in range(matrix.shape[1])]
    _write_table(args.out, header, matrix.tolist())


def _cmd_kernel_limit(args) -> None:
    spec = _build_kernel(args)
    value = kernel_limit(spec, _rho_from_args(args), c_sum=args.c_sum)
    print(_fmt(value))


def _cmd_kernel_eigen(args) -> None:
    spec = _build_kernel(args)
    system = eigensystem(spec, args.m, args.k_max)
    _write_json(args.out, {"dimension": system.dimension,
                           "surface_area": surface_area(system.dimension),
                           "entries": system.records()})


def _cmd_mlp_study(args) -> None:
    acts = _c_list(args.activation, "--activation", reference_activation)
    depth = args.layers if args.layers is not None else max(2, len(acts))
    widths = list(_c_list(args.widths, "--widths", int))
    rho = args.rho
    if not -1.0 <= rho <= 1.0:
        raise ConfigError(f"--rho must lie in [-1, 1], got {rho}")
    x = np.array([1.0, 0.0])
    z = np.array([rho, math.sqrt(1.0 - rho * rho)])
    base = MlpConfig(widths=(2,) + (8,) * depth + (1,),
                     activations=acts[0] if len(acts) == 1 else acts, seed=args.seed)
    rows = convergence_study(base, widths, x, z, args.samples)
    _write_table(args.out, ["width", "estimate", "se", "reference", "gap"],
                 [(row.width, row.estimate, row.se, row.reference, row.gap)
                  for row in rows])


_MODEL_KEYS = ("kernel", "inputs", "targets", "noise")


def _kernel_to_json(spec: KernelSpec) -> dict:
    if isinstance(spec, PureKernel):
        return {"kind": "pure", "depth": spec.depth, "pgf": _pgf_to_json(spec.f)}
    if isinstance(spec, CMixedKernel):
        return {"kind": "cmixed", "theta": spec.theta,
                "c_sequence": list(spec.c_sequence)}
    if isinstance(spec, MixedKernel) and all(isinstance(f, ThetaPgf)
                                             for f in spec.factors):
        return {"kind": "mixed", "factors": [_pgf_to_json(f) for f in spec.factors]}
    raise ConfigError("only theta-form kernel specs can be serialized")


def _cmd_gp_fit(args) -> None:
    spec = _build_kernel(args)
    table = _read_csv(args.train)
    if table.shape[1] < 2:
        raise ConfigError("training CSV needs coordinate columns plus a target column")
    model = gp_fit(spec, table[:, :-1], table[:, -1], args.noise)
    _write_json(args.model_out, {"kernel": _kernel_to_json(spec),
                                 "inputs": model.inputs.tolist(),
                                 "targets": model.targets.tolist(),
                                 "noise": model.noise,
                                 "jitter": model.jitter,
                                 "jitter_level": model.jitter_level})
    print(f"fit {model.targets.size} points, jitter_level={model.jitter_level}")


def _cmd_gp_predict(args) -> None:
    record = _check_keys(_read_json(args.model, "model"),
                         _MODEL_KEYS + ("jitter", "jitter_level"), _MODEL_KEYS,
                         "model file")
    spec = _kernel_from_json(record["kernel"], "model kernel record")
    model = gp_fit(spec, np.asarray(record["inputs"], dtype=float),
                   np.asarray(record["targets"], dtype=float),
                   float(record["noise"]))
    queries = _read_csv(args.query)
    result = gp_predict(model, queries)
    _write_table(args.out, ["mean", "variance"],
                 list(zip(result.means, result.variances)))
    if result.num_clamped:
        print(f"clamped {result.num_clamped} negative variances", file=sys.stderr)


def _cmd_reproduce_fig1(args) -> None:
    params, name = _FIG1_CASES[args.case]
    xs = np.linspace(-3.0, 3.0, 601)
    theta_vals = HermiteSeriesActivation(
        theta_pgf_to_series(make_theta_pgf(**params), args.k_max))(xs)
    ref_vals = reference_activation(name)(xs)
    _write_table(args.out, ["x", "theta_activation", "reference"],
                 list(zip(xs, theta_vals, ref_vals)))
    window = np.abs(xs) <= 2.0 + 1e-12
    sup = float(np.max(np.abs(theta_vals[window] - ref_vals[window])))
    print(f"sup_distance {_fmt(sup)}")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser(defaults: dict | None = None) -> argparse.ArgumentParser:
    """The theta-kernels parser.  defaults, keyed by argument dest, replace
    every subcommand's built-in defaults; app passes the --config file's."""
    parser = argparse.ArgumentParser(
        prog="theta-kernels",
        description="Compositional kernels from branching-process generating functions")
    subs = parser.add_subparsers(dest="command", required=True)

    def sub(name: str, func, help_: str) -> argparse.ArgumentParser:
        s = subs.add_parser(name, help=help_)
        s.set_defaults(func=func)
        s.add_argument("--config", type=str, default=None,
                       help="JSON experiment config; flags override it")
        return s

    s = sub("pgf-eval", _cmd_pgf_eval, "evaluate a theta PGF at a point")
    _add_pgf_flags(s)
    s.add_argument("--s", type=float, required=True)

    s = sub("pgf-iterate", _cmd_pgf_iterate, "n-fold composition in closed form")
    _add_pgf_flags(s)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--s", type=float, default=None)

    s = sub("pgf-coeffs", _cmd_pgf_coeffs, "series coefficients of a theta PGF")
    _add_pgf_flags(s)
    s.add_argument("--k-max", type=int, default=DEFAULT_SERIES_K)
    s.add_argument("--out", type=str, default=None)

    for name, func in (("activation-curve", _cmd_activation_curve),
                       ("activation-to-pgf", _cmd_activation_to_pgf)):
        s = sub(name, func, "activation curve export" if "curve" in name
                else "recover PGF coefficients from an activation")
        _add_pgf_flags(s)
        s.add_argument("--source", choices=("theta", "reference"), default=None)
        s.add_argument("--name", type=str, default=None,
                       help="reference activation: relu, linear or prelu(S)")
        s.add_argument("--coeffs", type=str, default=None,
                       help="CSV of PGF coefficients to build the activation from")
        s.add_argument("--k-max", type=int, default=DEFAULT_SERIES_K)
        s.add_argument("--out", type=str, default=None)
        if "curve" in name:
            s.add_argument("--x-min", type=float, default=-3.0)
            s.add_argument("--x-max", type=float, default=3.0)
            s.add_argument("--step", type=float, default=0.01)

    def add_kernel_flags(s: argparse.ArgumentParser) -> None:
        s.add_argument("--kind", choices=("pure", "mixed", "cmixed"), default="pure")
        _add_pgf_flags(s)
        s.add_argument("--depth", type=int, default=None)
        s.add_argument("--factors", type=str, default=None,
                       help="JSON list of PGF objects (kind=mixed)")

    def add_rho_flags(s: argparse.ArgumentParser) -> None:
        s.add_argument("--rho", type=float, default=None)
        s.add_argument("--x", type=str, default=None, help="comma-separated vector")
        s.add_argument("--z", type=str, default=None, help="comma-separated vector")

    s = sub("kernel-eval", _cmd_kernel_eval, "kernel value at a correlation or pair")
    add_kernel_flags(s)
    add_rho_flags(s)

    s = sub("kernel-gram", _cmd_kernel_gram, "Gram matrix over points from CSV")
    add_kernel_flags(s)
    s.add_argument("--points", type=str, required=True)
    s.add_argument("--out", type=str, default=None)

    s = sub("kernel-limit", _cmd_kernel_limit, "infinite-depth kernel limit")
    add_kernel_flags(s)
    add_rho_flags(s)
    s.add_argument("--c-sum", type=float, default=None,
                   help="exact value of the infinite c sum (cmixed); inf if it diverges")

    s = sub("kernel-eigen", _cmd_kernel_eigen, "sphere eigensystem as JSON")
    add_kernel_flags(s)
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--k-max", type=int, default=20)
    s.add_argument("--out", type=str, default=None)

    s = sub("mlp-study", _cmd_mlp_study, "finite-width convergence study")
    s.add_argument("--activation", type=str, default="relu",
                   help="one name (pure) or comma list per layer (mixed)")
    # Its own dest, so that the config's kernel.depth does not set it.
    s.add_argument("--depth", dest="layers", type=int, default=None)
    s.add_argument("--widths", type=str, default=None, help="comma list, increasing")
    s.add_argument("--samples", type=int, default=20000)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--rho", type=float, default=0.5)
    s.add_argument("--out", type=str, default=None)

    s = sub("gp-fit", _cmd_gp_fit, "fit a GP and write the model JSON")
    add_kernel_flags(s)
    s.add_argument("--train", type=str, required=True,
                   help="CSV; coordinates then a final target column")
    s.add_argument("--noise", type=float, default=0.0)
    s.add_argument("--model-out", type=str, required=True)

    s = sub("gp-predict", _cmd_gp_predict, "posterior means and variances")
    s.add_argument("--model", type=str, required=True)
    s.add_argument("--query", type=str, required=True)
    s.add_argument("--out", type=str, default=None)

    s = sub("reproduce-fig1", _cmd_reproduce_fig1,
            "theta activation vs reference activation curves")
    s.add_argument("--case", choices=tuple(_FIG1_CASES), required=True)
    s.add_argument("--k-max", type=int, default=DEFAULT_SERIES_K)
    s.add_argument("--out", type=str, default=None)

    for s in subs.choices.values():
        s.set_defaults(**(defaults or {}))
    return parser


def app(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config is not None:
            args = build_parser(_config_defaults(args.config)).parse_args(argv)
        args.func(args)
    except ThetaKernelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, ArithmeticError) else 2
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(app())
