"""A sweep over the public surface: each argument of a valid call, replaced by
each hostile value, raises a ThetaKernelError or gives finite values, and no
call hangs (a fixed property table, in the manner of QuickCheck).  The CLI
gets the same sweep over the numeric and list flags of its subcommands."""

from __future__ import annotations

import dataclasses
import enum
import inspect
import math
import numbers
import signal
from contextlib import contextmanager

import numpy as np
import pytest

import thetakernels as tk
from thetakernels.cli import app

F = tk.ThetaPgf(theta=1.0, a=1.0, c=1.0)
SUB = tk.ThetaPgf(theta=0.5, a=0.5, q=0.3)
S = tk.SeriesPgf((0.5, 0.25), eps_tail=0.1)
K = tk.PureKernel(F, 2)
C = tk.CMixedKernel(0.5, (0.5, 0.25))
RELU = tk.ReferenceActivation(0.0)
NET = tk.MlpConfig(widths=(2, 8, 1), activations=RELU, seed=0)
X = [[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]]
Y = [1.0, -1.0, 0.5]
MODEL = tk.fit(K, X, Y, noise=0.1)

#: One valid call per public callable: (callable, positional args, keyword args).
VALID = [
    (tk.ThetaPgf, (0.5, 0.5), {"c": None, "q": 0.3, "r": 1.0}),
    (tk.make_theta_pgf, (), {"theta": 1.0, "a": 1.0, "c": 1.0, "q": None, "r": 1.0}),
    (F.eval, (0.5,), {}),
    (tk.SeriesPgf, ((0.5, 0.25),), {"eps_tail": 0.1}),
    (tk.ComposedPgf, ((F, S),), {}),
    (tk.pgf_iterate_closed, (F, 3), {}),
    (tk.series_coefficients, (F, 8), {}),
    (tk.theta_coefficients, (F, 8), {}),
    (tk.theta_pgf_to_series, (SUB, 8), {}),
    (tk.HermiteSeriesActivation, (S,), {}),
    (tk.ReferenceActivation, (0.25,), {}),
    (tk.activation_from_coefficients, ((0.5, 0.25),), {}),
    (tk.activation_to_pgf, (RELU, 8), {}),
    (tk.bivariate_expectation, (RELU, 0.5), {}),
    (tk.reference_activation, ("prelu(0.25)",), {}),
    (tk.PureKernel, (F, 2), {}),
    (tk.CMixedKernel, (0.5, (0.5, 0.25)), {}),
    (tk.cmixed_pure_representation, (0.5, (0.5, 0.25), 2), {}),
    (tk.correlation, ([1.0, 0.0], [0.6, 0.8]), {}),
    (tk.kernel_at_rho, (K, 0.5), {}),
    (tk.kernel_limit, (C, 0.5), {"c_sum": 2.0}),
    (tk.gram, (K, X), {}),
    (tk.cross_gram, (K, X, X[:2]), {}),
    (tk.spec_to_pgf, (K,), {}),
    (tk.surface_area, (3,), {}),
    (tk.multiplicity, (3, 4), {}),
    (tk.eigensystem, (K, 3, 8), {}),
    (tk.MlpConfig, (), {"widths": (2, 8, 1), "activations": RELU, "seed": 0}),
    (tk.sample_mlp_output, (NET, [1.0, 0.0]), {"seed_offset": 1, "weights": None}),
    (tk.empirical_kernel, (NET, [1.0, 0.0], [0.6, 0.8], 100), {}),
    (tk.convergence_study, (NET, [8, 16], [1.0, 0.0], [0.6, 0.8], 100), {}),
    (tk.fit, (K, X, Y), {"noise": 0.1}),
    (tk.predict, (MODEL, X), {}),
]

#: Exported classes that are results the library builds, not entry points.
RECORDS = {tk.Eigensystem, tk.KernelEstimate, tk.StudyRow, tk.GpModel, tk.PredictResult}

HOSTILE = ["x", "0.5", True, None, 0.5j, math.nan, math.inf, -1, 0, 10 ** 400,
           [[1.0, 0.0], [1.0]], (), object(), {}]

#: A call taking longer than this counts as a hang.
HANG_S = 5.0


class _Hang(Exception):
    pass


@contextmanager
def _time_limit(seconds: float):
    """Raise _Hang in the main thread once seconds have passed."""
    def expire(signum, frame):
        raise _Hang
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _finite(value) -> bool:
    """Every number in value (records and sequences walked) is finite and real."""
    if dataclasses.is_dataclass(value):
        return all(_finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return all(_finite(v) for v in value)
    if value is None or isinstance(value, (enum.Enum, numbers.Integral)):
        return True     # an unset optional field, a regime, an exact integer
    arr = np.asarray(value)
    return arr.dtype.kind in "biuf" and bool(np.isfinite(arr).all())


def _label(func) -> str:
    return getattr(func, "__qualname__", repr(func))


def _cases(func, args, kwargs):
    """Every call with one argument replaced by one hostile value."""
    for i in range(len(args)):
        for bad in HOSTILE:
            yield f"arg {i} = {bad!r:.30}", args[:i] + (bad,) + args[i + 1:], kwargs
    for key in kwargs:
        for bad in HOSTILE:
            yield f"{key} = {bad!r:.30}", args, {**kwargs, key: bad}


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs POSIX interval timers")
@pytest.mark.parametrize("func, args, kwargs", VALID, ids=[_label(f) for f, _, _ in VALID])
def test_hostile_arguments_raise_typed_errors(func, args, kwargs):
    assert _finite(func(*args, **kwargs))
    failures = []
    for case, bad_args, bad_kwargs in _cases(func, args, kwargs):
        try:
            with _time_limit(HANG_S):
                out = func(*bad_args, **bad_kwargs)
        except tk.ThetaKernelError:
            continue
        except _Hang:
            failures.append(f"{case}: no result within {HANG_S} s")
            continue
        except Exception as exc:  # a bare exception is what the sweep looks for
            failures.append(f"{case}: {type(exc).__name__}: {exc!s:.80}")
            continue
        if not _finite(out):
            failures.append(f"{case}: returned {out!r:.80}")
    assert not failures, "\n".join(failures)


def test_every_public_callable_has_a_valid_call():
    covered = {func for func, _, _ in VALID}
    public = {getattr(tk, name) for name in dir(tk) if not name.startswith("_")}
    callables = {obj for obj in public if inspect.isfunction(obj) or inspect.isclass(obj)}
    exempt = {obj for obj in callables
              if inspect.isclass(obj) and issubclass(obj, (BaseException, enum.Enum))}
    missing = callables - covered - exempt - RECORDS
    assert not missing, sorted(_label(obj) for obj in missing)


#: One valid in-process argv per CLI subcommand; "{d}" stands for the test's
#: directory, which holds every input file and receives every output.
CLI_VALID = {
    "pgf-eval": ["--theta", "1", "--a", "1", "--c", "1", "--s", "0.5"],
    "pgf-iterate": ["--theta", "1", "--a", "1", "--c", "1", "--n", "3", "--s", "0.5"],
    "pgf-coeffs": ["--theta", "0.5", "--a", "0.5", "--q", "0.3", "--r", "1.5",
                   "--k-max", "8", "--out", "{d}/p.csv"],
    "activation-curve": ["--theta", "1", "--a", "1", "--c", "1", "--k-max", "8",
                         "--x-min", "-1", "--x-max", "1", "--step", "0.5",
                         "--out", "{d}/curve.csv"],
    "activation-to-pgf": ["--name", "relu", "--k-max", "8", "--out", "{d}/relu.csv"],
    "kernel-eval": ["--kind", "cmixed", "--theta", "0.5", "--c", "0.5,0.25",
                    "--x", "1,0", "--z", "0.6,0.8"],
    "kernel-gram": ["--theta", "1", "--a", "1", "--c", "1", "--depth", "2",
                    "--points", "{d}/points.csv", "--out", "{d}/gram.csv"],
    "kernel-limit": ["--kind", "cmixed", "--theta", "0.5", "--c", "0.5,0.25",
                     "--rho", "0.5", "--c-sum", "1"],
    "kernel-eigen": ["--theta", "1", "--a", "1", "--c", "1", "--depth", "2", "--m", "3",
                     "--k-max", "8", "--out", "{d}/eigen.json"],
    "mlp-study": ["--activation", "relu", "--depth", "1", "--widths", "8,16",
                  "--samples", "100", "--seed", "3", "--rho", "0.5",
                  "--out", "{d}/study.csv"],
    "gp-fit": ["--theta", "1", "--a", "1", "--c", "1", "--depth", "1",
               "--train", "{d}/train.csv", "--noise", "0.1", "--model-out", "{d}/fit.json"],
    "gp-predict": ["--model", "{d}/model.json", "--query", "{d}/points.csv",
                   "--out", "{d}/pred.csv"],
    "reproduce-fig1": ["--case", "linear", "--k-max", "8", "--out", "{d}/fig1.csv"],
}

#: Flags whose values are names or paths, which the numeric sweep leaves alone.
CLI_WORDS = {"--kind", "--name", "--activation", "--case", "--out", "--points", "--train",
             "--model-out", "--model", "--query"}

CLI_HOSTILE = ["-1", "0", "nan", "inf", "1e400", "1000000000000000000"]


def _cli_cases():
    for command, argv in CLI_VALID.items():
        yield command, "valid", argv
        for i in range(0, len(argv), 2):
            if argv[i] not in CLI_WORDS:
                for bad in CLI_HOSTILE:
                    yield command, f"{argv[i]} {bad}", argv[:i + 1] + [bad] + argv[i + 2:]


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs POSIX interval timers")
def test_hostile_cli_values_exit_0_2_or_3(tmp_path, capsys):
    """Each number or comma-list flag of a valid argv, replaced in turn by each
    hostile value, exits 0, 2 or 3 (argparse's SystemExit counts as its code),
    and an exit 0 writes no nan or inf (JSON's NaN and Infinity included)."""
    (tmp_path / "points.csv").write_text("1,0\n0,1\n0.6,0.8\n")
    (tmp_path / "train.csv").write_text("1,0,1\n0,1,-1\n0.6,0.8,0.5\n")
    inputs = set(tmp_path.iterdir()) | {tmp_path / "model.json"}
    here = lambda argv: [arg.replace("{d}", str(tmp_path)) for arg in argv]  # noqa: E731
    assert app(here(["gp-fit", *CLI_VALID["gp-fit"][:-1], "{d}/model.json"])) == 0
    failures = []
    for command, case, argv in _cli_cases():
        argv = here([command, *argv])
        for out in set(tmp_path.iterdir()) - inputs:
            out.unlink()
        try:
            with _time_limit(HANG_S):
                code = app(argv)
        except SystemExit as exc:
            code = exc.code
        except _Hang:
            failures.append(f"{command} {case}: no exit within {HANG_S} s")
            continue
        except Exception as exc:  # a bare exception is what the sweep looks for
            failures.append(f"{command} {case}: {type(exc).__name__}: {exc!s:.80}")
            continue
        written = capsys.readouterr().out + "".join(
            out.read_text() for out in set(tmp_path.iterdir()) - inputs)
        if code not in (0, 2, 3):
            failures.append(f"{command} {case}: exit {code}")
        elif code == 0 and ("nan" in written.lower() or "inf" in written.lower()):
            failures.append(f"{command} {case}: exit 0 wrote a non-finite value")
        elif code != 0 and case == "valid":
            failures.append(f"{command}: the valid argv exits {code}")
    assert not failures, "\n".join(failures)
