"""A sweep over the public surface: each argument of a valid call, replaced by
each hostile value, raises a ThetaKernelError or gives finite values, and no
call hangs (a fixed property table, in the manner of QuickCheck)."""

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
