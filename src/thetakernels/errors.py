"""Exception taxonomy shared across the package.

Every error raised by this package derives from :class:`ThetaKernelError`, so
callers can catch one base type.  Validation-style failures additionally
derive from :class:`ValueError` (or :class:`IndexError`) and numerical
failures from :class:`ArithmeticError`, keeping ``except ValueError`` style
code working.  Arguments are checked by five shared rules, each raising the
error type its caller names: ``_order`` (integers), ``_real`` (real numbers),
``_reals`` (arrays of reals), ``_instance`` (expected types) and ``_items``
(non-empty sequences).  Counts have ceilings far above any use, the ``_MAX_``
constants, so no call asks for unbounded work.
"""

from __future__ import annotations

import math
import numbers
import operator
import reprlib

import numpy as np

_MAX = float(np.finfo(float).max)     # the default bounds of _real(s): any finite float

#: Ceilings of ``_order``, one per kind of count.
_MAX_DEPTH = 2 ** 53 - 1    # depths and iteration counts, exact as floats
_MAX_ORDER = 2 ** 16        # series orders k_max and harmonic degrees
_MAX_DIMENSION = 2 ** 16    # sphere dimensions m
_MAX_SAMPLES = 10 ** 8      # Monte Carlo samples, one float each: 800 MB at most
_MAX_WIDTH = 2 ** 16        # MLP layer widths: a 256-sample chunk peaks near 805 MB
_MAX_LAYERS = 2 ** 20 - 1   # activated MLP layers: a Philox key holds a 20-bit layer index
_MAX_ENTRIES = 2 ** 24      # entries of one drawn weight matrix: 128 MiB of doubles

__all__ = [
    "ThetaKernelError",
    "RegimeViolation",
    "DerivedCMismatch",
    "DomainError",
    "EmptySequence",
    "InvalidCoefficients",
    "NumericalInstability",
    "ZeroVector",
    "DimensionMismatch",
    "DimensionUnsupported",
    "UnknownSumConvergence",
    "IndexOutOfRange",
    "ZeroNormLayer",
    "FactorizationFailed",
    "ConfigError",
]


class ThetaKernelError(Exception):
    """Base class for all errors raised by thetakernels."""


class RegimeViolation(ThetaKernelError, ValueError):
    """Parameters fall outside every admissible theta-PGF regime."""


class DerivedCMismatch(RegimeViolation):
    """A supplied c disagrees with the value derived from (theta, a, q, r)."""


class DomainError(ThetaKernelError, ValueError):
    """Argument outside the domain of a PGF or bivariate expectation."""


class EmptySequence(DomainError):
    """A sequence argument that must be non-empty was empty."""


class InvalidCoefficients(ThetaKernelError, ValueError):
    """Series coefficients violate non-negativity or the unit mass budget."""


class NumericalInstability(ThetaKernelError, ArithmeticError):
    """A numerical routine produced evidence of mis-configuration."""


class ZeroVector(ThetaKernelError, ValueError):
    """An input vector that must be normalized has zero Euclidean norm."""


class DimensionMismatch(ThetaKernelError, ValueError):
    """Two vectors or point sets do not live in the same dimension."""


class DimensionUnsupported(ThetaKernelError, ValueError):
    """Sphere dimension outside the supported range (m >= 3)."""


class UnknownSumConvergence(ThetaKernelError, ValueError):
    """A c-mixed limit was requested without the sum of c_k."""


class IndexOutOfRange(ThetaKernelError, IndexError):
    """Index outside the length of a kernel factor sequence."""


class ZeroNormLayer(ThetaKernelError, ArithmeticError):
    """A hidden layer output had zero norm and cannot be normalized."""


class FactorizationFailed(ThetaKernelError, ArithmeticError):
    """Cholesky factorization failed at every jitter level."""


class ConfigError(ThetaKernelError, ValueError):
    """An experiment configuration file failed schema validation."""


def _order(value, name: str, minimum: int | None, error: type = DomainError,
           maximum: int | None = None) -> int:
    """value as a Python int in [minimum, maximum], a bound of None being none;
    bools and non-integers raise ``error``."""
    try:
        index = operator.index(value)
    except TypeError:
        index = None
    if (isinstance(value, bool) or index is None
            or (minimum is not None and index < minimum)
            or (maximum is not None and index > maximum)):
        bound = ("" if minimum is None else f" >= {minimum}" if maximum is None
                 else f" in [{minimum}, {maximum}]")
        raise error(f"{name} must be an integer{bound}, got {reprlib.repr(value)}")
    return index


def _real(value, name: str, low: float = -_MAX, high: float = _MAX,
          error: type = DomainError) -> float:
    """value, a Python or numpy real (not a bool) in [low, high], as a float;
    else ``error``, "need a finite number {name}", so name states the bounds."""
    try:
        number = (float(value) if isinstance(value, numbers.Real)
                  and not isinstance(value, bool) else math.nan)
    except OverflowError:   # a Python int beyond the float range
        number = math.nan
    if not low <= number <= high:
        raise error(f"need a finite number {name}, got {reprlib.repr(value)}")
    return number


def _reals(value, name: str, low: float = -_MAX, high: float = _MAX,
           error: type = DomainError) -> np.ndarray:
    """value, a scalar or array of reals in [low, high], as float64, converted
    once; ``error`` if it is ragged, not real (bool, str, complex) or NaN."""
    try:
        arr = np.asarray(value)
    except ValueError:      # ragged nesting
        arr = None
    if arr is None or arr.dtype.kind not in "iuf" or not ((arr >= low) & (arr <= high)).all():
        where = "" if (low, high) == (-_MAX, _MAX) else f" in [{low:g}, {high:g}]"
        raise error(f"{name} must be finite real numbers{where}, got {reprlib.repr(value)}")
    return arr.astype(float, copy=False)


def _instance(value, types: type | tuple[type, ...], name: str, error: type = DomainError):
    """value, if an instance of ``types``; else ``error``, "need {name}"."""
    if not isinstance(value, types):
        raise error(f"need {name}, got {reprlib.repr(value)}")
    return value


def _items(value, name: str, minimum: int = 1, error: type = DomainError) -> tuple:
    """value, a list, tuple or 1-d array of at least minimum items, as a tuple;
    EmptySequence if it is empty, else ``error`` if it is short or no sequence."""
    if not (isinstance(value, (list, tuple)) or isinstance(value, np.ndarray) and value.ndim == 1):
        raise error(f"need {name} as a list, tuple or 1-d array, got {reprlib.repr(value)}")
    if len(value) < minimum:
        raise (error if len(value) else EmptySequence)(
            f"need {name} with {minimum} or more items, got {reprlib.repr(value)}")
    return tuple(value)
