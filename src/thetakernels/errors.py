"""Exception taxonomy shared across the package.

Every error raised by this package derives from :class:`ThetaKernelError`, so
callers can catch one base type.  Validation-style failures additionally
derive from :class:`ValueError` (or :class:`IndexError`) and numerical
failures from :class:`ArithmeticError`, keeping ``except ValueError`` style
code working.  Inputs are checked by three shared rules, which all refuse
non-real values: ``_order`` for integers, ``_finite`` for scalars, ``_reals`` for arrays.
"""

from __future__ import annotations

import math
import numbers
import operator
import reprlib

import numpy as np

_MAX = float(np.finfo(float).max)     # the default bounds of _reals: any finite float

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


class EmptySequence(ThetaKernelError, ValueError):
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


def _order(value, name: str, minimum: int | None, error: type = DomainError) -> int:
    """value as a Python int, >= minimum unless that is None; bools and
    non-integers raise ``error``."""
    try:
        index = operator.index(value)
    except TypeError:
        index = None
    if (isinstance(value, bool) or index is None
            or (minimum is not None and index < minimum)):
        bound = "" if minimum is None else f" >= {minimum}"
        raise error(f"{name} must be an integer{bound}, got {value!r}")
    return index


def _finite(value) -> bool:
    """A finite real number, Python or numpy; bools are not numbers here."""
    try:
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:   # a Python int beyond the float range
        return False


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
