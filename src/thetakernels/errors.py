"""Exception taxonomy shared across the package.

Every error raised by this package derives from :class:`ThetaKernelError`, so
callers can catch one base type.  Validation-style failures additionally
derive from :class:`ValueError` (or :class:`IndexError`) and numerical
failures from :class:`ArithmeticError`, keeping ``except ValueError`` style
code working.
"""

from __future__ import annotations

import operator

__all__ = [
    "ThetaKernelError",
    "RegimeViolation",
    "DerivedCMismatch",
    "DomainError",
    "EmptySequence",
    "InvalidCoefficients",
    "NotSquareIntegrableWithinBudget",
    "NumericalInstability",
    "ZeroVector",
    "DimensionMismatch",
    "DimensionUnsupported",
    "UnknownSumConvergence",
    "IndexOutOfRange",
    "ZeroNormLayer",
    "FactorizationFailed",
    "ConfigError",
    "InvalidRegime",
]


class ThetaKernelError(Exception):
    """Base class for all errors raised by thetakernels."""


class RegimeViolation(ThetaKernelError, ValueError):
    """Parameters fall outside every admissible theta-PGF regime."""


class DerivedCMismatch(RegimeViolation):
    """A supplied c disagrees with the value derived from (theta, a, q, r)."""


# The c-mixed kernel constructors reject theta outside (0, 1] and
# non-positive c_k with the same semantics as a regime violation.
InvalidRegime = RegimeViolation


class DomainError(ThetaKernelError, ValueError):
    """Argument outside the domain of a PGF or bivariate expectation."""


class EmptySequence(ThetaKernelError, ValueError):
    """A sequence argument that must be non-empty was empty."""


class InvalidCoefficients(ThetaKernelError, ValueError):
    """Series coefficients violate non-negativity or the unit mass budget."""


class NotSquareIntegrableWithinBudget(ThetaKernelError, ValueError):
    """An activation's Gaussian second moment exceeds the unit budget."""


class NumericalInstability(ThetaKernelError, ArithmeticError):
    """A numerical routine produced evidence of mis-configuration."""


class ZeroVector(ThetaKernelError, ValueError):
    """An input vector that must be normalized has zero Euclidean norm."""


class DimensionMismatch(ThetaKernelError, ValueError):
    """Two vectors or point sets do not live in the same dimension."""


class DimensionUnsupported(ThetaKernelError, ValueError):
    """Sphere dimension outside the supported range (m >= 3)."""


class UnknownSumConvergence(ThetaKernelError, ValueError):
    """A c-mixed limit was requested without the sum of c_k or a divergence flag."""


class IndexOutOfRange(ThetaKernelError, IndexError):
    """Index outside the length of a kernel factor sequence."""


class ZeroNormLayer(ThetaKernelError, ArithmeticError):
    """A hidden layer output had zero norm and cannot be normalized."""


class FactorizationFailed(ThetaKernelError, ArithmeticError):
    """Cholesky factorization failed at every jitter level."""


class ConfigError(ThetaKernelError, ValueError):
    """An experiment configuration file failed schema validation."""


def _order(value, name: str, minimum: int, error: type = DomainError) -> int:
    """value as a Python int >= minimum; bools and non-integers raise ``error``."""
    try:
        index = operator.index(value)
    except TypeError:
        index = None
    if isinstance(value, bool) or index is None or index < minimum:
        raise error(f"{name} must be an integer >= {minimum}, got {value!r}")
    return index
