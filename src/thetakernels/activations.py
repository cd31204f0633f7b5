"""Activations dual to PGF coefficient sequences.

A probability sequence (p_k) defines an activation phi(x) = sum_k sqrt(p_k)
h_k(x) in the orthonormal Hermite basis, and conversely any square-integrable
activation with E[phi(X)^2] <= 1 induces a coefficient sequence
p_k = (E[phi(X) h_k(X)])^2.  The bridge identity is

    E[phi(X) phi(Z)] = sum_k p_k s^k     for (X, Z) Gaussian, correlation s,

so activations and PGFs carry the same kernel information.

Two activation forms are supported.  ``HermiteSeriesActivation`` is its PGF:
it holds a ``SeriesPgf`` and derives a_k = sqrt(p_k) from it once (positive
square root throughout; sign freedom changes phi but not the induced PGF),
evaluating phi by Clenshaw's recurrence on arrays of the input's shape.
``ReferenceActivation`` covers the standard leaky-rectifier family
phi(x) = scale * (x if x > 0 else slope * x): it is its slope, and the scale
making E[phi(X)^2] = 1 follows; relu is slope 0, linear 1.  By name, a
reference activation is ``relu``, ``linear`` or ``prelu(S)``.

Coefficient recovery returns a series form's p_k (exact by orthonormality),
uses closed half-Gaussian moments for reference forms, whose kink at 0
defeats full-line quadrature rates, and projects any other callable by
Gauss-Hermite quadrature.  Each form has one exact dual E[phi(X) phi(Z)]:
its PGF for a series form and the arc-cosine closed form (Cho and Saul,
NIPS 2009) for a reference form; the wide-MLP reference kernel composes
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Union, get_args

import numpy as np

from .errors import (
    DomainError,
    NotSquareIntegrableWithinBudget,
    NumericalInstability,
    _finite,
    _order,
)
from .hermite import (
    gauss_hermite_rule,
    half_gaussian_hermite_moments,
    hermite_design,
    hermite_series,
)
from .pgf import DEFAULT_SERIES_K, SeriesPgf

__all__ = [
    "Activation",
    "HermiteSeriesActivation",
    "ReferenceActivation",
    "activation_from_coefficients",
    "reference_activation",
    "activation_to_pgf",
    "bivariate_expectation",
]

#: Gauss-Hermite nodes for projecting a callable that is not a series or
#: reference form; series bivariates size their rule to k_max instead.
_QUAD_NODES = 200

_REFERENCE_SLOPES = {"relu": 0.0, "linear": 1.0}
_SIGN_BIT = np.uint64(1 << 63)


@dataclass(frozen=True)
class HermiteSeriesActivation:
    """phi(x) = sum_k a_k h_k(x) for the PGF sum_k p_k s^k, a_k = sqrt(p_k).

    The activation is its ``SeriesPgf``, which checks the p_k and carries
    their truncated tail mass; the coefficients a_k are derived from it.
    """

    pgf: SeriesPgf
    coefficients: tuple[float, ...] = field(init=False)

    def __post_init__(self) -> None:
        if not isinstance(self.pgf, SeriesPgf):
            raise DomainError(f"a series activation is built from a SeriesPgf, got {self.pgf!r}")
        object.__setattr__(self, "coefficients", tuple(np.sqrt(self.pgf.coefficients).tolist()))

    @property
    def k_max(self) -> int:
        return self.pgf.k_max

    def __call__(self, x):
        return hermite_series(self.coefficients, x)


@dataclass(frozen=True)
class ReferenceActivation:
    """phi(x) = scale * (x if x > 0 else slope * x), with E[phi(X)^2] = 1.

    The slope, a finite real (not a bool) with a finite square, is stored as
    a float, and the scale is derived from it.  Three passes over one output
    array: slope * x (a zero of x's sign for relu, so no 0 * inf), then the
    larger of that and x (the smaller for slope > 1), then times scale.  Bit
    for bit scale * where(x > 0, x, slope * x) on finite input and NaN,
    except that a zero keeps its sign and, for |slope| > 1, entries where
    slope * x overflowed are (slope * scale) * x.  phi(+-inf) are the limits
    (relu(-inf) = -0.0) and nothing warns.  Scalars give floats.
    """

    slope: float
    scale: float = field(init=False)

    def __post_init__(self) -> None:
        slope = float(self.slope) if _finite(self.slope) else math.nan
        if not math.isfinite(slope * slope):   # else scale is 0 and phi vanishes
            raise DomainError(
                f"slope must be finite with a finite square, got {self.slope!r}")
        object.__setattr__(self, "slope", slope)
        # E[phi^2] = scale^2 * (1 + slope^2) / 2 over the standard Gaussian.
        object.__setattr__(self, "scale", math.sqrt(2.0 / (1.0 + slope * slope)))

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        out = np.empty(arr.shape)
        if self.slope == 0.0:
            # x's sign bit alone, copysign(0, x): numpy's copysign is 2.5x slower
            np.bitwise_and(arr.view(np.uint64), _SIGN_BIT, out=out.view(np.uint64))
        else:
            with np.errstate(over="ignore"):
                np.multiply(self.slope, arr, out=out)
        (np.minimum if self.slope > 1.0 else np.maximum)(out, arr, out=out)
        out *= self.scale
        if abs(self.slope) > 1.0:   # slope * x overflowed only if x < 0 (scale < 1)
            lost = np.isinf(out) & np.isfinite(arr)
            with np.errstate(over="ignore"):
                out[lost] = (self.slope * self.scale) * arr[lost]
        return float(out) if arr.ndim == 0 else out


Activation = Union[HermiteSeriesActivation, ReferenceActivation]


def _check_activation(act) -> None:
    """DomainError unless act is an ``Activation`` form, the forms with an exact dual."""
    if not isinstance(act, get_args(Activation)):
        raise DomainError("activations must be HermiteSeriesActivation or "
                          f"ReferenceActivation, got {act!r}")


def activation_from_coefficients(p: Sequence[float]) -> HermiteSeriesActivation:
    """The series activation of the PGF sequence p, checked as a SeriesPgf.

    InvalidCoefficients for a sequence that is not flat or finite, negative
    entries (below -1e-12) or total mass above 1 + 1e-12; tiny negative
    rounding residues are clamped.
    """
    return HermiteSeriesActivation(SeriesPgf(p))


def reference_activation(name: str) -> ReferenceActivation:
    """The reference activation named relu, linear or prelu(S).

    Case and surrounding space are ignored, and S is read by ``float``;
    ``ReferenceActivation(slope)`` takes the slope as a number.
    """
    label = name.strip().lower() if isinstance(name, str) else ""
    if label in _REFERENCE_SLOPES:
        return ReferenceActivation(_REFERENCE_SLOPES[label])
    if label.startswith("prelu(") and label.endswith(")"):
        try:
            slope = float(label[len("prelu("):-1])
        except ValueError:
            pass
        else:
            return ReferenceActivation(slope)
    raise DomainError(f"unknown reference activation {name!r}: "
                      "expected relu, linear or prelu(S) with S a number")


def activation_to_pgf(act: Activation, k_max: int = DEFAULT_SERIES_K) -> np.ndarray:
    """Recover p_k = (E[phi(X) h_k(X)])^2 for k = 0 .. k_max.

    Series activations return their PGF's p_k, zero-padded or truncated to
    k_max: exact by orthonormality at every order.  Reference forms use the
    closed half-Gaussian moment recursion: the kink at zero caps full-line
    quadrature at O(n^{-3/2}) accuracy, far short of the 1e-8 oracle
    tolerance.  Any other callable is projected by a 200-node Gauss-Hermite
    rule, exact for polynomials of degree below 400.

    Raises NotSquareIntegrableWithinBudget when such a callable's E[phi^2]
    exceeds 1 + 1e-8.
    """
    k_max = _order(k_max, "k_max", 0)
    if isinstance(act, HermiteSeriesActivation):
        p = np.zeros(k_max + 1)
        kept = act.pgf.coefficients[:k_max + 1]
        p[:len(kept)] = kept
        return p
    if isinstance(act, ReferenceActivation):
        # E[phi h_k] = scale * (slope * E[X h_k] + (1 - slope) * E[X+ h_k])
        # and E[X h_k] = delta_{k,1} by orthonormality; E[phi^2] = 1.
        a = (1.0 - act.slope) * half_gaussian_hermite_moments(k_max)
        if k_max >= 1:
            a[1] += act.slope
        a *= act.scale
    else:
        t, w = gauss_hermite_rule(_QUAD_NODES)
        values = act(t)
        moment = float(np.sum(w * values * values))
        if moment > 1.0 + 1e-8:
            raise NotSquareIntegrableWithinBudget(
                f"E[phi^2] = {moment} exceeds 1 beyond tolerance; rescale the activation")
        a = hermite_design(k_max, t) @ (w * values)
    return a * a


def _series_bivariate(act: HermiteSeriesActivation, s: float) -> float:
    try:
        t, w = gauss_hermite_rule(act.k_max + 1)
    except NumericalInstability:
        raise NumericalInstability(
            f"series activation of order k_max = {act.k_max} needs a "
            f"{act.k_max + 1}-node Gauss-Hermite rule, which numpy cannot build; "
            "bivariate_expectation supports k_max <= 369") from None
    if abs(s) == 1.0:
        return float(np.sum(w * act(t) * act(math.copysign(1.0, s) * t)))
    beta = math.sqrt(1.0 - s * s)
    phi_x = act(t)
    # z-grid over the (x, y) tensor rule: z_ij = s x_i + beta y_j
    phi_z = act(s * t[:, None] + beta * t[None, :])
    return float(w @ (phi_x * (phi_z @ w)))


def _dual(act: Activation, s: float) -> float:
    """E[phi(X) phi(Z)] at correlation s in [-1, 1], exactly.

    Series forms: their PGF sum_k p_k s^k, at every order.  A reference form is
    scale * (slope * x + (1 - slope) * x+), E[X Z+] = E[X+ Z] = s / 2, and
    E[X+ Z+] is the arc-cosine form j, exact at +-1.
    """
    if isinstance(act, ReferenceActivation):
        j = (math.sqrt((1.0 - s) * (1.0 + s)) + s * (math.pi - math.acos(s))) / math.tau
        return act.scale ** 2 * (act.slope * s + (1.0 - act.slope) ** 2 * j)
    return act.pgf.eval_extended(s)


def bivariate_expectation(act: Activation, s: float) -> float:
    """E[phi(X) phi(Z)] for jointly Gaussian (X, Z) with correlation s.

    Reference forms return the arc-cosine closed form.  Series forms use a
    tensor Gauss-Hermite rule over Z = s X + sqrt(1 - s^2) Y, Y independent
    of X, with k_max + 1 nodes per axis: the smallest rule exact for
    phi(x) phi(s x + beta y), of degree 2 * k_max in x and k_max in y
    (NumericalInstability beyond k_max 369, where numpy's rule fails).  It
    shares no code with sum_k p_k s^k, which tests compare it against.
    Any other callable raises DomainError.
    """
    _check_activation(act)
    s = float(s)
    if not -1.0 <= s <= 1.0:
        raise DomainError(f"correlation must lie in [-1, 1], got {s}")
    if isinstance(act, ReferenceActivation):
        return _dual(act, s)
    return _series_bivariate(act, s)
