"""Activations dual to PGF coefficient sequences.

A probability sequence (p_k) defines an activation phi(x) = sum_k sqrt(p_k)
h_k(x) in the orthonormal Hermite basis, and conversely any square-integrable
activation with E[phi(X)^2] <= 1 induces a coefficient sequence
p_k = (E[phi(X) h_k(X)])^2.  The bridge identity is

    E[phi(X) phi(Z)] = sum_k p_k s^k     for (X, Z) Gaussian, correlation s,

so activations and PGFs carry the same kernel information.

Two activation forms are supported.  ``HermiteSeriesActivation`` stores the
sqrt(p_k) directly (positive square root throughout; sign freedom changes phi
but not the induced PGF) and evaluates phi by Clenshaw's recurrence on arrays
of the input's shape.  ``ReferenceActivation`` covers the standard
leaky-rectifier family phi(x) = scale * (x if x > 0 else slope * x), scaled
so E[phi(X)^2] = 1; relu, prelu(slope), and linear are the named members.

Coefficient recovery reads a series form's a_k^2 off directly (exact by
orthonormality), uses closed half-Gaussian moments for reference forms, whose
kink at 0 defeats full-line quadrature rates, and projects any other callable
by Gauss-Hermite quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import (
    DomainError,
    InvalidCoefficients,
    NotSquareIntegrableWithinBudget,
    _order,
)
from .hermite import (
    gauss_hermite_rule,
    half_gaussian_hermite_moments,
    half_gaussian_rule,
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

_QUAD_NODES = 200

_REFERENCE_SLOPES = {"relu": 0.0, "linear": 1.0}


@dataclass(frozen=True)
class HermiteSeriesActivation:
    """phi(x) = sum_k a_k h_k(x) with a_k = sqrt(p_k) >= 0.

    ``eps_tail`` carries the PGF mass lost to truncation when the
    coefficients come from a truncated theta PGF.
    """

    coefficients: tuple[float, ...]
    eps_tail: float = 0.0

    def __post_init__(self) -> None:
        arr = np.asarray(self.coefficients, dtype=float)
        if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
            raise InvalidCoefficients(
                "Hermite-series activation coefficients must be finite and >= 0")
        # E[phi^2] = sum a_k^2 must be a sub-probability mass, as must eps_tail.
        SeriesPgf(tuple((arr * arr).tolist()), eps_tail=self.eps_tail)

    @property
    def k_max(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x):
        return hermite_series(self.coefficients, x)


@dataclass(frozen=True)
class ReferenceActivation:
    """phi(x) = scale * (x if x > 0 else slope * x), with E[phi(X)^2] = 1."""

    name: str
    slope: float
    scale: float

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        out = self.scale * np.where(arr > 0.0, arr, self.slope * arr)
        return float(out) if arr.ndim == 0 else out


Activation = Union[HermiteSeriesActivation, ReferenceActivation]


def activation_from_coefficients(p: Sequence[float],
                                 eps_tail: float = 0.0) -> HermiteSeriesActivation:
    """Activation with Hermite coefficients sqrt(p_k) from a PGF sequence.

    p and eps_tail are checked as a SeriesPgf: InvalidCoefficients for a
    sequence that is not flat, negative entries (below -1e-12), total mass
    above 1 + 1e-12, or an eps_tail that is not finite and >= 0.  Tiny
    negative rounding residues are clamped.
    """
    series = SeriesPgf(p, eps_tail=eps_tail)
    return HermiteSeriesActivation(tuple(np.sqrt(series.coefficients).tolist()),
                                   eps_tail=eps_tail)


def reference_activation(name: str, slope: float | None = None) -> ReferenceActivation:
    """Named reference activation: relu, linear, or prelu with a given slope.

    Accepts "prelu(0.25)" / "prelu:0.25" spellings so config files can carry
    the slope inside the name.
    """
    label = name.strip().lower()
    if label.startswith("prelu") and label not in ("prelu",):
        inner = label[len("prelu"):].strip("():")
        if inner:
            if slope is not None:
                raise DomainError(f"slope given twice: {name!r} and slope={slope}")
            slope = float(inner)
            label = "prelu"
    if label == "prelu":
        if slope is None:
            raise DomainError("prelu needs a slope, e.g. reference_activation('prelu', 0.25)")
    elif label in _REFERENCE_SLOPES:
        if slope is not None and slope != _REFERENCE_SLOPES[label]:
            raise DomainError(f"{label} has a fixed slope; got slope={slope}")
        slope = _REFERENCE_SLOPES[label]
    else:
        raise DomainError(f"unknown reference activation {name!r}")
    if not math.isfinite(slope):
        raise DomainError(f"slope must be finite, got {slope}")
    # E[phi^2] = scale^2 * (1 + slope^2) / 2 over the standard Gaussian.
    scale = math.sqrt(2.0 / (1.0 + slope * slope))
    return ReferenceActivation(name=label, slope=float(slope), scale=scale)


def activation_to_pgf(act: Activation, k_max: int = DEFAULT_SERIES_K) -> np.ndarray:
    """Recover p_k = (E[phi(X) h_k(X)])^2 for k = 0 .. k_max.

    Series activations return their a_k^2, zero-padded or truncated to
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
        a = np.zeros(k_max + 1)
        kept = act.coefficients[:k_max + 1]
        a[:len(kept)] = kept
    elif isinstance(act, ReferenceActivation):
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
    t, w = gauss_hermite_rule(max(_QUAD_NODES, act.k_max + 1))
    if abs(s) == 1.0:
        return float(np.sum(w * act(t) * act(math.copysign(1.0, s) * t)))
    beta = math.sqrt(1.0 - s * s)
    phi_x = act(t)
    # z-grid over the (x, y) tensor rule: z_ij = s x_i + beta y_j
    phi_z = act(s * t[:, None] + beta * t[None, :])
    return float(w @ (phi_x * (phi_z @ w)))


def _reference_bivariate(act: ReferenceActivation, s: float) -> float:
    # phi = scale * (slope * x + (1 - slope) * x+), and E[X Z+] = E[X+ Z] = s/2,
    # so E[phi(X) phi(Z)] = scale^2 * (slope * s + (1 - slope)^2 * E[X+ Z+]).
    if s == 1.0:
        j = 0.5
    elif s == -1.0:
        j = 0.0
    else:
        beta = math.sqrt(1.0 - s * s)
        t, w = half_gaussian_rule()
        # E[Z+ | X = x] = s x Phi(s x / beta) + beta phi_N(s x / beta)
        u = s * t / beta
        cdf = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in u])
        cond = s * t * cdf + beta * np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
        j = float(np.sum(w * t * cond))
    return act.scale ** 2 * (act.slope * s + (1.0 - act.slope) ** 2 * j)


def bivariate_expectation(act: Activation, s: float) -> float:
    """E[phi(X) phi(Z)] for jointly Gaussian (X, Z) with correlation s.

    Computed by quadrature over the representation Z = s X + sqrt(1 - s^2) Y
    with Y independent of X: a tensor Gauss-Hermite rule for series forms,
    with max(200, k_max + 1) nodes so it is exact for the product's degree
    2 * k_max (NumericalInstability from k_max 370, where numpy's rule
    fails), and for reference forms the Y-integral done in closed form
    (conditional mean of the positive part) followed by a smooth half-line
    rule.  Shares no code with the series identity sum_k p_k s^k, which is
    what tests compare it against.
    """
    s = float(s)
    if not -1.0 <= s <= 1.0:
        raise DomainError(f"correlation must lie in [-1, 1], got {s}")
    if isinstance(act, ReferenceActivation):
        return _reference_bivariate(act, s)
    return _series_bivariate(act, s)
