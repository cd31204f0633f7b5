"""Theta probability generating functions.

This module implements a three-branch family of probability generating
functions (PGFs) whose n-fold self-compositions stay inside the family, which
is what makes deep compositional kernels built from them tractable in closed
form.  Writing u = r - s, the branches are

    theta in (-1, 0) u (0, 1]:   f(s) = r - (a * u**(-theta) + c) ** (-1/theta)
    theta = 0:                   f(s) = r - (r - q)**(1 - a) * u**a
    theta = -1:                  f(s) = a * s + (1 - a) * q

Only certain parameter combinations produce a genuine PGF (non-negative
series coefficients, total mass at most one).  The admissible combinations
are encoded by :class:`Regime`:

    MAIN_SUPER   theta in (0, 1],            a >= 1, c > 0,  r = 1
    MAIN_SUB_1   theta in (-1, 0) u (0, 1],  a in (0, 1),    r = 1,  q in [0, 1)
    MAIN_SUB_R   theta in (-1, 0) u (0, 1],  a in (0, 1),    r > 1,  q in [0, 1]
    ZERO_1       theta = 0,                  a in (0, 1),    r = 1,  q in [0, 1)
    ZERO_R       theta = 0,                  a in (0, 1),    r > 1,  q in [0, 1]
    MINUS_ONE    theta = -1,                 a in (0, 1),            q in [0, 1]

A :class:`ThetaPgf` is built from (theta, a, c, q, r) and validated once: it
infers the regime from (theta, a, r) and then checks only what that regime
asks of c and q.  In the two subcritical main regimes c is not free:
c = (1 - a) * (r - q)**(-theta), which pins the fixed point f(q) = q, so
either q or c may be given and the constructor derives the other.
Composition stays at the parameter level (a -> a**n, c accumulating a
geometric sum), so :func:`pgf_iterate_closed` builds its result through the
same constructor.

The regime alone selects the closed form that evaluation, iteration and the
series coefficients use (a binomial series, raised to the power -1/theta in
the main branch by one power recurrence); the subcritical main regimes take
an expm1/log1p form that stays accurate as theta -> 0.  An independent
coefficient oracle integrates the evaluated PGF over a contour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Union

import numpy as np

from .errors import (
    DerivedCMismatch,
    DomainError,
    EmptySequence,
    InvalidCoefficients,
    NumericalInstability,
    RegimeViolation,
    _finite,
    _order,
)

__all__ = [
    "Regime",
    "ThetaPgf",
    "SeriesPgf",
    "ComposedPgf",
    "Pgf",
    "make_theta_pgf",
    "derived_c",
    "pgf_iterate_closed",
    "theta_coefficients",
    "series_coefficients",
    "theta_pgf_to_series",
]

#: Tolerance for a caller-supplied c against the derived value in sub regimes.
DERIVED_C_TOL = 1e-12

#: Default truncation order for series conversions.
DEFAULT_SERIES_K = 64


class Regime(str, Enum):
    """Admissible parameter regimes, keyed by the theta branch."""

    MAIN_SUPER = "main_super"
    MAIN_SUB_1 = "main_sub_1"
    MAIN_SUB_R = "main_sub_r"
    ZERO_1 = "zero_1"
    ZERO_R = "zero_r"
    MINUS_ONE = "minus_one"

    def is_sub(self) -> bool:
        return self in (Regime.MAIN_SUB_1, Regime.MAIN_SUB_R)

    def is_zero(self) -> bool:
        return self in (Regime.ZERO_1, Regime.ZERO_R)


def derived_c(theta: float, a: float, q: float, r: float) -> float:
    """c pinned by the fixed point f(q) = q in the subcritical main regimes."""
    return (1.0 - a) * (r - q) ** (-theta)


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise RegimeViolation(message)


def _infer_regime(theta: float, a: float, r: float) -> Regime:
    """The row of the regime table that (theta, a, r) satisfies.

    This is the one place theta, a and r are checked; ThetaPgf then checks
    what the regime asks of c and q.
    """
    for name, value in (("theta", theta), ("a", a), ("r", r)):
        _check(_finite(value), f"{name} must be a finite number, got {value!r}")
    _check(not 0.0 < abs(theta) < np.finfo(float).tiny, f"theta = {theta!r} is subnormal")
    sub = 0.0 < a < 1.0
    if theta == -1.0 and sub and r == 1.0:
        return Regime.MINUS_ONE
    if -1.0 < theta <= 1.0:
        if theta > 0.0 and a >= 1.0 and r == 1.0:
            return Regime.MAIN_SUPER
        if sub and r >= 1.0:
            if theta == 0.0:
                return Regime.ZERO_1 if r == 1.0 else Regime.ZERO_R
            return Regime.MAIN_SUB_1 if r == 1.0 else Regime.MAIN_SUB_R
    raise RegimeViolation(f"no admissible regime for (theta={theta}, a={a}, r={r})")


def _check_q(regime: Regime, q) -> None:
    """q in [0, 1], and q < 1 in the r = 1 regimes MAIN_SUB_1 and ZERO_1."""
    below_one = regime in (Regime.MAIN_SUB_1, Regime.ZERO_1)
    _check(_finite(q) and 0.0 <= q and (q < 1.0 if below_one else q <= 1.0),
           f"{regime.name} needs q in [0, 1{')' if below_one else ']'}, got {q!r}")


# ---------------------------------------------------------------------------
# Evaluation and closed-form iteration
# ---------------------------------------------------------------------------

def _iterated(p: ThetaPgf, n: int) -> tuple[float, float]:
    """Parameters of the n-fold iterate in log form: (log a_n, b_n).

    In the main branch (r - f_n(s))**(-theta) = a_n * (r - s)**(-theta) + c_n
    with a_n = a**n.  In MAIN_SUPER c_n = c * (a**n - 1) / (a - 1), or n * c
    at a = 1, and b_n = c_n / a_n stays finite at every depth.  Every other
    regime maps only a -> a**n (a subcritical c_n is pinned by q); its b_n is 0.
    """
    log_an = n * math.log(p.a)
    if p.regime is not Regime.MAIN_SUPER:
        return log_an, 0.0
    if log_an == 0.0:
        return 0.0, n * p.c
    return log_an, p.c * -math.expm1(-log_an) / (p.a - 1.0)


def _pinned_power(p: ThetaPgf, log_an: float, z) -> np.ndarray:
    """(a_n * (r - z)**(-theta) + c_n)**(-1/theta), c_n pinned by q, as a 1-d array.

    The bracket is 1 + x, x = a_n * expm1(-theta * log(r - z)) + (1 - a_n) *
    expm1(-theta * log(r - q)), and exp(-log1p(x) / theta) stays accurate as
    theta -> 0.  Complex log1p is 2 * atanh(x / (2 + x)): numpy's is log(1 + x).
    """
    x = np.expm1(np.log(np.atleast_1d(p.r - z)) * -p.theta)
    x *= math.exp(log_an)
    x -= math.expm1(log_an) * math.expm1(-p.theta * math.log(p.r - p.q))
    x = 2.0 * np.arctanh(x / (x + 2.0)) if np.iscomplexobj(x) else np.log1p(x, out=x)
    return np.exp(np.multiply(x, -1.0 / p.theta, out=x), out=x)


def _iterate_eval(p: ThetaPgf, n: int, z):
    """The n-fold iterate f_n at z (real or complex, scalar or array).

    The regime alone picks the form.  No domain checking: kernels evaluate
    at correlations in [-1, 1] and the contour oracle on circles |z| < 1.
    Where the main closed form passes through (1 - z)**(-theta) (theta > 0,
    r = 1) real z = 1 is assigned the analytic value 1, since float
    evaluation there can produce inf * 0.
    """
    arr = np.asarray(z)
    theta, q, r = p.theta, p.q, p.r
    log_an, b_n = _iterated(p, n)
    a_n = math.exp(min(log_an, 0.0))    # 1 for a > 1, where a_n is pulled out
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if p.regime is Regime.MINUS_ONE:
            out = a_n * arr + (1.0 - a_n) * q
        elif p.regime.is_zero():
            out = r - (r - q) ** (1.0 - a_n) * np.power(r - arr, a_n)
        elif p.regime.is_sub():
            out = r - _pinned_power(p, log_an, arr).reshape(arr.shape)
        else:
            bracket = a_n * np.power(r - arr, -theta) + b_n
            out = r - math.exp(-log_an / theta) * np.power(bracket, -1.0 / theta)
    if theta > 0.0 and r == 1.0 and not np.iscomplexobj(arr):
        out = np.where(arr >= 1.0, 1.0, out)
    if arr.ndim == 0:
        return complex(out) if np.iscomplexobj(out) else float(out)
    return out


class _PgfBase:
    """Shared evaluation of the three PGF forms through ``eval_extended``."""

    def eval(self, s):
        """Evaluate at s in [0, 1] (scalar or array); result clipped to [0, 1]."""
        arr = np.asarray(s, dtype=float)
        if not (np.all(arr >= 0.0) and np.all(arr <= 1.0)):
            raise DomainError(f"PGF argument must lie in [0, 1], got {s!r}")
        out = np.clip(self.eval_extended(arr), 0.0, 1.0)
        return float(out) if arr.ndim == 0 else out

    def mass(self) -> float:
        """Total mass f(1); strictly below 1 in the defective regimes."""
        return float(self.eval_extended(1.0))


@dataclass(frozen=True)
class ThetaPgf(_PgfBase):
    """A validated theta PGF in closed form.

    The regime is inferred from (theta, a, r), not passed in.  In the
    subcritical main regimes either q or c may be supplied and the other is
    derived; supplying both raises :class:`DerivedCMismatch` when they
    disagree beyond ``DERIVED_C_TOL``.  Fields not used by the regime must
    be None (q in MAIN_SUPER, c outside the main regimes), so a PGF never
    carries silently ignored numbers.  Each number may be a Python or numpy
    real (bools are refused) and is stored as a float.
    """

    theta: float
    a: float
    c: float | None = None
    q: float | None = None
    r: float = 1.0
    regime: Regime = field(init=False)

    def __post_init__(self) -> None:
        theta, a, c, q, r = self.theta, self.a, self.c, self.q, self.r
        regime = _infer_regime(theta, a, r)
        for name, value in (("c", c), ("q", q)):
            _check(value is None or _finite(value),
                   f"{name} must be None or a finite number, got {value!r}")
        theta, a, r = float(theta), float(a), float(r)
        c = None if c is None else float(c)
        q = None if q is None else float(q)
        if regime.is_sub() and q is None:
            _check(c is not None, "subcritical main regimes need q or c")
            # Invert c = (1 - a) * (r - q)**(-theta) for q.
            _check(c > 0.0, f"cannot derive q from c = {c!r}")
            try:
                q = r - (c / (1.0 - a)) ** (-1.0 / theta)
            except OverflowError:   # the power overflows: q would be -inf
                raise RegimeViolation(
                    f"c = {c!r} derives q = -inf for (theta={theta}, a={a}, r={r}); "
                    "q must be >= 0") from None
            if abs(q) <= 1e-15:
                q = 0.0
        if regime is Regime.MAIN_SUPER:
            _check(c is not None and c > 0.0, f"MAIN_SUPER needs c > 0, got {c}")
            _check(q is None, "MAIN_SUPER has no q parameter")
        else:
            _check_q(regime, q)
            _check(c is None or regime.is_sub(), f"{regime.name} has no c parameter")
        if regime.is_sub():
            expected = derived_c(theta, a, q, r)
            if c is None:
                c = expected
            elif not abs(c - expected) <= DERIVED_C_TOL * max(1.0, abs(expected)):
                raise DerivedCMismatch(
                    f"c = {c} disagrees with derived value {expected} for "
                    f"(theta={theta}, a={a}, q={q}, r={r})")
        for name, value in (("theta", theta), ("a", a), ("c", c), ("q", q), ("r", r),
                            ("regime", regime)):
            object.__setattr__(self, name, value)

    def eval_extended(self, z):
        """Evaluate the closed form without domain checks.

        Valid for real z in [-1, 1] (kernel correlations) and complex z with
        |z| < 1 (contour extraction); PGFs map both regions into themselves.
        """
        return _iterate_eval(self, 1, z)


#: The public constructor name; the class validates on construction.
make_theta_pgf = ThetaPgf


@dataclass(frozen=True)
class SeriesPgf(_PgfBase):
    """A truncated power series PGF with an explicit tail bound.

    ``eps_tail`` records the mass beyond the truncation: the represented
    function underestimates the true one by at most eps_tail on [0, 1].
    """

    coefficients: tuple[float, ...]
    eps_tail: float = 0.0

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coefficients, dtype=float)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise InvalidCoefficients("series needs a flat sequence with the constant term")
        if not np.all(np.isfinite(coeffs)):
            raise InvalidCoefficients("series coefficients must be finite")
        if np.any(coeffs < -1e-12):
            raise InvalidCoefficients(
                f"negative series coefficient {coeffs.min()} below tolerance")
        # Clamp float dust so downstream consumers see honest non-negative mass.
        clamped = np.maximum(coeffs, 0.0)
        total = float(np.sum(clamped))
        if total > 1.0 + 1e-12:
            raise InvalidCoefficients(f"series mass {total} exceeds 1")
        object.__setattr__(self, "coefficients", tuple(clamped.tolist()))
        if not (math.isfinite(self.eps_tail) and self.eps_tail >= 0.0):
            raise InvalidCoefficients(f"eps_tail must be >= 0, got {self.eps_tail}")

    @property
    def k_max(self) -> int:
        return len(self.coefficients) - 1

    def eval_extended(self, z):
        """Horner's rule in place on one array of z's shape (real or complex).

        Each order is ``out *= z; out += c_k``, the same operations numpy's
        ``polyval`` performs, so results match it bitwise for finite arrays,
        with no temporaries of z's size.
        """
        arr = np.asarray(z)
        coeffs = self.coefficients
        out = np.full(arr.shape, coeffs[-1], dtype=np.result_type(arr, float))
        for ck in coeffs[-2::-1]:
            out *= arr
            out += ck
        if arr.ndim == 0:
            return complex(out) if np.iscomplexobj(out) else float(out)
        return out


@dataclass(frozen=True)
class ComposedPgf(_PgfBase):
    """Composition of PGFs, innermost factor first; nested ones are flattened."""

    factors: tuple["Pgf", ...]

    def __post_init__(self) -> None:
        if len(self.factors) == 0:
            raise EmptySequence("composition needs at least one factor")
        object.__setattr__(self, "factors", tuple(
            g for f in self.factors
            for g in (f.factors if isinstance(f, ComposedPgf) else (f,))))

    def eval_extended(self, z):
        out = z
        for f in self.factors:
            out = f.eval_extended(out)
        return out


Pgf = Union[ThetaPgf, SeriesPgf, ComposedPgf]


def pgf_iterate_closed(f: ThetaPgf, n: int) -> ThetaPgf:
    """The n-fold self-composition of a theta PGF, again in theta form.

    Composition acts on parameters as a -> a**n with c accumulating the
    geometric sum c * (1 + a + ... + a**(n-1)) in MAIN_SUPER.  In the
    subcritical regimes it preserves the fixed point q, so the constructor
    derives c_n from (theta, a**n, q, r); the zero and minus-one branches
    also map a -> a**n.  Raises NumericalInstability when a_n or c_n leaves
    the float range (a_n underflowing to 0 included), before construction;
    the kernel operations still evaluate such depths.
    """
    if not isinstance(f, ThetaPgf):
        raise RegimeViolation("closed-form iteration needs a theta-form PGF")
    n = _order(n, "iteration depth", 1)
    if n == 1:
        return f
    log_an, b_n = _iterated(f, n)
    with np.errstate(over="ignore"):
        a_n = float(np.exp(log_an))
    c_n = b_n * a_n if f.regime is Regime.MAIN_SUPER else None
    if not (0.0 < a_n < math.inf and (c_n is None or math.isfinite(c_n))):
        raise NumericalInstability(
            f"iterated parameters leave the float range for a = {f.a}, n = {n}; "
            "use the kernel operations for deep or asymptotic values")
    return ThetaPgf(f.theta, a_n, c_n, f.q, f.r)


# ---------------------------------------------------------------------------
# Coefficients
# ---------------------------------------------------------------------------

def _binomial_series(e: float, r: float, k_max: int) -> np.ndarray:
    """Coefficients of (1 - s/r)**e up to order k_max."""
    ks = np.arange(1, k_max + 1, dtype=float)
    return np.cumprod(np.concatenate(([1.0], (ks - 1.0 - e) / (ks * r))))


def _power_series(A: np.ndarray, alpha: float, g0: float) -> np.ndarray:
    """Coefficients of A(s)**alpha (A[0] > 0) from the seed g0 = A[0]**alpha.

    J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, section 4.7), from
    g' * A = alpha * A' * g:

        k * A[0] * g[k] = sum_{j=1}^{k} ((alpha + 1) * j - k) * A[j] * g[k-j].

    g is stored reversed (g[k] at rev[n - 1 - k]), so each order's tail
    g[k-1], ..., g[0] is the contiguous slice rev[n - k:].  A reversed view
    of g in natural order has a negative stride, which np.dot copies before
    calling BLAS; the slice reaches the same ddot with the same values in
    the same order, so the bits do not change.
    """
    n = len(A)
    rev = np.empty_like(A)
    rev[n - 1] = g0
    jA = np.arange(n) * A
    for k in range(1, n):
        tail = rev[n - k:]
        rev[n - 1 - k] = ((alpha + 1.0) * np.dot(jA[1:k + 1], tail)
                          - k * np.dot(A[1:k + 1], tail)) / (k * A[0])
    return rev[::-1]


def theta_coefficients(f: ThetaPgf, k_max: int) -> np.ndarray:
    """Series coefficients p_0 .. p_{k_max} from the closed form.

    Every branch but theta = -1 is f = r - g.  In the theta = 0 form g is
    (r - q)**(1 - a) * r**a * (1 - s/r)**a, a binomial series.  In the main
    form g = A**(-1/theta) with A = a * r**(-theta) * (1 - s/r)**(-theta) + c,
    expanded by one power recurrence, which stays finite and accurate at
    every order (subcritical seeds g_0 come from ``_pinned_power``).  Tiny
    negative rounding residues are clamped to zero.
    """
    k_max = _order(k_max, "k_max", 0)
    if f.regime is Regime.MINUS_ONE:        # f = a * s + (1 - a) * q
        return np.array([(1.0 - f.a) * f.q, f.a] + [0.0] * (k_max - 1))[:k_max + 1]
    if f.regime.is_zero():
        g = (f.r - f.q) ** (1.0 - f.a) * f.r ** f.a * _binomial_series(f.a, f.r, k_max)
    else:
        A = f.a * f.r ** -f.theta * _binomial_series(-f.theta, f.r, k_max)
        A[0] += f.c
        g0 = (_pinned_power(f, math.log(f.a), 0.0)[0] if f.regime.is_sub()
              else A[0] ** (-1.0 / f.theta))
        g = _power_series(A, -1.0 / f.theta, g0)
    out = -g
    out[0] = f.r - g[0]
    return np.maximum(out, 0.0)


# ---------------------------------------------------------------------------
# Contour extraction oracle
# ---------------------------------------------------------------------------

def _extraction_radius(k_max: int) -> float:
    """Radius balancing aliasing against 1/radius**k round-off amplification.

    radius**(-k_max) stays below e**6, so double precision keeps absolute
    coefficient errors near 1e-13 even at k_max ~ 100; with 8 * k_max nodes
    the aliasing term radius**M is negligible.
    """
    return min(0.95, max(0.5, math.exp(-6.0 / max(k_max, 1))))


def series_coefficients(f: Pgf | Callable, k_max: int) -> np.ndarray:
    """Extract series coefficients by discrete contour integration.

    Evaluates f on a uniform grid of max(64, 8 * k_max) points on the circle
    |z| = radius, with the radius adapted to k_max, and reads the
    coefficients off the discrete Fourier transform.  This is the oracle
    used to cross-check the closed-form coefficient formulas, so it
    deliberately shares no code with them.

    Args:
        f: anything with an ``eval_extended`` accepting complex arrays, or a
            bare callable.
        k_max: highest coefficient index to return.

    Raises:
        NumericalInstability: if an extracted coefficient is below -1e-8,
            which signals that round-off, amplified by radius**(-k), swamps
            the coefficients at this order.
    """
    k_max = _order(k_max, "k_max", 0)
    radius = _extraction_radius(k_max)
    num_nodes = max(64, 8 * k_max)
    evaluate = getattr(f, "eval_extended", f)
    nodes = radius * np.exp(2j * np.pi * np.arange(num_nodes) / num_nodes)
    values = np.asarray(evaluate(nodes), dtype=complex)
    transform = np.fft.fft(values)[:k_max + 1] / num_nodes
    coeffs = transform.real / radius ** np.arange(k_max + 1)
    if np.min(coeffs) < -1e-8:
        raise NumericalInstability(
            f"extracted coefficient {coeffs.min():.3e} is significantly negative: "
            f"round-off swamps the contour integral at k_max = {k_max}; "
            "use a lower k_max")
    return np.maximum(coeffs, 0.0)


def theta_pgf_to_series(f: ThetaPgf, k_max: int = DEFAULT_SERIES_K) -> SeriesPgf:
    """Truncate a theta PGF to a SeriesPgf with an honest tail bound."""
    coeffs = theta_coefficients(f, k_max)
    eps_tail = max(0.0, f.mass() - float(np.sum(coeffs)))
    return SeriesPgf(coefficients=tuple(coeffs), eps_tail=eps_tail)
