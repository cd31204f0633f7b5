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

In the two subcritical main regimes c is not free: c = (1 - a) * (r - q)**(-theta),
which pins the fixed point f(q) = q.  Constructors accept either q or c there
and derive the other.

Besides closed-form evaluation and iteration the module provides the series
side of the picture: explicit coefficient formulas per branch (with the
triangular b-table recursion for the main branch) and an independent
coefficient oracle based on contour integration of the evaluated PGF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence, Union

import numpy as np

from .errors import (
    DerivedCMismatch,
    DomainError,
    EmptySequence,
    InvalidCoefficients,
    NumericalInstability,
    RegimeViolation,
)

__all__ = [
    "Regime",
    "ThetaParams",
    "ThetaPgf",
    "SeriesPgf",
    "ComposedPgf",
    "Pgf",
    "BTable",
    "make_theta_pgf",
    "derived_c",
    "pgf_iterate_closed",
    "pgf_compose_sequence",
    "b_table",
    "theta_coefficients",
    "series_coefficients",
    "theta_pgf_to_series",
]

#: Tolerance for a caller-supplied c against the derived value in sub regimes.
DERIVED_C_TOL = 1e-12

#: Below this |theta| the main closed form switches to the theta = 0 form to
#: avoid the catastrophic (.)**(-1/theta) exponent.  Only reachable in the
#: subcritical regimes, where (a, q, r) determine the theta = 0 limit.
THETA_ZERO_SWITCH = 1e-8

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


@dataclass(frozen=True)
class ThetaParams:
    """Validated parameter tuple for a theta PGF.

    Fields not used by the regime are required to be None (q in MAIN_SUPER,
    c outside the main regimes), so a params object never carries silently
    ignored numbers.
    """

    theta: float
    a: float
    c: float | None
    q: float | None
    r: float
    regime: Regime

    def __post_init__(self) -> None:
        for name in ("theta", "a", "r"):
            value = getattr(self, name)
            _check(isinstance(value, (int, float)) and math.isfinite(value),
                   f"{name} must be a finite number, got {value!r}")
        for name in ("c", "q"):
            value = getattr(self, name)
            _check(value is None or (isinstance(value, (int, float)) and math.isfinite(value)),
                   f"{name} must be None or a finite number, got {value!r}")
        regime = self.regime
        theta, a, c, q, r = self.theta, self.a, self.c, self.q, self.r
        if regime is Regime.MAIN_SUPER:
            _check(0.0 < theta <= 1.0, f"MAIN_SUPER needs theta in (0, 1], got {theta}")
            _check(a >= 1.0, f"MAIN_SUPER needs a >= 1, got {a}")
            _check(c is not None and c > 0.0, f"MAIN_SUPER needs c > 0, got {c}")
            _check(r == 1.0, f"MAIN_SUPER needs r = 1, got {r}")
            _check(q is None, "MAIN_SUPER has no q parameter")
        elif regime in (Regime.MAIN_SUB_1, Regime.MAIN_SUB_R):
            _check(-1.0 < theta <= 1.0 and theta != 0.0,
                   f"subcritical main regimes need theta in (-1, 0) u (0, 1], got {theta}")
            _check(0.0 < a < 1.0, f"subcritical main regimes need a in (0, 1), got {a}")
            _check(q is not None, "subcritical main regimes need q")
            if regime is Regime.MAIN_SUB_1:
                _check(r == 1.0, f"MAIN_SUB_1 needs r = 1, got {r}")
                _check(0.0 <= q < 1.0, f"MAIN_SUB_1 needs q in [0, 1), got {q}")
            else:
                _check(r > 1.0, f"MAIN_SUB_R needs r > 1, got {r}")
                _check(0.0 <= q <= 1.0, f"MAIN_SUB_R needs q in [0, 1], got {q}")
            _check(c is not None, "subcritical main regimes need c (derived from q)")
            expected = derived_c(theta, a, q, r)
            if not abs(c - expected) <= DERIVED_C_TOL * max(1.0, abs(expected)):
                raise DerivedCMismatch(
                    f"c = {c} disagrees with derived value {expected} for "
                    f"(theta={theta}, a={a}, q={q}, r={r})")
        elif regime in (Regime.ZERO_1, Regime.ZERO_R):
            _check(theta == 0.0, f"zero regimes need theta = 0, got {theta}")
            _check(0.0 < a < 1.0, f"zero regimes need a in (0, 1), got {a}")
            _check(q is not None, "zero regimes need q")
            if regime is Regime.ZERO_1:
                _check(r == 1.0, f"ZERO_1 needs r = 1, got {r}")
                _check(0.0 <= q < 1.0, f"ZERO_1 needs q in [0, 1), got {q}")
            else:
                _check(r > 1.0, f"ZERO_R needs r > 1, got {r}")
                _check(0.0 <= q <= 1.0, f"ZERO_R needs q in [0, 1], got {q}")
            _check(c is None, "zero regimes have no c parameter")
        elif regime is Regime.MINUS_ONE:
            _check(theta == -1.0, f"MINUS_ONE needs theta = -1, got {theta}")
            _check(0.0 < a < 1.0, f"MINUS_ONE needs a in (0, 1), got {a}")
            _check(q is not None and 0.0 <= q <= 1.0,
                   f"MINUS_ONE needs q in [0, 1], got {q}")
            _check(r == 1.0, f"MINUS_ONE needs r = 1, got {r}")
            _check(c is None, "MINUS_ONE has no c parameter")
        else:  # pragma: no cover - enum is exhaustive
            raise RegimeViolation(f"unknown regime {regime!r}")


def _infer_regime(theta: float, a: float, c: float | None, q: float | None,
                  r: float) -> Regime:
    if theta == -1.0:
        return Regime.MINUS_ONE
    if theta == 0.0:
        return Regime.ZERO_1 if r == 1.0 else Regime.ZERO_R
    if -1.0 < theta <= 1.0:
        if 0.0 < theta and a >= 1.0:
            return Regime.MAIN_SUPER
        if 0.0 < a < 1.0:
            return Regime.MAIN_SUB_1 if r == 1.0 else Regime.MAIN_SUB_R
    raise RegimeViolation(
        f"no admissible regime for (theta={theta}, a={a}, c={c}, q={q}, r={r})")


def make_theta_pgf(theta: float, a: float, c: float | None = None,
                   q: float | None = None, r: float = 1.0,
                   regime: Regime | str | None = None) -> "ThetaPgf":
    """Build a validated theta PGF.

    The regime is inferred from the parameters unless given explicitly.  In
    the subcritical main regimes either q or c may be supplied; the other is
    derived.  Supplying both raises :class:`DerivedCMismatch` when they
    disagree beyond ``DERIVED_C_TOL``.
    """
    if regime is not None:
        regime = Regime(regime)
    else:
        regime = _infer_regime(theta, a, c, q, r)

    if regime in (Regime.MAIN_SUB_1, Regime.MAIN_SUB_R):
        if q is None and c is None:
            raise RegimeViolation("subcritical main regimes need q or c")
        if q is None:
            # Invert c = (1 - a) * (r - q)**(-theta) for q.
            _check(c > 0.0 and a < 1.0, f"cannot derive q from c = {c} with a = {a}")
            q = r - (c / (1.0 - a)) ** (-1.0 / theta)
            if abs(q) <= 1e-15:
                q = 0.0
        if c is None:
            c = derived_c(theta, a, q, r)
    return ThetaPgf(ThetaParams(theta=float(theta), a=float(a),
                                c=None if c is None else float(c),
                                q=None if q is None else float(q),
                                r=float(r), regime=regime))


# ---------------------------------------------------------------------------
# Evaluation and closed-form iteration
# ---------------------------------------------------------------------------

def _iterated(p: ThetaParams, n: int) -> tuple[float, float]:
    """Parameters of the n-fold iterate in log form: (log a_n, b_n).

    In the main branch composition acts on (r - s)**(-theta) affinely,

        (r - f_n(s))**(-theta) = a_n * (r - s)**(-theta) + c_n,

    with a_n = a**n and c_n = c * (a**n - 1) / (a - 1), or n * c at a = 1.
    b_n is c_n / max(a_n, 1), finite at every depth: for a > 1 the factor
    a_n is pulled out of the bracket.  In the subcritical regimes c is
    pinned by q, c_n = (1 - a_n) * (r - q)**(-theta), and a_n may underflow
    to 0, where the expression lands on its limit.  The zero and minus-one
    branches only map a -> a**n, and their b_n is 0.
    """
    log_an = n * math.log(p.a)
    if p.c is None:
        return log_an, 0.0
    if p.regime.is_sub():
        return log_an, -math.expm1(log_an) * (p.r - p.q) ** (-p.theta)
    if log_an == 0.0:
        return 0.0, n * p.c
    return log_an, p.c * -math.expm1(-log_an) / (p.a - 1.0)


def _iterate_eval(p: ThetaParams, n: int, z):
    """The n-fold iterate f_n at z (real or complex, scalar or array).

    No domain checking: kernels evaluate at correlations in [-1, 1] and the
    contour oracle on circles |z| < 1.  Where the main closed form passes
    through (1 - z)**(-theta) (theta > 0, r = 1) real z = 1 is assigned the
    analytic value 1, since float evaluation there can produce inf * 0.
    """
    arr = np.asarray(z)
    theta, q, r = p.theta, p.q, p.r
    log_an, b_n = _iterated(p, n)
    a_n = math.exp(min(log_an, 0.0))    # 1 for a > 1, where a_n is pulled out
    if p.regime is Regime.MINUS_ONE:
        out = a_n * arr + (1.0 - a_n) * q
    elif p.regime.is_zero() or (p.regime.is_sub() and abs(theta) < THETA_ZERO_SWITCH):
        out = r - (r - q) ** (1.0 - a_n) * np.power(r - arr, a_n)
    else:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            bracket = a_n * np.power(r - arr, -theta) + b_n
            out = r - math.exp(-max(log_an, 0.0) / theta) * np.power(bracket, -1.0 / theta)
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
    """A theta PGF in closed form."""

    params: ThetaParams

    def eval_extended(self, z):
        """Evaluate the closed form without domain checks.

        Valid for real z in [-1, 1] (kernel correlations) and complex z with
        |z| < 1 (contour extraction); PGFs map both regions into themselves.
        """
        return _iterate_eval(self.params, 1, z)


@dataclass(frozen=True)
class SeriesPgf(_PgfBase):
    """A truncated power series PGF with an explicit tail bound.

    ``eps_tail`` records the mass beyond the truncation: the represented
    function underestimates the true one by at most eps_tail on [0, 1].
    """

    coefficients: tuple[float, ...]
    eps_tail: float = 0.0

    def __post_init__(self) -> None:
        if len(self.coefficients) == 0:
            raise InvalidCoefficients("series needs at least the constant term")
        coeffs = np.asarray(self.coefficients, dtype=float)
        if not np.all(np.isfinite(coeffs)):
            raise InvalidCoefficients("series coefficients must be finite")
        if np.any(coeffs < -1e-12):
            raise InvalidCoefficients(
                f"negative series coefficient {coeffs.min()} below tolerance")
        total = float(np.sum(np.maximum(coeffs, 0.0)))
        if total > 1.0 + 1e-12:
            raise InvalidCoefficients(f"series mass {total} exceeds 1")
        # Clamp float dust so downstream consumers see honest non-negative mass.
        object.__setattr__(self, "coefficients",
                           tuple(float(v) for v in np.maximum(coeffs, 0.0)))
        if not (math.isfinite(self.eps_tail) and self.eps_tail >= 0.0):
            raise InvalidCoefficients(f"eps_tail must be >= 0, got {self.eps_tail}")

    @property
    def k_max(self) -> int:
        return len(self.coefficients) - 1

    def eval_extended(self, z):
        arr = np.asarray(z)
        out = np.polynomial.polynomial.polyval(arr, np.asarray(self.coefficients))
        if arr.ndim == 0:
            return complex(out) if np.iscomplexobj(out) else float(out)
        return out


@dataclass(frozen=True)
class ComposedPgf(_PgfBase):
    """Composition of PGFs, innermost factor first."""

    factors: tuple["Pgf", ...]

    def __post_init__(self) -> None:
        if len(self.factors) == 0:
            raise EmptySequence("composition needs at least one factor")

    def eval_extended(self, z):
        out = z
        for f in self.factors:
            out = f.eval_extended(out)
        return out


Pgf = Union[ThetaPgf, SeriesPgf, ComposedPgf]


def pgf_compose_sequence(fs: Sequence[Pgf]) -> ComposedPgf:
    """Compose a sequence of PGFs, first entry applied first (innermost)."""
    fs = tuple(fs)
    if not fs:
        raise EmptySequence("cannot compose an empty sequence of PGFs")
    flat: list[Pgf] = []
    for f in fs:
        flat.extend(f.factors if isinstance(f, ComposedPgf) else (f,))
    return ComposedPgf(tuple(flat))


def pgf_iterate_closed(f: ThetaPgf, n: int) -> ThetaPgf:
    """The n-fold self-composition of a theta PGF, again in theta form.

    Composition acts on parameters as a -> a**n with c accumulating the
    geometric sum c * (1 + a + ... + a**(n-1)) in the main branch; in the
    subcritical regimes this preserves the derived-c relation, so only a
    changes.  The zero and minus-one branches also map a -> a**n.  Raises
    NumericalInstability when the iterated parameters leave the float range;
    the kernel operations still evaluate such depths.
    """
    if not isinstance(f, ThetaPgf):
        raise TypeError("closed-form iteration needs a theta-form PGF")
    if not (isinstance(n, int) and n >= 1):
        raise ValueError(f"iteration depth must be an integer >= 1, got {n!r}")
    if n == 1:
        return f
    p = f.params
    log_an, b_n = _iterated(p, n)
    with np.errstate(over="ignore"):
        a_n = float(np.exp(log_an))
    c_n = b_n * max(a_n, 1.0)
    if not (0.0 < a_n < math.inf and math.isfinite(c_n)):
        raise NumericalInstability(
            f"iterated parameters leave the float range for a = {p.a}, n = {n}; "
            "use the kernel operations for deep or asymptotic values")
    if p.regime.is_sub():       # exactly the value ThetaParams checks c against
        c_n = derived_c(p.theta, a_n, p.q, p.r)
    return ThetaPgf(ThetaParams(p.theta, a_n, None if p.c is None else c_n,
                                p.q, p.r, p.regime))


# ---------------------------------------------------------------------------
# Coefficients
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class BTable:
    """Triangular table b[i, k] from the main-branch coefficient recursion.

    b[0, k] = b[k, k] = 0, b[1, 2] = 1 + theta, and

        b[i, k] = (k - 2 - i*theta) * b[i, k-1] + (1 + i*theta) * b[i-1, k-1].

    For theta in [0, 1] every entry is non-negative.  For theta < 0 the
    corner entries b[k-1, k] = prod_{i<k} (1 + i*theta) oscillate in sign
    once k - 1 > 1/|theta|; the series coefficients assembled from the table
    remain non-negative.
    """

    theta: float
    k_max: int
    entries: np.ndarray

    def value(self, i: int, k: int) -> float:
        if not (0 <= i <= k <= self.k_max):
            raise ValueError(f"b-table index (i={i}, k={k}) outside triangle")
        return float(self.entries[i, k])


def b_table(theta: float, k_max: int) -> BTable:
    """Fill the b-table up to order k_max (k_max >= 2)."""
    if not -1.0 < theta <= 1.0:
        raise ValueError(f"b-table is defined for theta in (-1, 1], got {theta}")
    if not (isinstance(k_max, int) and k_max >= 2):
        raise ValueError(f"k_max must be an integer >= 2, got {k_max!r}")
    b = np.zeros((k_max + 1, k_max + 1))
    b[1, 2] = 1.0 + theta
    i = np.arange(k_max + 1, dtype=float)
    for k in range(3, k_max + 1):
        rows = slice(1, k)
        b[rows, k] = ((k - 2.0 - i[rows] * theta) * b[rows, k - 1]
                      + (1.0 + i[rows] * theta) * b[0:k - 1, k - 1])
    return BTable(theta=theta, k_max=k_max, entries=b)


def _main_coefficients(p: ThetaParams, k_max: int) -> np.ndarray:
    theta, a, c, r = p.theta, p.a, p.c, p.r
    out = np.zeros(k_max + 1)
    out[0] = r - (a * r ** (-theta) + c) ** (-1.0 / theta)
    if k_max == 0:
        return out
    g = a + c * r ** theta          # (r - s)**(-theta) pulled out at s = 0
    out[1] = a * g ** (-1.0 - 1.0 / theta)
    if k_max == 1:
        return out
    table = b_table(theta, k_max).entries
    x = c * r ** theta / g          # in (0, 1)
    prefac = a / g ** ((1.0 + theta) / theta)
    x_pow = np.cumprod(np.full(k_max, x))  # x**1 .. x**k_max
    fact = 1.0
    for k in range(2, k_max + 1):
        fact *= k
        inner = float(np.dot(x_pow[:k - 1], table[1:k, k]))
        out[k] = prefac * r ** (1.0 - k) / fact * inner
    return out


def _zero_coefficients(p: ThetaParams, k_max: int) -> np.ndarray:
    a, q, r = p.a, p.q, p.r
    out = np.zeros(k_max + 1)
    base = (r - q) ** (1.0 - a)
    out[0] = r - base * r ** a
    if k_max == 0:
        return out
    out[1] = base * a * r ** (a - 1.0)
    if k_max == 1:
        return out
    # p_k = a * r**a * base * r**(-k) * prod_{i=2}^{k} (1 - (1 + a) / i)
    ks = np.arange(2, k_max + 1, dtype=float)
    prods = np.cumprod(1.0 - (1.0 + a) / ks)
    out[2:] = a * r ** a * base * r ** (-ks) * prods
    return out


def theta_coefficients(params: ThetaParams | ThetaPgf, k_max: int) -> np.ndarray:
    """Series coefficients p_0 .. p_{k_max} from the closed-form formulas.

    Tiny negative rounding residues are clamped to zero; the formulas are
    exact otherwise.  For |theta| below ``THETA_ZERO_SWITCH`` in the
    subcritical regimes the theta = 0 formulas are used.
    """
    p = params.params if isinstance(params, ThetaPgf) else params
    if not (isinstance(k_max, int) and k_max >= 0):
        raise ValueError(f"k_max must be an integer >= 0, got {k_max!r}")
    if p.regime is Regime.MINUS_ONE:
        out = np.zeros(k_max + 1)
        out[0] = (1.0 - p.a) * p.q
        if k_max >= 1:
            out[1] = p.a
    elif p.regime.is_zero() or (p.regime.is_sub() and abs(p.theta) < THETA_ZERO_SWITCH):
        out = _zero_coefficients(p, k_max)
    else:
        out = _main_coefficients(p, k_max)
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


def series_coefficients(f: Pgf | Callable, k_max: int,
                        radius: float | None = None,
                        num_nodes: int | None = None) -> np.ndarray:
    """Extract series coefficients by discrete contour integration.

    Evaluates f on a uniform grid of ``num_nodes`` points on the circle
    |z| = radius and reads the coefficients off the discrete Fourier
    transform.  This is the oracle used to cross-check the closed-form
    coefficient formulas, so it deliberately shares no code with them.

    Args:
        f: anything with an ``eval_extended`` accepting complex arrays, or a
            bare callable.
        k_max: highest coefficient index to return.
        radius: contour radius in (0, 1); default adapts to k_max.
        num_nodes: grid size; default 8 * k_max (at least 64).

    Raises:
        NumericalInstability: if an extracted coefficient is below -1e-8,
            which signals a misconfigured radius or node count.
    """
    if not (isinstance(k_max, int) and k_max >= 0):
        raise ValueError(f"k_max must be an integer >= 0, got {k_max!r}")
    if radius is None:
        radius = _extraction_radius(k_max)
    if not 0.0 < radius < 1.0:
        raise ValueError(f"contour radius must lie in (0, 1), got {radius}")
    if num_nodes is None:
        num_nodes = max(64, 8 * k_max)
    if num_nodes < max(1, 4 * k_max):
        raise ValueError(f"need at least {max(1, 4 * k_max)} nodes, got {num_nodes}")
    evaluate = getattr(f, "eval_extended", f)
    nodes = radius * np.exp(2j * np.pi * np.arange(num_nodes) / num_nodes)
    values = np.asarray(evaluate(nodes), dtype=complex)
    transform = np.fft.fft(values)[:k_max + 1] / num_nodes
    coeffs = transform.real / radius ** np.arange(k_max + 1)
    if np.min(coeffs) < -1e-8:
        raise NumericalInstability(
            f"extracted coefficient {coeffs.min():.3e} is significantly negative; "
            "check the contour radius and node count")
    return np.maximum(coeffs, 0.0)


def theta_pgf_to_series(f: ThetaPgf, k_max: int = DEFAULT_SERIES_K) -> SeriesPgf:
    """Truncate a theta PGF to a SeriesPgf with an honest tail bound."""
    coeffs = theta_coefficients(f.params, k_max)
    eps_tail = max(0.0, f.mass() - float(np.sum(coeffs)))
    return SeriesPgf(coefficients=tuple(coeffs), eps_tail=eps_tail)
