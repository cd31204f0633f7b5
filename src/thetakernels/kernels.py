"""Compositional kernels on the sphere from iterated PGFs.

A PGF f with coefficients (p_k) defines a positive-definite kernel
K(x, z) = f(rho(x, z)) on unit vectors through the correlation
rho(x, z) = <x/|x|, z/|z|>.  Composing PGFs composes kernels, giving three
constructions:

    pure:     the n-fold self-composition of one theta PGF f,
    mixed:    f_n o ... o f_1 for distinct factors, which is the composed PGF
              itself (``MixedKernel`` is ``ComposedPgf``),
    c-mixed:  the mixed kernel over the critical one-parameter family
              f_k(s) = 1 - ((1 - s)**(-theta) + c_k)**(-1/theta).

Every pure kernel has a closed form obtained by iterating parameters instead
of composing evaluations; any other PGF f composes as ``MixedKernel((f,) * n)``.
c-mixed kernels collapse to a single closed form in sum(c_k); their depth ->
infinity limit takes the full sum (math.inf if it diverges).  Infinite-depth
limits and the spherical-harmonic eigensystem (eigenvalues surf(m) * p_k /
r(m, k) with multiplicities r(m, k)) complete the picture.

Values at rho = 1 are assigned analytically wherever the closed form passes
through (1 - rho)**(-theta): float evaluation at the singularity would
produce inf * 0 artifacts.  Kernel values can be negative for rho < 0 (any
factor with p_1 > p_0 does it), so no range clamping is applied to outputs.

Kernel values are computed in cache-sized blocks of correlations, and series
factors are summed by Horner's rule in place.  Gram matrices are built in row
tiles of about one block each (product, clip, evaluate, write), so they
allocate little beyond their result.  Every step is elementwise: outputs do
not depend on the block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    DimensionUnsupported,
    DomainError,
    EmptySequence,
    IndexOutOfRange,
    RegimeViolation,
    UnknownSumConvergence,
    ZeroVector,
    _finite,
    _order,
)
from .pgf import (
    ComposedPgf,
    Pgf,
    Regime,
    ThetaPgf,
    _iterate_eval,
    make_theta_pgf,
    pgf_iterate_closed,
    series_coefficients,
)

__all__ = [
    "PureKernel",
    "MixedKernel",
    "CMixedKernel",
    "KernelSpec",
    "Eigensystem",
    "correlation",
    "kernel_at_rho",
    "kernel_limit",
    "cmixed_pure_representation",
    "gram",
    "cross_gram",
    "spec_to_pgf",
    "surface_area",
    "multiplicity",
    "eigensystem",
]


# ---------------------------------------------------------------------------
# Kernel parameter records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PureKernel:
    """n-fold self-composition of a theta PGF; RegimeViolation for any other f."""

    f: ThetaPgf
    depth: int

    def __post_init__(self) -> None:
        if not isinstance(self.f, ThetaPgf):
            raise RegimeViolation("a pure kernel iterates a theta-form PGF; compose "
                                  "any other PGF f as MixedKernel((f,) * n)")
        object.__setattr__(self, "depth", _order(self.depth, "depth", 1, RegimeViolation))


#: A mixed kernel is the composition of its factors, innermost first.
MixedKernel = ComposedPgf


@dataclass(frozen=True)
class CMixedKernel:
    """Mixed kernel over the critical family indexed by c_1 .. c_n (floats)."""

    theta: float
    c_sequence: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (_finite(self.theta) and 0.0 < self.theta <= 1.0):
            raise RegimeViolation(f"c-mixed kernels need theta in (0, 1], got {self.theta!r}")
        if len(self.c_sequence) == 0:
            raise EmptySequence("c-mixed kernel needs at least one c value")
        if not all(_finite(c) and c > 0.0 for c in self.c_sequence):
            raise RegimeViolation(f"c-mixed kernels need all c > 0, got {self.c_sequence!r}")
        object.__setattr__(self, "theta", float(self.theta))
        object.__setattr__(self, "c_sequence", tuple(float(c) for c in self.c_sequence))

    @property
    def depth(self) -> int:
        return len(self.c_sequence)


KernelSpec = Union[PureKernel, MixedKernel, CMixedKernel]


# ---------------------------------------------------------------------------
# Correlation
# ---------------------------------------------------------------------------

def _unit(v: np.ndarray) -> np.ndarray:
    """A finite vector, or each row of a finite matrix, divided by its norm.

    A vector whose norm overflows to inf or underflows to 0 is first scaled by
    the power of two that brings its largest entry into [0.5, 1); every other
    vector is divided by its plain norm, so its bits do not depend on the
    rescue.  Raises ZeroVector for a vector of zeros.
    """
    axis = -1 if v.ndim > 1 else None
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(v, axis=axis, keepdims=True)
    bad = (norms == 0.0) | np.isinf(norms)
    if bad.any():
        _, exponent = np.frexp(np.max(np.abs(v), axis=-1, keepdims=True))
        v = np.where(bad, np.ldexp(v, -exponent), v)
        norms = np.linalg.norm(v, axis=axis, keepdims=True)
        if np.any(norms == 0.0):
            raise ZeroVector("a zero vector has no direction")
    return v / norms


def correlation(x: Sequence[float], z: Sequence[float]) -> float:
    """Inner product of unit-normalized vectors, clamped to [-1, 1].

    Raises DomainError on a NaN or infinite entry, which the clamp would
    otherwise turn into -1.
    """
    xv = np.asarray(x, dtype=float)
    zv = np.asarray(z, dtype=float)
    if xv.shape != zv.shape or xv.ndim != 1:
        raise DimensionMismatch(
            f"correlation needs two vectors of equal length, got {xv.shape} and {zv.shape}")
    if not (np.isfinite(xv).all() and np.isfinite(zv).all()):
        raise DomainError(f"correlation needs finite vectors, got {xv} and {zv}")
    ux, uz = _unit(xv), _unit(zv)
    if np.array_equal(xv, zv):
        return 1.0
    rho = float(np.dot(ux, uz))
    return min(1.0, max(-1.0, rho))


# ---------------------------------------------------------------------------
# Kernel values
# ---------------------------------------------------------------------------

def _as_rho_array(rho) -> tuple[np.ndarray, bool]:
    arr = np.asarray(rho, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if not (np.all(arr >= -1.0) and np.all(arr <= 1.0)):
        raise DomainError(f"correlation must lie in [-1, 1], got {rho!r}")
    return arr, scalar


def _kernel_evaluator(spec: KernelSpec):
    """The kernel as a function of the correlation, without the range check.

    The returned function accepts real or complex z, so the eigensystem
    reads its coefficients off the same values.  Pure kernels evaluate the
    n-fold closed form directly, which holds at depths whose iterated
    parameters leave the float range; every other spec evaluates
    ``spec_to_pgf``.
    """
    if isinstance(spec, PureKernel):
        f, depth = spec.f, spec.depth
        return lambda z: _iterate_eval(f, depth, z)
    return spec_to_pgf(spec).eval_extended


#: Correlations evaluated per block: 256 KB of float64, so the temporaries of
#: a whole factor chain stay in a core's L2 cache.
_BLOCK = 2 ** 15


def kernel_at_rho(spec: KernelSpec, rho):
    """Kernel value as a function of the correlation (scalar or array);
    DomainError for a correlation outside [-1, 1] or NaN."""
    arr, scalar = _as_rho_array(rho)
    evaluate = _kernel_evaluator(spec)
    flat = arr.reshape(-1)
    out = np.empty(flat.shape)
    for start in range(0, flat.size, _BLOCK):
        out[start:start + _BLOCK] = evaluate(flat[start:start + _BLOCK])
    return float(out[0]) if scalar else out.reshape(arr.shape)


def cmixed_pure_representation(theta: float, c_sequence: Sequence[float],
                               k: int) -> ThetaPgf:
    """The critical PGF g_k whose k-fold iterate equals the depth-k c-mixed kernel.

    g_k is the a = 1 theta PGF with c replaced by the running average
    (c_1 + ... + c_k) / k.
    """
    spec = CMixedKernel(theta, tuple(c_sequence))   # validates theta and c
    k = _order(k, "k", 1, IndexOutOfRange)
    if k > len(spec.c_sequence):
        raise IndexOutOfRange(
            f"k must lie in 1 .. {len(spec.c_sequence)}, got {k!r}")
    c_bar = math.fsum(spec.c_sequence[:k]) / k
    return make_theta_pgf(theta=theta, a=1.0, c=c_bar)


# ---------------------------------------------------------------------------
# Infinite-depth limits
# ---------------------------------------------------------------------------

def kernel_limit(spec: KernelSpec, rho, c_sum: float | None = None):
    """Depth -> infinity limit of a pure or c-mixed kernel at given correlation.

    Pure kernels: supercritical and critical (r = 1, a >= 1) tend to 1
    everywhere; the subcritical r = 1 branches with theta >= 0 tend to q off
    the diagonal and keep 1 at rho = 1; every other regime tends to q at all
    correlations (these PGFs are defective, so even K_n(1) drains to q).

    c-mixed: the closed form with c = c_sum, the sum of all c_k (else
    UnknownSumConvergence); c_sum = math.inf, a divergent sum, gives its
    c -> inf value 1 everywhere.  Other specs refuse a c_sum (DomainError).
    """
    arr, scalar = _as_rho_array(rho)
    if isinstance(spec, CMixedKernel):
        if c_sum is None:
            raise UnknownSumConvergence(
                "c-mixed limit needs c_sum, the sum of all c_k (math.inf if it diverges)")
        if c_sum == math.inf:
            out = np.ones_like(arr)
        elif _finite(c_sum) and c_sum >= math.fsum(spec.c_sequence) - 1e-12:
            out = make_theta_pgf(theta=spec.theta, a=1.0, c=c_sum).eval_extended(arr)
        else:
            raise RegimeViolation(
                f"c_sum = {c_sum!r} is not a valid total for the given prefix")
    elif c_sum is not None:
        raise DomainError(f"c_sum applies to c-mixed kernels only, got c_sum = {c_sum!r}")
    elif isinstance(spec, PureKernel):
        f = spec.f
        if f.regime is Regime.MAIN_SUPER:
            out = np.ones_like(arr)
        elif f.regime is Regime.ZERO_1 or (f.regime is Regime.MAIN_SUB_1 and f.theta > 0.0):
            out = np.where(arr >= 1.0, 1.0, f.q)
        else:
            out = np.full_like(arr, f.q)
    else:
        raise RegimeViolation("infinite-depth limits exist for pure and c-mixed kernels only")
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Gram matrices
# ---------------------------------------------------------------------------

def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise DimensionMismatch(
            f"points must form a non-empty 2-d array, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise DomainError("kernel inputs must be finite")
    return _unit(pts)


def _kernel_matrix(spec: KernelSpec, ua: np.ndarray, ub: np.ndarray,
                   symmetric: bool) -> np.ndarray:
    """Kernel matrix of unit rows ua against unit rows ub, in row tiles.

    Each tile of about ``_BLOCK`` correlations is multiplied, clipped and
    evaluated on its own, so nothing of the matrix's size exists but the
    result.  With ``symmetric`` (ub is ua) a tile starts at its own
    diagonal, which is set to correlation 1, and every entry below the
    diagonal is copied from its mirror entry.
    """
    evaluate = _kernel_evaluator(spec)
    n, m = ua.shape[0], ub.shape[0]
    out = np.empty((n, m))
    rows = max(1, _BLOCK // m)
    for i in range(0, n, rows):
        j = i if symmetric else 0
        rho = ua[i:i + rows] @ ub[j:].T
        np.clip(rho, -1.0, 1.0, out=rho)
        if symmetric:
            np.fill_diagonal(rho, 1.0)
        out[i:i + rows, j:] = evaluate(rho)
        if symmetric:
            r = rho.shape[0]
            out[i:i + r, :i] = out[:i, i:i + r].T
            square = out[i:i + r, i:i + r]
            np.copyto(square, square.T, where=np.tri(r, k=-1, dtype=bool))
    return out


def gram(spec: KernelSpec, points) -> np.ndarray:
    """Symmetric kernel matrix over a list of input vectors.

    Only the upper triangle is evaluated, tile by tile; each entry below the
    diagonal is a copy of its mirror, so symmetry is exact by construction.
    Beyond the n x n result it allocates about ``_BLOCK`` correlations.
    """
    unit = _as_points(points)
    return _kernel_matrix(spec, unit, unit, symmetric=True)


def cross_gram(spec: KernelSpec, points_a, points_b) -> np.ndarray:
    """Kernel matrix between two point sets (rows of a against rows of b)."""
    ua = _as_points(points_a)
    ub = _as_points(points_b)
    if ua.shape[1] != ub.shape[1]:
        raise DimensionMismatch(
            f"point sets live in different dimensions: {ua.shape[1]} vs {ub.shape[1]}")
    return _kernel_matrix(spec, ua, ub, symmetric=False)


# ---------------------------------------------------------------------------
# Eigensystem on the sphere
# ---------------------------------------------------------------------------

def spec_to_pgf(spec: KernelSpec) -> Pgf:
    """The single PGF whose evaluation at rho equals the kernel.

    Pure kernels iterate in closed form; c-mixed kernels collapse to the
    critical PGF with c = sum c_k; a mixed kernel already is its composition.
    """
    if isinstance(spec, PureKernel):
        return pgf_iterate_closed(spec.f, spec.depth)
    if isinstance(spec, MixedKernel):
        return spec
    if isinstance(spec, CMixedKernel):
        return make_theta_pgf(theta=spec.theta, a=1.0,
                              c=math.fsum(spec.c_sequence))
    raise TypeError(f"not a kernel spec: {spec!r}")


def surface_area(m: int) -> float:
    """Surface area of the unit sphere in R^m, 2 pi^(m/2) / Gamma(m/2)."""
    m = _order(m, "dimension", 1, DimensionUnsupported)
    return 2.0 * math.pi ** (m / 2.0) / math.gamma(m / 2.0)


def multiplicity(m: int, k: int) -> int:
    """Number of degree-k spherical harmonics in R^m, exact integer.

    ((2k + m - 2) / k) * binom(k + m - 3, k - 1) for k >= 1, and 1 for k = 0
    (the constant harmonic; the printed formula has k in a denominator).
    Needs m >= 3; the binomial degenerates at m = 2, not supported.
    """
    return _multiplicity(_order(m, "dimension m", 3, DimensionUnsupported),
                         _order(k, "degree", 0))


def _multiplicity(m: int, k: int) -> int:
    """``multiplicity`` for an int m >= 3 and an int k >= 0, unchecked."""
    if k == 0:
        return 1
    numerator = (2 * k + m - 2) * math.comb(k + m - 3, k - 1)
    return numerator // k


@dataclass(frozen=True)
class Eigensystem:
    """Spherical-harmonic eigenvalues of a compositional kernel in R^m.

    lambdas[k] = surf(m) * p_k / r(m, k) with multiplicity r(m, k); the sum
    rule sum_k lambdas[k] * r(m, k) = surf(m) * sum_k p_k is then an
    identity, which tests exploit against independently extracted p_k.
    """

    dimension: int
    lambdas: tuple[float, ...]
    multiplicities: tuple[int, ...]

    def records(self) -> list[dict]:
        return [{"k": k, "lambda": self.lambdas[k], "multiplicity": self.multiplicities[k]}
                for k in range(len(self.lambdas))]


def eigensystem(spec: KernelSpec, m: int, k_max: int) -> Eigensystem:
    """Eigensystem of the kernel on the unit sphere in R^m up to degree k_max.

    The composed kernel's coefficients p_k come from the contour-extraction
    oracle (not the per-factor formulas) applied to the values
    ``kernel_at_rho`` computes, so eigensystems stay available for series
    and mixed specs with no closed form, and at every depth.
    """
    k_max = _order(k_max, "k_max", 0)
    m = _order(m, "dimension m", 3, DimensionUnsupported)
    mults = [_multiplicity(m, k) for k in range(k_max + 1)]
    p = series_coefficients(_kernel_evaluator(spec), k_max)
    surf = surface_area(m)
    lambdas = [surf * float(pk) / mult for pk, mult in zip(p, mults)]
    return Eigensystem(dimension=m, lambdas=tuple(lambdas),
                       multiplicities=tuple(mults))
