"""Gaussian process regression with compositional kernels.

Standard conditioning on the unit sphere: training inputs are normalized
(the kernels only see correlations), the Gram matrix is factorized once with
a small escalating jitter ladder, and prediction is the usual posterior mean
and latent variance (the Cholesky route of Rasmussen & Williams, *Gaussian
Processes for Machine Learning*, 2006, Alg. 2.1).  Nothing here is
kernel-specific beyond calling into :mod:`thetakernels.kernels`, which is the
point: theta kernels drop into a stock GP pipeline with no recursive
evaluation at fit or predict time.

Both steps work in place, through LAPACK, on the matrices they build.  The
Gram is C-ordered and exactly symmetric, so its transpose is the same matrix
in Fortran order; ``fit`` factors that view, which overwrites only the
C-view's upper triangle.  After a failed attempt the untouched lower triangle
restores it; after a successful one that lower triangle is zeroed, leaving
the Fortran-ordered lower factor.  ``predict`` takes the means from the
cross-Gram, then overwrites it with the triangular solve for the variances.
Neither allocates a second matrix of its matrix's size.

The means are a row reduction of the cross-Gram against alpha
(``np.einsum``), not a BLAS matrix-vector product.  With a threaded OpenBLAS,
a large gemv slows the first level-3 call after it, here the triangular
solve or the next ``fit``'s Cholesky, by about half: on 2 vCPUs with
OpenBLAS 0.3.31 and 2 threads, a 2000 x 2000 solve took a median 93 ms
alone and 149 ms right after one.  The cause inside OpenBLAS is not traced.  The rest of both steps is LAPACK level-3 calls,
one-vector solves, small-inner-dimension products and non-BLAS reductions,
none of which showed that slowdown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (DimensionMismatch, FactorizationFailed, NumericalInstability, _instance,
                     _real, _reals)
from .kernels import KernelSpec, _as_points, cross_gram, gram, kernel_at_rho

__all__ = ["GpModel", "PredictResult", "JITTER_LADDER", "fit", "predict"]

#: Relative jitter levels; each is scaled by trace(K + noise I) / n.
JITTER_LADDER = (0.0, 1e-10, 1e-8, 1e-6)


@dataclass(frozen=True)
class GpModel:
    """Fitted GP: normalized inputs, factorized Gram, precomputed solves."""

    spec: KernelSpec
    inputs: np.ndarray          # unit-norm rows
    targets: np.ndarray
    noise: float
    chol_lower: np.ndarray      # Fortran-ordered lower factor of K + (noise + jitter) I
    alpha: np.ndarray           # (K + (noise + jitter) I)^{-1} targets
    jitter: float
    jitter_level: int           # index into JITTER_LADDER; 0 means none needed


class PredictResult(NamedTuple):
    means: np.ndarray
    variances: np.ndarray
    num_clamped: int


def _check_finite(matrix: np.ndarray, name: str) -> None:
    # A NaN or inf entry makes the sum non-finite, and the sum needs no
    # matrix-sized mask.  Kernel values lie in [-1, 1], so a finite matrix
    # has a finite sum.
    if not np.isfinite(matrix.sum()):
        raise NumericalInstability(f"the {name} has a non-finite entry")


def fit(spec: KernelSpec, X: Sequence[Sequence[float]], y: Sequence[float],
        noise: float = 0.0) -> GpModel:
    """Condition a zero-mean GP with the given kernel on (X, y).

    Inputs are normalized onto the unit sphere.  The Gram factorization
    retries up the jitter ladder; FactorizationFailed carries the final
    attempt's diagnostics.  A non-finite or non-real input, target or noise
    raises DomainError, a non-finite Gram entry NumericalInstability.
    """
    from scipy.linalg import LinAlgError, cho_factor, cho_solve   # deferred: import cost
    inputs = _as_points(X)
    targets = _reals(y, "targets").flatten()    # a copy: later writes to y stay out
    if targets.shape[0] != inputs.shape[0] or targets.shape[0] == 0:
        raise DimensionMismatch(
            f"need one target per input, got {inputs.shape[0]} inputs "
            f"and {targets.shape[0]} targets")
    noise = _real(noise, "noise variance >= 0", 0.0)
    kmat = gram(spec, inputs)
    _check_finite(kmat, "Gram")
    n = kmat.shape[0]
    scale = float(np.trace(kmat)) / n + noise
    diagonal = kmat.diagonal().copy()
    for level, relative in enumerate(JITTER_LADDER):
        jitter = relative * scale
        # kmat is this call's own array: shift its diagonal in place.
        np.fill_diagonal(kmat, diagonal + (noise + jitter))
        try:
            # kmat.T is kmat in Fortran order; LAPACK overwrites its lower
            # triangle, which is kmat's upper one, and reads no other entry.
            chol, _ = cho_factor(kmat.T, lower=True, overwrite_a=True,
                                 check_finite=False)
        except LinAlgError:
            for j in range(1, n):   # restore the upper triangle from the lower
                kmat[:j, j] = kmat[j, :j]
            continue
        for j in range(1, n):       # zero the stale lower triangle, row by row
            kmat[j, :j] = 0.0
        alpha = cho_solve((chol, True), targets, check_finite=False)
        return GpModel(spec=spec, inputs=inputs, targets=targets, noise=noise,
                       chol_lower=chol, alpha=alpha, jitter=jitter,
                       jitter_level=level)
    raise FactorizationFailed(
        f"Gram matrix ({n} x {n}) is not positive definite even with jitter "
        f"{JITTER_LADDER[-1] * scale}; targets may contain duplicate inputs "
        "with zero noise")


def predict(model: GpModel, Xstar: Sequence[Sequence[float]]) -> PredictResult:
    """Posterior mean and latent variance at query points.

    Variances are clamped at zero from below; the clamp count is reported so
    callers can tell rounding from structure.  The model must be a GpModel
    and queries are checked as the inputs of ``fit`` are (DomainError); a
    non-finite cross-Gram entry raises NumericalInstability.
    """
    from scipy.linalg import solve_triangular   # deferred: import cost
    _instance(model, GpModel, "a GpModel")
    stars = _reals(Xstar, "query points")
    if stars.shape == (0, model.inputs.shape[1]):
        return PredictResult(np.empty(0), np.empty(0), 0)
    kstar = cross_gram(model.spec, stars, model.inputs)
    _check_finite(kstar, "cross-Gram")
    # A row reduction, not a BLAS gemv, which would slow the solve below
    # (see the module docstring).
    means = np.einsum("ij,j->i", kstar, model.alpha)
    # kstar.T is Fortran-ordered and this call's own: solve in place.
    v = solve_triangular(model.chol_lower, kstar.T, lower=True, overwrite_b=True,
                         check_finite=False)
    prior = kernel_at_rho(model.spec, 1.0)
    variances = prior - np.einsum("ij,ij->j", v, v)
    clamped = int(np.sum(variances < 0.0))
    return PredictResult(means=means, variances=np.maximum(variances, 0.0),
                         num_clamped=clamped)
