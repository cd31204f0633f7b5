"""Gaussian process regression with compositional kernels.

Standard conditioning on the unit sphere: training inputs are normalized
(the kernels only see correlations), the Gram matrix is factorized once with
a small escalating jitter ladder, and prediction is the usual posterior mean
and latent variance.  Nothing here is kernel-specific beyond calling into
:mod:`thetakernels.kernels`, which is the point: theta kernels drop into a
stock GP pipeline with no recursive evaluation at fit or predict time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatch, DomainError, FactorizationFailed
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
    chol_lower: np.ndarray
    alpha: np.ndarray           # (K + (noise + jitter) I)^{-1} targets
    jitter: float
    jitter_level: int           # index into JITTER_LADDER; 0 means none needed


class PredictResult(NamedTuple):
    means: np.ndarray
    variances: np.ndarray
    num_clamped: int


def fit(spec: KernelSpec, X: Sequence[Sequence[float]], y: Sequence[float],
        noise: float = 0.0) -> GpModel:
    """Condition a zero-mean GP with the given kernel on (X, y).

    Inputs are normalized onto the unit sphere.  The Gram factorization
    retries up the jitter ladder; FactorizationFailed carries the final
    attempt's diagnostics.
    """
    from scipy.linalg import solve_triangular   # deferred: import cost
    inputs = _as_points(X)
    targets = np.asarray(y, dtype=float).ravel()
    if targets.shape[0] != inputs.shape[0] or targets.shape[0] == 0:
        raise DimensionMismatch(
            f"need one target per input, got {inputs.shape[0]} inputs "
            f"and {targets.shape[0]} targets")
    if not noise >= 0.0:
        raise DomainError(f"noise variance must be >= 0, got {noise}")
    kmat = gram(spec, inputs)
    n = kmat.shape[0]
    scale = float(np.trace(kmat)) / n + noise
    diagonal = kmat.diagonal().copy()
    for level, relative in enumerate(JITTER_LADDER):
        jitter = relative * scale
        # kmat is this call's own array: shift its diagonal in place.
        np.fill_diagonal(kmat, diagonal + (noise + jitter))
        try:
            chol = np.linalg.cholesky(kmat)
        except np.linalg.LinAlgError:
            continue
        alpha = solve_triangular(
            chol.T, solve_triangular(chol, targets, lower=True), lower=False)
        return GpModel(spec=spec, inputs=inputs, targets=targets, noise=float(noise),
                       chol_lower=chol, alpha=alpha, jitter=jitter,
                       jitter_level=level)
    raise FactorizationFailed(
        f"Gram matrix ({n} x {n}) is not positive definite even with jitter "
        f"{JITTER_LADDER[-1] * scale}; targets may contain duplicate inputs "
        "with zero noise")


def predict(model: GpModel, Xstar: Sequence[Sequence[float]]) -> PredictResult:
    """Posterior mean and latent variance at query points.

    Variances are clamped at zero from below; the clamp count is reported so
    callers can tell rounding from structure.
    """
    from scipy.linalg import solve_triangular   # deferred: import cost
    stars = np.asarray(Xstar, dtype=float)
    if stars.size == 0:
        return PredictResult(np.empty(0), np.empty(0), 0)
    if stars.ndim != 2 or stars.shape[1] != model.inputs.shape[1]:
        raise DimensionMismatch(
            f"query points must have shape (*, {model.inputs.shape[1]}), "
            f"got {stars.shape}")
    kstar = cross_gram(model.spec, stars, model.inputs)
    means = kstar @ model.alpha
    v = solve_triangular(model.chol_lower, kstar.T, lower=True)
    prior = kernel_at_rho(model.spec, 1.0)
    variances = prior - np.einsum("ij,ij->j", v, v)
    clamped = int(np.sum(variances < 0.0))
    return PredictResult(means=means, variances=np.maximum(variances, 0.0),
                         num_clamped=clamped)
