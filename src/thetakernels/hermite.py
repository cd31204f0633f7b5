"""Normalized probabilists' Hermite polynomials and Gaussian quadrature.

The polynomials h_k here are orthonormal under the standard Gaussian weight:
E[h_j(X) h_k(X)] = delta_jk for X ~ N(0, 1), built from the recursion

    h_0 = 1,  h_1 = x,  h_{k+1}(x) = x h_k(x) / sqrt(k+1) - sqrt(k / (k+1)) h_{k-1}(x).

``hermite_design`` runs it forward into the table H[k, i] = h_k(x_i), which
quadrature projections need.  ``hermite_series`` sums sum_k c_k h_k(x) by
Clenshaw's backward recurrence (Math. Tables Aids Comput. 1955) on arrays of
x's own shape, so evaluating an activation needs no table.

Quadrature rules are expressed directly against the N(0, 1) weight so callers
never touch the physicists' convention: ``gauss_hermite_rule(n)`` returns
points t_i and weights w_i with sum_i w_i g(t_i) ~ E[g(X)].

Half-range moments E[max(X, 0) h_k(X)] have a closed recursion through the
central values h_k(0), read off ``hermite_design`` at x = 0, since
quadrature converges too slowly across the kink at 0 for tight tolerances.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import NumericalInstability, _order

__all__ = [
    "hermite_design",
    "hermite_series",
    "gauss_hermite_rule",
    "half_gaussian_rule",
    "half_gaussian_hermite_moments",
]

#: Integration cutoff for the half-range rule; the Gaussian tail beyond 13
#: is ~ 1e-38, far below every tolerance in the package.
_HALF_RANGE_CUTOFF = 13.0
_HALF_RANGE_NODES = 240


def hermite_design(k_max: int, x) -> np.ndarray:
    """Matrix H[k, i] = h_k(x_i) for k = 0 .. k_max, one recursion pass."""
    k_max = _order(k_max, "k_max", 0)
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((k_max + 1, arr.size))
    out[0] = 1.0
    if k_max >= 1:
        out[1] = arr
    for k in range(1, k_max):
        out[k + 1] = (arr * out[k] / math.sqrt(k + 1)
                      - math.sqrt(k) / math.sqrt(k + 1) * out[k - 1])
    return out


def hermite_series(coefficients, x):
    """sum_k c_k h_k(x) over x's own shape; a float for scalar x.

    Clenshaw's backward recurrence b_k = c_k + x b_{k+1} / sqrt(k+1)
    - sqrt((k+1) / (k+2)) b_{k+2}, from k = k_max down to 0, ends at the sum
    b_0.  It holds three arrays of x's shape whatever k_max is.
    """
    c = np.asarray(coefficients, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coefficients must be a non-empty flat sequence")
    arr = np.asarray(x, dtype=float)
    b1 = np.zeros_like(arr)   # b_{k+1}
    b2 = np.zeros_like(arr)   # b_{k+2}, overwritten with b_k
    tmp = np.empty_like(arr)
    for k in range(c.size - 1, -1, -1):
        b2 *= -(math.sqrt(k + 1) / math.sqrt(k + 2))
        b2 += c[k]
        np.multiply(arr, b1, out=tmp)
        tmp /= math.sqrt(k + 1)
        b2 += tmp
        b1, b2 = b2, b1
    return float(b1) if arr.ndim == 0 else b1


@lru_cache(maxsize=32, typed=True)
def gauss_hermite_rule(num_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss quadrature for E[g(X)], X ~ N(0, 1).

    Change of variables from the physicists' rule: points scale by sqrt(2),
    weights normalize by sqrt(pi).  Exact for polynomials of degree
    2 * num_nodes - 1.  numpy's rule loses its weights from 371 nodes on
    (all zero, then NaN), which raises NumericalInstability: the normalized
    weights must be finite and sum to 1 within 1e-12.
    """
    num_nodes = _order(num_nodes, "num_nodes", 1)
    with np.errstate(all="ignore"):
        points, weights = np.polynomial.hermite.hermgauss(num_nodes)
    weights = weights / math.sqrt(math.pi)
    if not (np.all(np.isfinite(points)) and abs(np.sum(weights) - 1.0) <= 1e-12):
        raise NumericalInstability(
            f"Gauss-Hermite rule with {num_nodes} nodes has non-finite nodes "
            "or weights that do not sum to 1; use fewer nodes")
    return points * math.sqrt(2.0), weights


@lru_cache(maxsize=1)
def half_gaussian_rule() -> tuple[np.ndarray, np.ndarray]:
    """Quadrature for integral_0^inf g(t) phi(t) dt with phi the N(0,1) density.

    Gauss-Legendre on [0, 13] with the density folded into the weights.
    Useful for integrands that are smooth on the half-line but kinked at 0,
    where a full-line Hermite rule loses its convergence rate.
    """
    points, weights = np.polynomial.legendre.leggauss(_HALF_RANGE_NODES)
    t = 0.5 * _HALF_RANGE_CUTOFF * (points + 1.0)
    w = (0.5 * _HALF_RANGE_CUTOFF * weights * np.exp(-0.5 * t * t)
         / math.sqrt(2.0 * math.pi))
    return t, w


def half_gaussian_hermite_moments(k_max: int) -> np.ndarray:
    """Vector of E[max(X, 0) h_k(X)] for X ~ N(0, 1), k = 0 .. k_max.

    Integrating x phi(x) h_k(x) over [0, inf) by parts twice gives, for
    k >= 2, (h_k(0) + sqrt(k / (k - 1)) h_{k-2}(0)) * phi(0); the first two
    orders are 1/sqrt(2 pi) and 1/2.  Odd orders beyond 1 vanish.
    """
    h0 = hermite_design(k_max, 0.0)[:, 0]
    phi0 = 1.0 / math.sqrt(2.0 * math.pi)
    out = np.empty(k_max + 1)
    out[0] = phi0
    out[1:2] = 0.5
    k = np.arange(2, k_max + 1)
    out[2:] = (h0[2:] + np.sqrt(k / (k - 1.0)) * h0[:-2]) * phi0
    return out
