"""Finite-width MLP random fields and their empirical kernels.

The field is the norm-regulated MLP

    x^(k+1) = phi^(k+1)(W^(k) x^(k) / |x^(k)|),   k = 0 .. n-1,
    output  = W^(n) x^(n) / |x^(n)|               (affine last layer),

with all weights i.i.d. standard Gaussian and phi^(k+1) = activations[k].  As
the hidden widths grow, the covariance E[output(x)_i output(z)_i] converges
to the compositional kernel built from the per-layer activations' duals; this
module produces the Monte Carlo side of that comparison and the limit it is
compared with.

Weight randomness comes from counter-based Philox substreams (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011).  ``empirical_kernel``
splits its samples into fixed chunks of 256 and keys chunk c, layer k by
(seed, c, k); ``sample_mlp_output`` keys draw j, layer k by (seed, j, k).
Either way an estimate is bitwise reproducible and independent of how the
chunks are scheduled across threads.

``empirical_kernel`` does not materialize weight matrices.  Conditional on
layer inputs with correlation rho, the two pre-activation vectors under a
shared Gaussian weight matrix are exactly jointly Gaussian with per-row
covariance [[1, rho], [rho, 1]], so each layer forms the correlated pair
directly from standard normals.  This is equal in law to the literal forward
pass (which ``sample_mlp_output`` still performs) and cuts the per-sample
cost from width^2 to width draws.

Nor does it draw the output layer.  That layer is affine, so given the last
hidden layer, E[output(x) . output(z) / h_{n+1}] is exactly rho_n, the
correlation of the two normalized last-layer activations; each sample
records rho_n (Rao-Blackwellization: Robert and Casella, "Monte Carlo
Statistical Methods", 2004).  The expectation is unchanged, the output
width no longer enters, and the per-sample variance drops from about
(1 + rho_n^2) / h_{n+1} (the output draw's noise) to the O(1/width) spread
of rho_n itself.  For a depth-2 rectifier with output width 1 the standard
error falls 10x to 70x at hidden widths 64 to 4096, enough to resolve the
O(1/width) gap to the limit kernel.

A chunk of m samples draws one (m, width, 2) normal block per hidden layer,
whose halves u and v are independent standard normals.  It activates u,
then forms the partner v <- sqrt(1 - rho^2) v + rho u in the block's own
storage (rho u is rounded once, as a separate product would be) and
activates v; the row norms, row dot products and the clip of rho run on
(m, width) arrays, with rho a length-m vector.  A reference activation
writes one (m, width) array of doubles (and bool masks if |slope| > 1).
The block, the two activated arrays and the next layer's block peak at
6 * 256 * width doubles per thread (12.6 MB at width 1024 for a rectifier;
tracemalloc reads 6.01 such arrays).  A HermiteSeriesActivation adds three (m, width)
arrays for its Clenshaw recurrence (6.3 MB at width 1024).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .activations import Activation, _check_activation, _dual
from .errors import (
    DimensionMismatch,
    DomainError,
    ZeroNormLayer,
    ZeroVector,
    _order,
)
from .kernels import _unit, correlation

__all__ = [
    "MlpConfig",
    "KernelEstimate",
    "StudyRow",
    "sample_mlp_output",
    "empirical_kernel",
    "convergence_study",
    "worker_count",
]

_CHUNK = 256


@dataclass(frozen=True)
class MlpConfig:
    """Widths h_0 .. h_{n+1}, one activation per layer 1 .. n, and the stream
    seed.  A single activation, not in a tuple, is stored as n copies."""

    widths: tuple[int, ...]
    activations: tuple[Activation, ...]
    seed: int

    def __post_init__(self) -> None:
        if len(self.widths) < 3:
            raise DomainError(
                f"need widths h_0 .. h_{{n+1}} with n >= 1, got {self.widths}")
        object.__setattr__(self, "widths", tuple(
            _order(h, f"width h_{k}", 1) for k, h in enumerate(self.widths)))
        acts = self.activations
        if not isinstance(acts, tuple):
            acts = (acts,) * self.num_layers
        elif len(acts) != self.num_layers:
            raise DomainError(
                f"mixed config needs {self.num_layers} activations, got {len(acts)}")
        for act in acts:   # reference_kernel_value needs each layer's exact dual
            _check_activation(act)
        object.__setattr__(self, "activations", acts)
        object.__setattr__(self, "seed", _order(self.seed, "seed", None))

    @property
    def num_layers(self) -> int:
        """n: the number of activated layers."""
        return len(self.widths) - 2


@dataclass(frozen=True)
class KernelEstimate:
    """Mean of the per-sample last-hidden-layer correlations rho_n, with its
    standard error; ``width_profile`` includes the output width, which does
    not change the estimate."""

    value: float
    standard_error: float
    num_samples: int
    width_profile: tuple[int, ...]


@dataclass(frozen=True)
class StudyRow:
    width: int
    estimate: float
    se: float
    reference: float
    gap: float


def _layer_generator(seed: int, stream: int, layer: int) -> np.random.Generator:
    # 128-bit Philox key: seed in the high word, (stream, layer) packed low.
    key = ((seed & 0xFFFFFFFFFFFFFFFF) << 64) | ((stream & 0xFFFFFFFFFFF) << 20) \
        | (layer & 0xFFFFF)
    return np.random.Generator(np.random.Philox(key=key))


def _normalized(vec: np.ndarray, what: str) -> np.ndarray:
    try:
        return _unit(vec)
    except ZeroVector:
        raise ZeroNormLayer(f"{what} has zero norm") from None


def sample_mlp_output(config: MlpConfig, input: Sequence[float],
                      seed_offset: int = 0,
                      weights: Sequence[np.ndarray] | None = None) -> np.ndarray:
    """One literal forward pass; returns the h_{n+1}-vector output.

    ``weights`` overrides the random draw with explicit matrices (shape
    h_{k+1} x h_k each), which is how hand-traced examples pin the path.
    """
    x = np.asarray(input, dtype=float)
    if x.shape != (config.widths[0],):
        raise DimensionMismatch(
            f"input must have shape ({config.widths[0]},), got {x.shape}")
    if not np.isfinite(x).all():
        raise DomainError(f"MLP input must be finite, got {x}")
    if not x.any():
        raise ZeroVector("MLP input must be nonzero")
    if weights is not None:
        weights = [np.asarray(w, dtype=float) for w in weights]
        shapes = [(config.widths[k + 1], config.widths[k])
                  for k in range(len(config.widths) - 1)]
        if [w.shape for w in weights] != shapes:
            raise DimensionMismatch(
                f"weight shapes {[w.shape for w in weights]} != required {shapes}")
    n = config.num_layers
    for layer in range(n + 1):
        if weights is not None:
            w = weights[layer]
        else:
            gen = _layer_generator(config.seed, seed_offset, layer)
            w = gen.standard_normal((config.widths[layer + 1], config.widths[layer]))
        pre = w @ _normalized(x, "input" if layer == 0 else f"layer {layer} output")
        x = config.activations[layer](pre) if layer < n else pre
    return x


def _pair_samples(config: MlpConfig, rho0: float, chunk: int,
                  out: np.ndarray) -> None:
    """Fill chunk ``chunk`` of ``out`` with each sample's last-hidden-layer
    correlation rho_n, the output products' conditional mean."""
    n = config.num_layers
    widths = config.widths
    lo = chunk * _CHUNK
    hi = min(lo + _CHUNK, len(out))
    rho = np.full(hi - lo, rho0)
    for layer in range(n):
        gen = _layer_generator(config.seed, chunk, layer)
        block = gen.standard_normal((hi - lo, widths[layer + 1], 2))
        u = block[:, :, 0]
        v = block[:, :, 1]
        act = config.activations[layer]
        a = act(u)
        # v = sqrt(1 - rho^2) v + rho u in the draw's storage; u is spent
        v *= np.sqrt(1.0 - rho * rho)[:, None]
        u *= rho[:, None]
        v += u
        b = act(v)
        na = np.sqrt(np.einsum("ij,ij->i", a, a))
        nb = np.sqrt(np.einsum("ij,ij->i", b, b))
        dead = (na == 0.0) | (nb == 0.0)
        if dead.any():
            raise ZeroNormLayer(f"layer {layer + 1} output has zero norm at sample "
                                f"{lo + int(np.argmax(dead))}")
        rho = np.clip(np.einsum("ij,ij->i", a, b) / (na * nb), -1.0, 1.0)
    out[lo:hi] = rho


def worker_count() -> int:
    """Thread cap: THETA_KERNELS_THREADS if set, else the usable CPU count.

    Each 256-sample chunk of the sampler spends its time in Philox fills and
    ufuncs over (256, width) arrays, which release the GIL, so chunks on
    separate threads run in parallel.  Estimates are bitwise identical for
    any thread count.
    """
    raw = os.environ.get("THETA_KERNELS_THREADS", "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            raise DomainError(f"THETA_KERNELS_THREADS must be an integer, got {raw!r}")
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def empirical_kernel(config: MlpConfig, x: Sequence[float], z: Sequence[float],
                     num_samples: int) -> KernelEstimate:
    """Monte Carlo estimate of E[output(x) . output(z) / h_{n+1}].

    Each sample draws the hidden layers only and contributes rho_n, the
    correlation of its last hidden layer, which is the output products'
    exact conditional mean given that layer; value and standard error are
    the mean and standard error of the rho_n.  The output width h_{n+1}
    does not enter, and the standard error is O(1/sqrt(width)) times that
    of averaging sampled output products.  Samples
    256c .. 256c + 255 form chunk c, whose layer k always consumes substream
    (seed, c, k), and samples are written into a fixed slot ordering, so the
    result is bitwise identical for any thread count.  A dead layer (all
    activations zero) raises ZeroNormLayer naming the first dead sample of
    the lowest chunk that has one.
    """
    num_samples = _order(num_samples, "num_samples", 100)
    xv = np.asarray(x, dtype=float)
    zv = np.asarray(z, dtype=float)
    if xv.shape != (config.widths[0],) or zv.shape != (config.widths[0],):
        raise DimensionMismatch(
            f"inputs must have shape ({config.widths[0]},), got {xv.shape}, {zv.shape}")
    rho0 = correlation(xv, zv)
    out = np.empty(num_samples)
    chunks = range((num_samples + _CHUNK - 1) // _CHUNK)
    with ThreadPoolExecutor(max_workers=min(worker_count(), len(chunks))) as pool:
        futures = [pool.submit(_pair_samples, config, rho0, chunk, out) for chunk in chunks]
        for future in futures:
            future.result()
    value = float(np.mean(out))
    se = float(np.std(out, ddof=1)) / math.sqrt(num_samples)
    return KernelEstimate(value=value, standard_error=se,
                          num_samples=num_samples, width_profile=config.widths)


def reference_kernel_value(config: MlpConfig, rho0: float) -> float:
    """Infinite-width kernel for the config's activations at correlation rho0.

    Each layer divides by its norm, so innermost first rho <- dual(rho) /
    dual(1), with dual(s) = E[phi(X) phi(Z)] the activation's exact dual
    (Daniely, Frostig and Singer, NIPS 2016), clipped to [-1, 1] against
    round-off (prelu(-0.5)'s dual(1) reads 1 + 2^-52).  An identically
    zero activation raises ZeroNormLayer.
    """
    rho = float(rho0)
    if not -1.0 <= rho <= 1.0:
        raise DomainError(f"correlation must lie in [-1, 1], got {rho0!r}")
    for layer, act in enumerate(config.activations):
        norm = _dual(act, 1.0)
        if norm == 0.0:
            raise ZeroNormLayer(f"layer {layer + 1} activation is identically zero")
        rho = min(1.0, max(-1.0, _dual(act, rho) / norm))
    return rho


def convergence_study(base: MlpConfig, widths: Sequence[int],
                      x: Sequence[float], z: Sequence[float],
                      num_samples: int) -> list[StudyRow]:
    """Empirical-vs-limit comparison across hidden widths.

    Each width w replaces every hidden width h_1 .. h_n of ``base``; input
    and output widths stay.  Rows are ordered by width.
    """
    widths = [_order(w, "width", 1) for w in widths]
    if not widths or any(b <= a for a, b in zip(widths, widths[1:])):
        raise DomainError(f"widths must be strictly increasing, got {widths}")
    rho0 = correlation(np.asarray(x, dtype=float), np.asarray(z, dtype=float))
    reference = reference_kernel_value(base, rho0)
    rows = []
    for w in widths:
        profile = (base.widths[0],) + (w,) * base.num_layers + (base.widths[-1],)
        config = MlpConfig(widths=profile, activations=base.activations,
                           seed=base.seed)
        est = empirical_kernel(config, x, z, num_samples)
        rows.append(StudyRow(width=w, estimate=est.value, se=est.standard_error,
                             reference=reference, gap=est.value - reference))
    return rows
