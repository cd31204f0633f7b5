"""Finite-width MLP random fields and their empirical kernels.

The field is the norm-regulated MLP

    x^(k+1) = phi^(k+1)(W^(k) x^(k) / |x^(k)|),   k = 0 .. n-1,
    output  = W^(n) x^(n) / |x^(n)|               (affine last layer),

with all weights i.i.d. standard Gaussian.  As the hidden widths grow, the
covariance E[output(x)_i output(z)_i] converges to the compositional kernel
built from the per-layer activations' PGF coefficients; this module produces
the Monte Carlo side of that comparison.

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
cost from width^2 to width draws.  A chunk of m samples draws one
(m, width, 2) normal block per layer and runs the activation, row norms, row
dot products and the clip of rho on (m, width) arrays, with rho a length-m
vector.  The block, the two activated arrays and the next layer's block
and temporaries peak at about 7 * 256 * width doubles per thread (15 MB at
width 1024 for a rectifier).  A HermiteSeriesActivation adds its
(k_max + 1) x (256 * width) design matrix on top.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .activations import Activation, activation_to_pgf
from .errors import (
    DimensionMismatch,
    DomainError,
    ZeroNormLayer,
    ZeroVector,
)
from .kernels import MixedKernel, correlation, kernel_at_rho
from .pgf import SeriesPgf

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
_REFERENCE_K_MAX = 128


@dataclass(frozen=True)
class MlpConfig:
    """Widths h_0 .. h_{n+1}, one activation (pure) or n activations (mixed),
    and the stream seed."""

    widths: tuple[int, ...]
    activations: Union[Activation, tuple[Activation, ...]]
    seed: int

    def __post_init__(self) -> None:
        if len(self.widths) < 3:
            raise DomainError(
                f"need widths h_0 .. h_{{n+1}} with n >= 1, got {self.widths}")
        if not all(isinstance(h, int) and h >= 1 for h in self.widths):
            raise DomainError(f"widths must be positive integers, got {self.widths}")
        if isinstance(self.activations, tuple):
            if len(self.activations) != self.num_layers:
                raise DomainError(
                    f"mixed config needs {self.num_layers} activations, "
                    f"got {len(self.activations)}")
        if not isinstance(self.seed, int):
            raise DomainError(f"seed must be an integer, got {self.seed!r}")

    @property
    def num_layers(self) -> int:
        """n: the number of activated layers."""
        return len(self.widths) - 2

    def activation_at(self, layer: int) -> Activation:
        """Activation applied to layer ``layer``'s pre-activations (0-based)."""
        if isinstance(self.activations, tuple):
            return self.activations[layer]
        return self.activations

    def weight_count(self) -> int:
        """Total number of scalar weights in one network draw."""
        return sum(self.widths[k] * self.widths[k + 1]
                   for k in range(len(self.widths) - 1))


@dataclass(frozen=True)
class KernelEstimate:
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
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise ZeroNormLayer(f"{what} has zero norm")
    return vec / norm


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
    if float(np.linalg.norm(x)) == 0.0:
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
        x = config.activation_at(layer)(pre) if layer < n else pre
    return x


def _pair_samples(config: MlpConfig, rho0: float, chunk: int,
                  out: np.ndarray) -> None:
    """Fill chunk ``chunk`` of ``out`` with per-sample coordinate-averaged
    output products."""
    n = config.num_layers
    widths = config.widths
    lo = chunk * _CHUNK
    hi = min(lo + _CHUNK, len(out))
    rho = np.full(hi - lo, rho0)
    for layer in range(n + 1):
        gen = _layer_generator(config.seed, chunk, layer)
        block = gen.standard_normal((hi - lo, widths[layer + 1], 2))
        u = block[:, :, 0]
        v = block[:, :, 1]
        v *= np.sqrt(1.0 - rho * rho)[:, None]
        v += rho[:, None] * u
        if layer == n:
            out[lo:hi] = np.einsum("ij,ij->i", u, v) / widths[layer + 1]
            return
        act = config.activation_at(layer)
        a, b = act(u), act(v)
        na = np.sqrt(np.einsum("ij,ij->i", a, a))
        nb = np.sqrt(np.einsum("ij,ij->i", b, b))
        dead = (na == 0.0) | (nb == 0.0)
        if dead.any():
            raise ZeroNormLayer(f"layer {layer + 1} output has zero norm at sample "
                                f"{lo + int(np.argmax(dead))}")
        rho = np.clip(np.einsum("ij,ij->i", a, b) / (na * nb), -1.0, 1.0)


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

    Averages over weight draws and output coordinates; the standard error
    comes from the per-draw coordinate-averaged products.  Samples
    256c .. 256c + 255 form chunk c, whose layer k always consumes substream
    (seed, c, k), and samples are written into a fixed slot ordering, so the
    result is bitwise identical for any thread count.  A dead layer (all
    activations zero) raises ZeroNormLayer naming the first dead sample of
    the lowest chunk that has one.
    """
    if not (isinstance(num_samples, int) and num_samples >= 100):
        raise DomainError(f"num_samples must be an integer >= 100, got {num_samples!r}")
    xv = np.asarray(x, dtype=float)
    zv = np.asarray(z, dtype=float)
    if xv.shape != (config.widths[0],) or zv.shape != (config.widths[0],):
        raise DimensionMismatch(
            f"inputs must have shape ({config.widths[0]},), got {xv.shape}, {zv.shape}")
    rho0 = correlation(xv, zv)
    out = np.empty(num_samples)
    chunks = range((num_samples + _CHUNK - 1) // _CHUNK)
    workers = min(worker_count(), len(chunks))
    if workers <= 1:
        for chunk in chunks:
            _pair_samples(config, rho0, chunk, out)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_pair_samples, config, rho0, chunk, out)
                       for chunk in chunks]
            for future in futures:
                future.result()
    value = float(np.mean(out))
    se = float(np.std(out, ddof=1)) / math.sqrt(num_samples)
    return KernelEstimate(value=value, standard_error=se,
                          num_samples=num_samples, width_profile=config.widths)


def reference_kernel_value(config: MlpConfig, rho0: float,
                           k_max: int = _REFERENCE_K_MAX) -> float:
    """Infinite-width kernel for the config's activations at correlation rho0.

    Each layer's activation is converted to its PGF coefficients and the
    truncated series are composed innermost-first.
    """
    factors = []
    for layer in range(config.num_layers):
        p = activation_to_pgf(config.activation_at(layer), k_max)
        factors.append(SeriesPgf(tuple(p)))
    return kernel_at_rho(MixedKernel(tuple(factors)), rho0)


def convergence_study(base: MlpConfig, widths: Sequence[int],
                      x: Sequence[float], z: Sequence[float],
                      num_samples: int) -> list[StudyRow]:
    """Empirical-vs-limit comparison across hidden widths.

    Each width w replaces every hidden width h_1 .. h_n of ``base``; input
    and output widths stay.  Rows are ordered by width.
    """
    widths = list(widths)
    if not widths or any(b <= a for a, b in zip(widths, widths[1:])):
        raise DomainError(f"widths must be strictly increasing, got {widths}")
    if not all(isinstance(w, int) and w >= 1 for w in widths):
        raise DomainError(f"widths must be positive integers, got {widths}")
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
