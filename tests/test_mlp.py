from __future__ import annotations

import math
import os
import tracemalloc

import numpy as np
import pytest

from thetakernels.activations import (
    HermiteSeriesActivation,
    activation_from_coefficients,
    reference_activation,
)
from thetakernels.errors import (
    DimensionMismatch,
    DomainError,
    ThetaKernelError,
    ZeroNormLayer,
    ZeroVector,
)
from thetakernels import mlp
from thetakernels.kernels import cmixed_pure_representation
from thetakernels.mlp import (
    KernelEstimate,
    MlpConfig,
    convergence_study,
    empirical_kernel,
    reference_kernel_value,
    sample_mlp_output,
    worker_count,
)
from thetakernels.pgf import SeriesPgf, make_theta_pgf, theta_coefficients

RELU = reference_activation("relu")
LINEAR = reference_activation("linear")


def _relu_closed_form(s: float) -> float:
    return (math.sqrt(1.0 - s * s) + s * (math.pi - math.acos(s))) / math.pi


def _prelu_closed_form(slope: float, s: float) -> float:
    # phi = x+ + slope * x-: E[X+ Z+] = E[X- Z-] = K / 2 and E[X+ Z-] = (s - K) / 2,
    # with K the relu form above, over E[phi^2] = (1 + slope^2) / 2
    k = _relu_closed_form(s)
    return k + 2.0 * slope * (s - k) / (1.0 + slope * slope)


class TestConfig:
    def test_layer_counting(self):
        config = MlpConfig(widths=(2, 16, 16, 1), activations=RELU, seed=0)
        assert config.num_layers == 2
        assert config.activations[0] is RELU
        assert config.activations[1] is RELU

    def test_mixed_activation_lookup(self):
        config = MlpConfig(widths=(2, 8, 8, 1), activations=(LINEAR, RELU), seed=0)
        assert config.activations[0] is LINEAR
        assert config.activations[1] is RELU

    def test_activation_list_taken_like_width_list(self):
        config = MlpConfig(widths=[2, 8, 8, 1], activations=[LINEAR, RELU], seed=0)
        assert config.widths == (2, 8, 8, 1)
        assert config.activations == (LINEAR, RELU)
        with pytest.raises(DomainError):
            MlpConfig(widths=(2, 8, 8, 1), activations=[LINEAR, RELU, RELU], seed=0)

    def test_validation(self):
        with pytest.raises(DomainError):
            MlpConfig(widths=(2, 1), activations=RELU, seed=0)
        with pytest.raises(DomainError):
            MlpConfig(widths=(2, 0, 1), activations=RELU, seed=0)
        with pytest.raises(DomainError):
            MlpConfig(widths=(2, 8, 8, 1), activations=(RELU,), seed=0)
        with pytest.raises(DomainError):
            MlpConfig(widths=(2, 8, 1), activations=RELU, seed=1.5)

    def test_duck_typed_activation_rejected(self):
        """The limit kernel divides each layer by its exact E[phi^2], known only
        for the two activation forms; 0.5 * x would compose to 0.125 at
        widths (2, 256, 1) and rho 0.5 where the network reads about 0.48."""
        half = lambda x: 0.5 * np.asarray(x)  # noqa: E731
        with pytest.raises(DomainError):
            MlpConfig(widths=(2, 256, 1), activations=half, seed=0)
        with pytest.raises(DomainError):
            MlpConfig(widths=(2, 8, 8, 1), activations=(RELU, half), seed=0)


class TestStreamKeys:
    """The Philox key packs seed, stream and layer into 64, 44 and 20 bits;
    each is bounded so that masking them stays one-to-one."""

    @pytest.mark.parametrize("seed, alias", [(5, 5 + 2 ** 64), (-1, 2 ** 64 - 1)])
    def test_seed_alias_refused(self, seed, alias):
        assert MlpConfig((2, 8, 1), RELU, seed=seed).seed == seed
        with pytest.raises(DomainError, match="seed"):
            MlpConfig((2, 8, 1), RELU, seed=alias)

    def test_seed_range_ends(self):
        for seed in (-2 ** 63, 2 ** 63 - 1):
            assert MlpConfig((2, 8, 1), RELU, seed=seed).seed == seed
        for seed in (-2 ** 63 - 1, 2 ** 63):
            with pytest.raises(DomainError, match="seed"):
                MlpConfig((2, 8, 1), RELU, seed=seed)

    def test_seed_offset_alias_refused(self):
        config = MlpConfig((2, 8, 1), RELU, seed=0)
        for offset in (3, -2 ** 43, 2 ** 43 - 1):
            assert sample_mlp_output(config, [1.0, 0.0], seed_offset=offset).shape == (1,)
        for offset in (3 + 2 ** 44, -2 ** 43 - 1, 2 ** 43):
            with pytest.raises(DomainError, match="seed_offset"):
                sample_mlp_output(config, [1.0, 0.0], seed_offset=offset)

    def test_layer_count_beyond_20_bits_refused(self):
        with pytest.raises(DomainError, match="number of activated layers"):
            MlpConfig((2,) + (1,) * 2 ** 20 + (1,), RELU, seed=0)


class TestDrawnMatrixCeiling:
    """sample_mlp_output refuses a drawn matrix above 2**24 entries before it
    draws; the generator is replaced, so no large matrix is ever drawn."""

    class _Drawn(Exception):
        pass

    def _refuse_draws(self, monkeypatch):
        def generator(*args):
            raise self._Drawn
        monkeypatch.setattr(mlp, "_layer_generator", generator)

    def test_full_width_config_refused_before_drawing(self, monkeypatch):
        self._refuse_draws(monkeypatch)
        config = MlpConfig(widths=(2, 65536, 65536, 1), activations=RELU, seed=0)
        with pytest.raises(DomainError, match="drawn weight matrix"):
            sample_mlp_output(config, [1.0, 0.0])

    def test_ceiling_admits_two_to_the_24_entries(self, monkeypatch):
        self._refuse_draws(monkeypatch)
        config = MlpConfig(widths=(2, 4096, 4096, 1), activations=RELU, seed=0)
        with pytest.raises(self._Drawn):
            sample_mlp_output(config, [1.0, 0.0])
        config = MlpConfig(widths=(2, 4096, 4097, 1), activations=RELU, seed=0)
        with pytest.raises(DomainError, match="drawn weight matrix"):
            sample_mlp_output(config, [1.0, 0.0])


# Each call builds its integer argument with ``as_int``.
INTEGER_SITES = {
    "hidden width": lambda as_int: MlpConfig((2, as_int(16), 1), RELU, seed=0),
    "seed": lambda as_int: MlpConfig((2, 16, 1), RELU, seed=as_int(-7)),
    "num_samples": lambda as_int: empirical_kernel(
        MlpConfig((2, 16, 1), RELU, seed=3), [1.0, 0.0], [0.0, 1.0], as_int(150)),
    "study width": lambda as_int: convergence_study(
        MlpConfig((2, 8, 1), RELU, seed=3), [as_int(16)], [1.0, 0.0], [0.0, 1.0], 150),
    "cmixed k": lambda as_int: cmixed_pure_representation(0.5, (0.2, 0.6), as_int(2)),
}


@pytest.mark.parametrize("site", sorted(INTEGER_SITES))
def test_integer_arguments(site):
    """numpy integers act as the equal Python int (numpy 2 reprs show their
    type, so an unconverted one would differ), and bools are refused."""
    call = INTEGER_SITES[site]
    assert repr(call(np.int64)) == repr(call(int))
    with pytest.raises(ThetaKernelError):
        call(lambda value: True)


class TestSampleOutput:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input(self, bad):
        config = MlpConfig(widths=(2, 8, 1), activations=RELU, seed=0)
        with pytest.raises(DomainError):
            sample_mlp_output(config, [1.0, bad])

    def test_hand_traced_path(self):
        # input (3, 4) normalizes to (0.6, 0.8); the first matrix flips the
        # sign of coordinate 0, relu kills it, renormalization leaves (0, 1)
        config = MlpConfig(widths=(2, 2, 1), activations=RELU, seed=0)
        weights = [np.array([[-1.0, 0.0], [0.0, 1.0]]), np.array([[2.0, -3.0]])]
        out = sample_mlp_output(config, [3.0, 4.0], weights=weights)
        assert out.shape == (1,)
        assert out[0] == pytest.approx(-3.0, abs=1e-15)

    def test_linear_trace(self):
        config = MlpConfig(widths=(2, 2, 1), activations=LINEAR, seed=0)
        weights = [np.eye(2), np.array([[5.0, 0.0]])]
        out = sample_mlp_output(config, [3.0, 4.0], weights=weights)
        assert out[0] == pytest.approx(3.0, abs=1e-15)

    def test_random_path_is_reproducible(self):
        config = MlpConfig(widths=(3, 32, 32, 4), activations=RELU, seed=99)
        first = sample_mlp_output(config, [1.0, -1.0, 0.5], seed_offset=7)
        second = sample_mlp_output(config, [1.0, -1.0, 0.5], seed_offset=7)
        assert np.array_equal(first, second)
        other = sample_mlp_output(config, [1.0, -1.0, 0.5], seed_offset=8)
        assert not np.array_equal(first, other)

    def test_output_width(self):
        config = MlpConfig(widths=(2, 16, 5), activations=RELU, seed=0)
        assert sample_mlp_output(config, [1.0, 0.0]).shape == (5,)

    def test_dead_layer_raises(self):
        config = MlpConfig(widths=(2, 2, 1), activations=RELU, seed=0)
        weights = [-np.eye(2), np.array([[1.0, 1.0]])]
        with pytest.raises(ZeroNormLayer):
            sample_mlp_output(config, [1.0, 1.0], weights=weights)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_input_norm_outside_float_range(self, scale):
        # the norm of (scale, scale) overflows to inf or underflows to 0
        config = MlpConfig(widths=(2, 8, 8, 1), activations=RELU, seed=4)
        assert np.allclose(sample_mlp_output(config, [scale, scale]),
                           sample_mlp_output(config, [1.0, 1.0]), rtol=1e-14, atol=0.0)

    def test_input_validation(self):
        config = MlpConfig(widths=(2, 4, 1), activations=RELU, seed=0)
        with pytest.raises(DimensionMismatch):
            sample_mlp_output(config, [1.0, 0.0, 0.0])
        with pytest.raises(ZeroVector):
            sample_mlp_output(config, [0.0, 0.0])
        with pytest.raises(DimensionMismatch):
            sample_mlp_output(config, [1.0, 0.0], weights=[np.eye(2), np.eye(2)])


class TestWorkerCount:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("THETA_KERNELS_THREADS", "3")
        assert worker_count() == 3

    # Values that start no threads: each is refused before any pool exists.
    @pytest.mark.parametrize("raw", ["many", "0", "-3"])
    def test_env_invalid(self, monkeypatch, raw):
        monkeypatch.setenv("THETA_KERNELS_THREADS", raw)
        with pytest.raises(DomainError):
            worker_count()

    def test_default_positive(self, monkeypatch):
        # Unset means one thread per usable CPU: the chunked sampler spends
        # its time in numpy calls that release the GIL.
        monkeypatch.delenv("THETA_KERNELS_THREADS", raising=False)
        assert worker_count() == len(os.sched_getaffinity(0))


class TestEmpiricalKernel:
    def test_sample_budget_floor(self):
        config = MlpConfig(widths=(2, 8, 1), activations=RELU, seed=0)
        with pytest.raises(DomainError):
            empirical_kernel(config, [1.0, 0.0], [0.0, 1.0], 99)

    def test_input_shapes(self):
        config = MlpConfig(widths=(2, 8, 1), activations=RELU, seed=0)
        with pytest.raises(DimensionMismatch):
            empirical_kernel(config, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], 100)

    def test_non_finite_input(self):
        config = MlpConfig(widths=(2, 8, 1), activations=RELU, seed=0)
        with pytest.raises(DomainError):
            empirical_kernel(config, [1.0, math.nan], [1.0, 0.0], 100)

    def test_estimate_fields(self):
        config = MlpConfig(widths=(2, 16, 1), activations=RELU, seed=5)
        est = empirical_kernel(config, [1.0, 0.0], [0.0, 1.0], 150)
        assert isinstance(est, KernelEstimate)
        assert est.num_samples == 150
        assert est.width_profile == (2, 16, 1)
        assert est.standard_error > 0.0

    def test_thread_count_does_not_change_bits(self, monkeypatch):
        x, z = [1.0, 0.0], [0.5, math.sqrt(0.75)]
        # 100 samples fill part of one chunk; 600 end in a partial chunk
        for acts in (RELU, (LINEAR, RELU)):
            config = MlpConfig(widths=(2, 32, 32, 1), activations=acts, seed=21)
            for num_samples in (100, 600):
                monkeypatch.delenv("THETA_KERNELS_THREADS", raising=False)
                default = empirical_kernel(config, x, z, num_samples)
                for threads in ("1", "2", "4"):
                    monkeypatch.setenv("THETA_KERNELS_THREADS", threads)
                    est = empirical_kernel(config, x, z, num_samples)
                    assert est.value == default.value
                    assert est.standard_error == default.standard_error

    def test_dead_layer_message_does_not_depend_on_threads(self, monkeypatch):
        # a width-1 rectifier layer is dead for about half of all samples
        config = MlpConfig(widths=(2, 1, 1), activations=RELU, seed=4)
        messages = []
        for threads in ("1", "2"):
            monkeypatch.setenv("THETA_KERNELS_THREADS", threads)
            with pytest.raises(ZeroNormLayer) as info:
                empirical_kernel(config, [1.0, 0.0], [0.0, 1.0], 600)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("layer 1 output has zero norm at sample ")

    def test_pair_sampler_matches_forward_pass_in_law(self):
        # E[out(x) . out(z) / h_{n+1}] from literal forward passes, each draw
        # j sharing its weights between x and z, against the pair sampler on
        # an independent seed.  A width-32 rectifier layer dies with
        # probability 2**-32, so neither side raises in practice.
        x, z = [1.0, 0.0], [0.3, math.sqrt(0.91)]
        draws = 4000
        for acts in (RELU, (LINEAR, RELU)):
            literal = MlpConfig(widths=(2, 32, 32, 3), activations=acts, seed=808)
            products = np.array([
                float(np.dot(sample_mlp_output(literal, x, seed_offset=j),
                             sample_mlp_output(literal, z, seed_offset=j))) / 3.0
                for j in range(draws)])
            forward = float(np.mean(products))
            forward_se = float(np.std(products, ddof=1)) / math.sqrt(draws)
            paired = empirical_kernel(
                MlpConfig(widths=(2, 32, 32, 3), activations=acts, seed=909),
                x, z, draws)
            gap = abs(forward - paired.value)
            assert gap <= 4.0 * math.hypot(forward_se, paired.standard_error), (
                f"{acts}: gap {gap} vs SEs {forward_se}, {paired.standard_error}")

    def test_input_scale_invariance(self):
        config = MlpConfig(widths=(2, 32, 1), activations=RELU, seed=3)
        x, z = np.array([1.0, 0.0]), np.array([0.5, 0.5])
        plain = empirical_kernel(config, x, z, 200)
        scaled = empirical_kernel(config, 8.0 * x, 4.0 * z, 200)
        assert plain.value == scaled.value

    def test_linear_network_recovers_correlation(self):
        config = MlpConfig(widths=(2, 256, 1), activations=LINEAR, seed=17)
        rho = 0.5
        est = empirical_kernel(config, [1.0, 0.0],
                               [rho, math.sqrt(1.0 - rho * rho)], 2000)
        assert abs(est.value - rho) <= 4.0 * est.standard_error

    def test_output_width_does_not_enter(self):
        # no output layer is drawn: each sample is the last hidden layer's rho_n
        x, z = [1.0, 0.0], [0.5, math.sqrt(0.75)]
        one, five = (empirical_kernel(MlpConfig((2, 32, 32, h), RELU, seed=12),
                                      x, z, 600) for h in (1, 5))
        assert one.value == five.value
        assert one.standard_error == five.standard_error

    def test_equal_inputs_have_no_sampling_noise(self):
        # rho_n is 1 for every draw when x = z, where sampled output products
        # would still scatter with an O(1 / sqrt(n)) standard error
        config = MlpConfig(widths=(3, 64, 64, 1), activations=RELU, seed=8)
        est = empirical_kernel(config, [1.0, -2.0, 0.5], [1.0, -2.0, 0.5], 600)
        assert abs(est.value - 1.0) < 1e-12
        assert est.standard_error < 1e-12

    def test_per_sample_spread_is_finite_width_only(self):
        # SE * sqrt(n) is about 0.04 here; averaging sampled output products
        # gives about 1.2, the output draw's own noise
        config = MlpConfig(widths=(2, 256, 256, 1), activations=RELU, seed=31)
        est = empirical_kernel(config, [1.0, 0.0], [0.0, 1.0], 1000)
        assert est.standard_error * math.sqrt(est.num_samples) < 0.1

    def test_error_bar_shrinks_with_samples(self):
        config = MlpConfig(widths=(2, 64, 1), activations=RELU, seed=29)
        x, z = [1.0, 0.0], [0.0, 1.0]
        coarse = empirical_kernel(config, x, z, 400)
        fine = empirical_kernel(config, x, z, 1600)
        ratio = coarse.standard_error / fine.standard_error
        assert 1.4 < ratio < 2.7


# float.hex of (value, standard_error) for two-layer networks at 512
# samples, x = e_1 and z at correlation rho, seed 41 + the config's index.
# A change to the Philox keys, the chunking, the pair mixing or the
# activation arithmetic shows here as a changed bit.
_PINNED_CONFIGS = {
    "relu": RELU,
    "linear-relu": (LINEAR, RELU),
    "prelu(0.25)": reference_activation("prelu(0.25)"),
    "prelu(-0.5)": reference_activation("prelu(-0.5)"),
}
_PINNED_ESTIMATES = [
    ("relu", 64, 0.0, "0x1.feeda749cebd6p-2", "0x1.4ba76c6321b77p-8"),
    ("relu", 64, 0.9, "0x1.d570b37a544dcp-1", "0x1.df13362d466f4p-10"),
    ("relu", 1024, 0.0, "0x1.fa0c442aff6dcp-2", "0x1.474bf2c78be3ap-10"),
    ("relu", 1024, 0.9, "0x1.d5ff8feef1c76p-1", "0x1.b1508d320702bp-12"),
    ("linear-relu", 64, 0.0, "0x1.475efef48b860p-2", "0x1.38cd92915eeb6p-8"),
    ("linear-relu", 64, 0.9, "0x1.d07b38ea6e030p-1", "0x1.cbdff59bafb47p-10"),
    ("linear-relu", 1024, 0.0, "0x1.487cdf5c3e768p-2", "0x1.4f7606ba9117bp-10"),
    ("linear-relu", 1024, 0.9, "0x1.d20f4a2345280p-1", "0x1.a7b91f814a5d6p-12"),
    ("prelu(0.25)", 64, 0.0, "0x1.33f82d87cd5b7p-2", "0x1.a40ecfc9aa9d2p-8"),
    ("prelu(0.25)", 64, 0.9, "0x1.d015c1beba22bp-1", "0x1.e977156c88ae7p-10"),
    ("prelu(0.25)", 1024, 0.0, "0x1.2f0fdfb2c3c3dp-2", "0x1.8c194db9299b5p-10"),
    ("prelu(0.25)", 1024, 0.9, "0x1.d19e90266af8dp-1", "0x1.b989f6c15643dp-12"),
    ("prelu(-0.5)", 64, 0.0, "0x1.77b8b79f20910p-1", "0x1.78316e760420ep-9"),
    ("prelu(-0.5)", 64, 0.9, "0x1.db05f765ed8c6p-1", "0x1.2d36ee6093254p-10"),
    ("prelu(-0.5)", 1024, 0.0, "0x1.75046b8907020p-1", "0x1.66900ca94b234p-11"),
    ("prelu(-0.5)", 1024, 0.9, "0x1.dc0835e3d74a7p-1", "0x1.2c6657261e5b3p-12"),
]


@pytest.mark.parametrize("name,width,rho,value,se", _PINNED_ESTIMATES)
def test_estimate_bits_are_pinned(name, width, rho, value, se):
    seed = 41 + list(_PINNED_CONFIGS).index(name)
    config = MlpConfig(widths=(2, width, width, 1), activations=_PINNED_CONFIGS[name],
                       seed=seed)
    est = empirical_kernel(config, [1.0, 0.0], [rho, math.sqrt(1.0 - rho * rho)], 512)
    assert (est.value.hex(), est.standard_error.hex()) == (value, se)


def test_chunk_memory_peak(monkeypatch):
    # One 256-sample chunk of a two-layer rectifier at width 1024 holds the
    # layer's (256, width, 2) draw and both activated arrays while the next
    # layer draws: six (256, width) arrays, with nothing else that size.
    monkeypatch.setenv("THETA_KERNELS_THREADS", "1")
    config = MlpConfig(widths=(2, 1024, 1024, 1), activations=RELU, seed=3)
    # numpy imports numpy.random on first use; that is not the chunk's memory
    empirical_kernel(MlpConfig(widths=(2, 64, 1), activations=RELU, seed=3),
                     [1.0, 0.0], [0.6, 0.8], 256)
    tracemalloc.start()
    try:
        empirical_kernel(config, [1.0, 0.0], [0.6, 0.8], 256)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6.5 * 256 * 1024 * 8, f"peak {peak / (256 * 1024 * 8):.2f} arrays"


class TestReferenceValue:
    @pytest.mark.parametrize("rho", [-0.5, 0.0, 0.5, 0.9, 0.99, 0.999, 1.0])
    def test_single_layer_rectifier(self, rho):
        config = MlpConfig(widths=(2, 64, 1), activations=RELU, seed=0)
        assert reference_kernel_value(config, rho) == pytest.approx(
            _relu_closed_form(rho), abs=1e-8)

    def test_two_layer_rectifier_composes(self):
        config = MlpConfig(widths=(2, 64, 64, 1), activations=RELU, seed=0)
        expected = _relu_closed_form(_relu_closed_form(0.3))
        assert reference_kernel_value(config, 0.3) == pytest.approx(expected, abs=1e-8)

    def test_mixed_layers(self):
        config = MlpConfig(widths=(2, 64, 64, 1), activations=(LINEAR, RELU), seed=0)
        assert reference_kernel_value(config, 0.4) == pytest.approx(
            _relu_closed_form(0.4), abs=1e-8)
        config = MlpConfig(widths=(2, 64, 64, 1),
                           activations=(reference_activation("prelu(-0.5)"), RELU), seed=0)
        assert reference_kernel_value(config, 0.4) == pytest.approx(
            _relu_closed_form(_prelu_closed_form(-0.5, 0.4)), abs=1e-8)

    @pytest.mark.parametrize("names", ["relu,relu", "linear,relu", "prelu(-0.5),relu",
                                       "relu,relu,relu,relu"])
    def test_rectifier_stacks_match_closed_form(self, names):
        # the truncated-series route read 2.3e-4 off, worst near rho = 1
        acts = tuple(reference_activation(name) for name in names.split(","))
        config = MlpConfig(widths=(2,) + (8,) * len(acts) + (1,), activations=acts, seed=0)
        for rho in np.linspace(-1.0, 1.0, 201).tolist():
            expected = rho
            for act in acts:
                expected = _prelu_closed_form(act.slope, expected)
            assert reference_kernel_value(config, rho) == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("k_max", [64, 200, 300])
    def test_series_layer_at_every_order(self, k_max):
        # dual(rho) / dual(1) with dual(s) = sum_k p_k s^k, past any truncation
        p = theta_coefficients(make_theta_pgf(theta=-0.5, a=0.5, q=0.3), k_max).tolist()
        config = MlpConfig(widths=(2, 8, 1), activations=activation_from_coefficients(p),
                           seed=0)
        for rho in (0.5, 0.99, 1.0):
            expected = math.fsum(pk * rho ** k for k, pk in enumerate(p)) / math.fsum(p)
            assert reference_kernel_value(config, rho) == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize("rho", [1.5, -1.0 - 1e-15, math.nan])
    def test_correlation_range(self, rho):
        with pytest.raises(DomainError):
            reference_kernel_value(MlpConfig(widths=(2, 8, 1), activations=RELU, seed=0), rho)

    def test_series_layers_are_normalised(self):
        # E[phi^2] = 0.5: the layer norm makes each layer g(s) = (0.2 + 0.3 s) / 0.5,
        # so depth 2 at 0.5 gives g(g(0.5)) = 0.82, where f(f(0.5)) = 0.305.
        act = activation_from_coefficients([0.2, 0.3])
        config = MlpConfig(widths=(2, 512, 512, 1), activations=act, seed=3)
        reference = reference_kernel_value(config, 0.5)
        assert reference == pytest.approx(0.82, abs=1e-12)
        x, z = [1.0, 0.0], [0.5, math.sqrt(0.75)]
        est = empirical_kernel(config, x, z, 4000)
        assert abs(est.value - reference) < 3.0 * est.standard_error

    def test_zero_series_raises(self):
        config = MlpConfig(widths=(2, 8, 1),
                           activations=HermiteSeriesActivation(SeriesPgf((0.0,))), seed=0)
        with pytest.raises(ZeroNormLayer):
            reference_kernel_value(config, 0.5)


class TestConvergenceStudy:
    def test_rows(self):
        base = MlpConfig(widths=(2, 8, 1), activations=RELU, seed=41)
        rows = convergence_study(base, [16, 64], [1.0, 0.0], [0.0, 1.0], 200)
        assert [row.width for row in rows] == [16, 64]
        reference = _relu_closed_form(0.0)
        for row in rows:
            assert row.reference == pytest.approx(reference, abs=1e-8)
            assert row.gap == pytest.approx(row.estimate - row.reference, abs=1e-15)
            assert row.se > 0.0

    def test_width_replacement_spans_all_hidden_layers(self):
        # widths stay >= 16: a width-w rectifier layer dies (all-negative
        # pre-activations) with probability 2**-w per branch, which raises
        base = MlpConfig(widths=(2, 4, 4, 1), activations=RELU, seed=41)
        rows = convergence_study(base, [16], [1.0, 0.0], [0.0, 1.0], 150)
        direct = empirical_kernel(
            MlpConfig(widths=(2, 16, 16, 1), activations=RELU, seed=41),
            [1.0, 0.0], [0.0, 1.0], 150)
        assert rows[0].estimate == direct.value

    def test_resolves_finite_width_bias(self):
        """The gap to the limit kernel is O(1/w): depth-2 relu at rho 0.9
        gives gap * w of about -0.22, which at 4000 samples lies more than
        5 SE below zero at w 64 and agrees across w 64 and 256."""
        rho = 0.9
        base = MlpConfig(widths=(2, 8, 8, 1), activations=RELU, seed=2024)
        narrow, wide = convergence_study(base, [64, 256], [1.0, 0.0],
                                         [rho, math.sqrt(1.0 - rho * rho)], 4000)
        assert narrow.gap < -3.0 * narrow.se
        scaled_gap = [row.gap * row.width for row in (narrow, wide)]
        scaled_se = math.hypot(narrow.se * narrow.width, wide.se * wide.width)
        assert abs(scaled_gap[0] - scaled_gap[1]) < 3.0 * scaled_se, (scaled_gap, scaled_se)

    def test_width_ordering_enforced(self):
        base = MlpConfig(widths=(2, 8, 1), activations=RELU, seed=0)
        with pytest.raises(DomainError):
            convergence_study(base, [32, 16], [1.0, 0.0], [0.0, 1.0], 150)
        with pytest.raises(DomainError):
            convergence_study(base, [], [1.0, 0.0], [0.0, 1.0], 150)
