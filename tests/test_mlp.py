from __future__ import annotations

import math
import os

import numpy as np
import pytest

from thetakernels.activations import reference_activation
from thetakernels.errors import DimensionMismatch, DomainError, ZeroNormLayer, ZeroVector
from thetakernels.mlp import (
    KernelEstimate,
    MlpConfig,
    convergence_study,
    empirical_kernel,
    reference_kernel_value,
    sample_mlp_output,
    worker_count,
)

RELU = reference_activation("relu")
LINEAR = reference_activation("linear")


def _relu_closed_form(s: float) -> float:
    return (math.sqrt(1.0 - s * s) + s * (math.pi - math.acos(s))) / math.pi


class TestConfig:
    def test_layer_counting(self):
        config = MlpConfig(widths=(2, 16, 16, 1), activations=RELU, seed=0)
        assert config.num_layers == 2
        assert config.activation_at(0) is RELU
        assert config.activation_at(1) is RELU

    def test_mixed_activation_lookup(self):
        config = MlpConfig(widths=(2, 8, 8, 1), activations=(LINEAR, RELU), seed=0)
        assert config.activation_at(0) is LINEAR
        assert config.activation_at(1) is RELU

    def test_weight_count(self):
        assert MlpConfig((2, 3, 1), RELU, 0).weight_count() == 9

    def test_validation(self):
        with pytest.raises(DomainError):
            MlpConfig(widths=(2, 1), activations=RELU, seed=0)
        with pytest.raises(DomainError):
            MlpConfig(widths=(2, 0, 1), activations=RELU, seed=0)
        with pytest.raises(DomainError):
            MlpConfig(widths=(2, 8, 8, 1), activations=(RELU,), seed=0)
        with pytest.raises(DomainError):
            MlpConfig(widths=(2, 8, 1), activations=RELU, seed=1.5)


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

    def test_env_invalid(self, monkeypatch):
        monkeypatch.setenv("THETA_KERNELS_THREADS", "many")
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

    def test_error_bar_shrinks_with_samples(self):
        config = MlpConfig(widths=(2, 64, 1), activations=RELU, seed=29)
        x, z = [1.0, 0.0], [0.0, 1.0]
        coarse = empirical_kernel(config, x, z, 400)
        fine = empirical_kernel(config, x, z, 1600)
        ratio = coarse.standard_error / fine.standard_error
        assert 1.4 < ratio < 2.7


class TestReferenceValue:
    @pytest.mark.parametrize("rho", [-0.5, 0.0, 0.5, 0.9])
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

    def test_width_ordering_enforced(self):
        base = MlpConfig(widths=(2, 8, 1), activations=RELU, seed=0)
        with pytest.raises(DomainError):
            convergence_study(base, [32, 16], [1.0, 0.0], [0.0, 1.0], 150)
        with pytest.raises(DomainError):
            convergence_study(base, [], [1.0, 0.0], [0.0, 1.0], 150)
