from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from thetakernels import gp
from thetakernels.errors import (DimensionMismatch, DomainError, FactorizationFailed,
                                 ZeroVector)
from thetakernels.gp import JITTER_LADDER, fit, predict
from thetakernels.kernels import (CMixedKernel, MixedKernel, PureKernel, cross_gram, gram,
                                  kernel_at_rho)
from thetakernels.pgf import make_theta_pgf, theta_pgf_to_series


def _spec(depth: int = 2) -> PureKernel:
    return PureKernel(make_theta_pgf(theta=0.5, a=1.2, c=0.4), depth)


def _training_set(seed: int = 0, count: int = 12, dim: int = 4):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((count, dim))
    y = rng.standard_normal(count)
    return X, y


class TestFit:
    def test_noise_free_interpolation(self):
        X, y = _training_set()
        model = fit(_spec(), X, y)
        out = predict(model, X)
        assert np.max(np.abs(out.means - y)) < 1e-8

    def test_inputs_normalized(self):
        X, y = _training_set()
        model = fit(_spec(), X, y)
        assert np.allclose(np.linalg.norm(model.inputs, axis=1), 1.0, atol=1e-12)

    def test_well_conditioned_needs_no_jitter(self):
        X, y = _training_set()
        model = fit(_spec(), X, y, noise=0.1)
        assert model.jitter_level == 0
        assert model.jitter == 0.0

    def test_duplicate_inputs_climb_the_ladder(self):
        X, y = _training_set(count=6)
        X[3] = X[0]
        y[3] = y[0]
        model = fit(_spec(), X, y)
        assert model.jitter_level >= 1
        assert model.jitter > 0.0

    @pytest.mark.parametrize("ladder, duplicate, noise, level", [
        (JITTER_LADDER, False, 0.01, 0),
        (JITTER_LADDER, True, 0.0, 1),
        ((-2.0, 0.0), False, 0.01, 1),      # the first attempt cannot succeed
    ])
    def test_factor_of_shifted_gram(self, monkeypatch, ladder, duplicate, noise, level):
        # fit factors the Gram in place; each ladder attempt must start from
        # the unshifted Gram, so the factor is exactly LAPACK's factor of
        # K + (noise + jitter) I.
        monkeypatch.setattr(gp, "JITTER_LADDER", ladder)
        X, y = _training_set(count=6)
        if duplicate:
            X[3] = X[0]
        model = fit(_spec(), X, y, noise=noise)
        assert model.jitter_level == level
        shifted = gram(_spec(), model.inputs) + (noise + model.jitter) * np.eye(len(X))
        assert np.array_equal(model.chol_lower,
                              scipy.linalg.cholesky(shifted, lower=True))

    def test_failed_attempt_restores_the_gram(self):
        # A duplicate last input fails the first attempt at its last pivot,
        # after LAPACK has overwritten the rest of its triangle in blocks.
        X, y = _training_set(count=300, dim=8)
        X[-1] = X[0]
        model = fit(_spec(), X, y)
        assert model.jitter_level >= 1
        shifted = gram(_spec(), model.inputs) + model.jitter * np.eye(len(X))
        assert np.array_equal(model.chol_lower,
                              scipy.linalg.cholesky(shifted, lower=True))

    def test_caller_arrays_unchanged(self):
        X, y = _training_set()
        X_before, y_before = X.copy(), y.copy()
        fit(_spec(), X, y, noise=0.01)
        assert np.array_equal(X, X_before)
        assert np.array_equal(y, y_before)

    def test_model_owns_its_targets(self):
        X, y = _training_set()
        model = fit(_spec(), X, y, noise=0.01)
        targets = model.targets.copy()
        y[0] = 99.0
        assert np.array_equal(model.targets, targets)

    def test_input_scale_invariance(self):
        X, y = _training_set()
        reference = fit(_spec(), X, y, noise=0.01)
        rescaled = fit(_spec(), X * 4.0, y, noise=0.01)
        query = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, -1.0, 2.0, 0.5]])
        assert np.allclose(predict(reference, query).means,
                           predict(rescaled, query).means, atol=1e-12)

    def test_single_point(self):
        model = fit(_spec(), [[1.0, 0.0]], [2.5])
        out = predict(model, [[1.0, 0.0]])
        assert out.means[0] == pytest.approx(2.5, abs=1e-10)
        assert out.variances[0] == pytest.approx(0.0, abs=1e-10)

    def test_validation(self):
        X, y = _training_set()
        with pytest.raises(DimensionMismatch):
            fit(_spec(), X, y[:-1])
        with pytest.raises(DomainError):
            fit(_spec(), X, y, noise=-0.1)
        with pytest.raises(DimensionMismatch):
            fit(_spec(), np.zeros((0, 3)), [])

    def test_exhausted_ladder_raises(self, monkeypatch):
        X, y = _training_set(count=6)
        X[3] = X[0]
        monkeypatch.setattr(gp, "JITTER_LADDER", (0.0,))
        with pytest.raises(FactorizationFailed):
            fit(_spec(), X, y)


class TestPredict:
    def test_posterior_variance_below_prior(self):
        X, y = _training_set()
        model = fit(_spec(), X, y, noise=0.05)
        rng = np.random.default_rng(1)
        query = rng.standard_normal((20, 4))
        out = predict(model, query)
        prior = kernel_at_rho(model.spec, 1.0)
        assert np.all(out.variances <= prior + 1e-10)
        assert np.all(out.variances >= 0.0)

    def test_variance_shrinks_at_training_points(self):
        X, y = _training_set()
        model = fit(_spec(), X, y)
        at_train = predict(model, X).variances
        far = predict(model, np.array([[0.0, 0.0, 0.0, 1.0]])).variances
        assert np.max(at_train) < 1e-8
        assert far[0] > 1e-3

    def test_noise_smooths_interpolation(self):
        X, y = _training_set()
        exact = predict(fit(_spec(), X, y), X).means
        damped = predict(fit(_spec(), X, y, noise=1.0), X).means
        assert np.max(np.abs(exact - y)) < 1e-8
        assert np.linalg.norm(damped) < np.linalg.norm(y)

    def test_empty_query(self):
        X, y = _training_set()
        out = predict(fit(_spec(), X, y), np.zeros((0, 4)))
        assert out.means.shape == (0,)
        assert out.variances.shape == (0,)
        assert out.num_clamped == 0

    def test_empty_rows_are_not_an_empty_query(self):
        X, y = _training_set()
        with pytest.raises(ZeroVector):
            predict(fit(_spec(), X, y), np.zeros((5, 0)))

    def test_empty_query_of_another_dimension(self):
        X, y = _training_set()
        with pytest.raises(DimensionMismatch):
            predict(fit(_spec(), X, y), np.zeros((0, 3)))

    def test_clamp_counter(self):
        X, y = _training_set()
        model = fit(_spec(), X, y)
        out = predict(model, X)
        assert 0 <= out.num_clamped <= X.shape[0]

    def test_query_dimension_check(self):
        X, y = _training_set()
        model = fit(_spec(), X, y)
        with pytest.raises(DimensionMismatch):
            predict(model, np.ones((2, 3)))

    def test_mean_is_linear_in_targets(self):
        X, y = _training_set()
        query = np.array([[1.0, -1.0, 0.5, 0.25]])
        base = predict(fit(_spec(), X, y, noise=0.01), query).means
        doubled = predict(fit(_spec(), X, 2.0 * y, noise=0.01), query).means
        assert doubled[0] == pytest.approx(2.0 * base[0], rel=1e-10)

    def test_repeat_is_bitwise_and_leaves_model_unchanged(self):
        X, y = _training_set(count=40)
        model = fit(_spec(), X, y, noise=0.01)
        chol, alpha = model.chol_lower.copy(), model.alpha.copy()
        query = np.random.default_rng(2).standard_normal((30, 4))
        first, second = predict(model, query), predict(model, query)
        assert np.array_equal(first.means, second.means)
        assert np.array_equal(first.variances, second.variances)
        assert np.array_equal(model.chol_lower, chol)
        assert np.array_equal(model.alpha, alpha)


class TestAgainstReference:
    # predict against the textbook steps on the same fitted model: the solve
    # and the variance reduction are the same calls, so variances match to the
    # bit.  The means are a row reduction, which may round differently from a
    # BLAS product; each sum is within n u |K*| |alpha| of the exact one
    # (3.3e-14 relative at n 300), so the two lie within 1e-13 of each other.
    SIZE = 300
    SPECS = {
        "pure": PureKernel(make_theta_pgf(theta=0.6, a=1.3, c=0.5), 3),
        "cmixed": CMixedKernel(0.5, (0.3, 0.7, 0.2)),
        "series": MixedKernel(tuple(
            theta_pgf_to_series(make_theta_pgf(theta=theta, a=0.5, q=0.25, r=3.0), 32)
            for theta in (0.3, 0.6, 0.8))),
    }

    @pytest.mark.parametrize("kind", SPECS)
    def test_matches_the_reference_steps(self, kind):
        spec = self.SPECS[kind]
        rng = np.random.default_rng(11)
        X, Q = rng.standard_normal((2, self.SIZE, 8))
        y = np.sin(X[:, 0]) + 0.01 * rng.standard_normal(self.SIZE)
        model = fit(spec, X, y, noise=1e-4)
        result = predict(model, Q)
        kstar = cross_gram(spec, Q, model.inputs)
        v = scipy.linalg.solve_triangular(model.chol_lower, kstar.T, lower=True)
        variances = kernel_at_rho(spec, 1.0) - np.einsum("ij,ij->j", v, v)
        assert np.array_equal(result.variances, np.maximum(variances, 0.0))
        assert result.num_clamped == int(np.sum(variances < 0.0))
        bound = 1e-13 * (np.abs(kstar) @ np.abs(model.alpha))
        assert np.all(np.abs(result.means - kstar @ model.alpha) <= bound)


class TestMemory:
    # fit factors the Gram it builds and predict solves in the cross-Gram it
    # builds, so neither peaks much above that one matrix; the remainder is
    # the kernel builder's tiles.
    SIZE = 1000

    def test_peaks(self):
        rng = np.random.default_rng(3)
        X, Q = rng.standard_normal((2, self.SIZE, 8))
        y = rng.standard_normal(self.SIZE)
        spec = _spec(3)
        fit(spec, X[:4], y[:4], noise=0.01)      # import scipy outside the trace
        tracemalloc.start()
        try:
            model = fit(spec, X, y, noise=0.01)
            fit_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            predict(model, Q)
            predict_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        matrix_bytes = 8 * self.SIZE ** 2
        assert fit_peak < 1.25 * matrix_bytes
        assert predict_peak < 1.25 * matrix_bytes


class TestJitterLadder:
    def test_shape(self):
        assert JITTER_LADDER[0] == 0.0
        assert all(a < b for a, b in zip(JITTER_LADDER, JITTER_LADDER[1:]))
