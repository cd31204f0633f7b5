from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from thetakernels.activations import activation_from_coefficients, bivariate_expectation
from thetakernels.errors import NumericalInstability
from thetakernels.hermite import (
    gauss_hermite_rule,
    half_gaussian_hermite_moments,
    half_gaussian_rule,
    hermite_design,
    hermite_series,
)
from thetakernels.pgf import make_theta_pgf, theta_coefficients


def _h(k: int, x):
    """h_k(x) as row k of the design table, in x's shape."""
    arr = np.asarray(x, dtype=float)
    return hermite_design(k, arr)[k].reshape(arr.shape)


class TestHermiteValue:
    def test_low_orders(self):
        x = 1.7
        assert _h(0, x) == 1.0
        assert _h(1, x) == x
        assert _h(2, x) == pytest.approx((x * x - 1.0) / math.sqrt(2.0))
        assert _h(3, x) == pytest.approx((x ** 3 - 3.0 * x) / math.sqrt(6.0))

    def test_array_input(self):
        x = np.array([-1.0, 0.0, 2.0])
        out = hermite_design(2, x)[2]
        assert out.shape == (3,)
        assert out[1] == pytest.approx(-1.0 / math.sqrt(2.0))

    @given(k=st.integers(0, 30))
    def test_parity(self, k):
        x = 0.83
        sign = -1.0 if k % 2 else 1.0
        assert _h(k, -x) == pytest.approx(sign * _h(k, x), rel=1e-12, abs=1e-12)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            hermite_design(-1, 0.0)
        with pytest.raises(ValueError):
            hermite_design(1.5, 0.0)
        with pytest.raises(ValueError):
            hermite_series([], 0.0)
        with pytest.raises(ValueError):
            hermite_series([[1.0]], 0.0)


class TestDesignMatrix:
    def test_matches_single_evaluations(self):
        x = np.linspace(-2.0, 2.0, 7)
        design = hermite_design(10, x)
        assert design.shape == (11, 7)
        for k in (0, 1, 5, 10):
            unit = np.zeros(k + 1)
            unit[k] = 1.0
            assert np.allclose(design[k], hermite_series(unit, x), atol=1e-14)

    def test_k_max_zero(self):
        assert hermite_design(0, np.array([3.0])).shape == (1, 1)


class TestClenshawSeries:
    @pytest.mark.parametrize("k_max", [0, 1, 64])
    def test_matches_design_on_2d_array(self, k_max):
        p = theta_coefficients(make_theta_pgf(theta=0.5, a=0.5, q=0.3), k_max)
        c = np.sqrt(p)
        x = np.random.default_rng(k_max).standard_normal((16, 40))
        expected = (c @ hermite_design(k_max, x.ravel())).reshape(x.shape)
        out = hermite_series(c, x)
        assert out.shape == x.shape
        assert np.max(np.abs(out - expected)) < 1e-13

    def test_scalar_input_gives_float(self):
        value = hermite_series([0.0, 0.0, 1.0], 0.7)
        assert isinstance(value, float)
        assert value == pytest.approx((0.49 - 1.0) / math.sqrt(2.0), abs=1e-15)

    def test_activation_call_memory(self):
        # One sampler chunk at width 1024: three (256, 1024) arrays, no
        # (k_max + 1)-row design table.
        act = activation_from_coefficients(
            theta_coefficients(make_theta_pgf(theta=0.5, a=0.5, q=0.3), 64))
        x = np.random.default_rng(0).standard_normal((256, 1024))
        tracemalloc.start()
        try:
            act(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


class TestGaussHermiteRule:
    def test_orthonormality(self):
        points, weights = gauss_hermite_rule(200)
        design = hermite_design(40, points)
        gram = (design * weights) @ design.T
        assert np.max(np.abs(gram - np.eye(41))) < 1e-10

    def test_gaussian_moments(self):
        points, weights = gauss_hermite_rule(40)
        assert weights.sum() == pytest.approx(1.0, abs=1e-14)
        assert float(weights @ points ** 2) == pytest.approx(1.0, abs=1e-12)
        assert float(weights @ points ** 4) == pytest.approx(3.0, abs=1e-12)
        assert float(weights @ points ** 6) == pytest.approx(15.0, abs=1e-11)

    def test_cached(self):
        left = gauss_hermite_rule(64)
        right = gauss_hermite_rule(64)
        assert left[0] is right[0]

    def test_cached_rule_is_read_only(self):
        points, weights = gauss_hermite_rule(3)
        before = points.copy(), weights.copy()
        for array in (points, weights):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array *= 2.0
        again = gauss_hermite_rule(3)
        assert again[0] is points
        assert all(np.array_equal(a, b) for a, b in zip(again, before))
        coefficients = [0.2, 0.3, 0.1]
        assert bivariate_expectation(activation_from_coefficients(coefficients),
                                     0.5) == pytest.approx(0.375, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            gauss_hermite_rule(0)

    def test_overflowing_rule_raises(self):
        # numpy's physicists' rule underflows to all-zero weights at 371 nodes
        # and overflows to NaN weights from 372 nodes on
        for num_nodes in (371, 372, 400):
            with pytest.raises(NumericalInstability):
                gauss_hermite_rule(num_nodes)
        points, weights = gauss_hermite_rule(370)
        assert np.all(np.isfinite(points)) and np.all(np.isfinite(weights))
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_ceiling_checked_before_the_rule_is_built(self, monkeypatch):
        def refuse(num_nodes):
            raise AssertionError(f"hermgauss({num_nodes}) was called")

        with monkeypatch.context() as patch:
            patch.setattr(np.polynomial.hermite, "hermgauss", refuse)
            with pytest.raises(NumericalInstability, match="k_max = 1499"):
                bivariate_expectation(activation_from_coefficients([1 / 1500] * 1500), 0.5)
            with pytest.raises(NumericalInstability, match="at most 370"):
                gauss_hermite_rule(371)
        gauss_hermite_rule.cache_clear()
        points, weights = gauss_hermite_rule(370)
        assert points.shape == weights.shape == (370,)


class TestHalfGaussianRule:
    def test_total_mass(self):
        _, weights = half_gaussian_rule()
        assert weights.sum() == pytest.approx(0.5, abs=1e-13)

    def test_first_moment(self):
        points, weights = half_gaussian_rule()
        assert float(weights @ points) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi),
                                                        abs=1e-13)

    def test_cached_rule_is_read_only(self):
        points, weights = half_gaussian_rule()
        before = points.copy(), weights.copy()
        for array in (points, weights):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0
        again = half_gaussian_rule()
        assert again[0] is points
        assert all(np.array_equal(a, b) for a, b in zip(again, before))

    def test_nodes_inside_range(self):
        points, _ = half_gaussian_rule()
        assert points.min() > 0.0
        assert points.max() < 13.0


class TestCentralValues:
    def test_odd_orders_vanish(self):
        assert np.all(hermite_design(30, 0.0)[1::2, 0] == 0.0)

    @given(k=st.integers(0, 40))
    def test_matches_recursion(self, k):
        # closed form h_k(0) = prod_{j = 2, 4, .., k} -sqrt((j - 1) / j) for even k
        expected = 0.0 if k % 2 else math.prod(
            -math.sqrt(j - 1) / math.sqrt(j) for j in range(2, k + 1, 2))
        assert hermite_design(k, 0.0)[k, 0] == pytest.approx(expected, rel=1e-13, abs=1e-13)


class TestHalfRangeMoments:
    def test_closed_values(self):
        m = half_gaussian_hermite_moments(4)
        assert m[0] == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-15)
        assert m[1] == 0.5
        assert m[2] == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)), abs=1e-15)
        assert m[4] == pytest.approx(-0.08143375198381997, abs=1e-15)

    def test_odd_orders_above_one_vanish(self):
        assert np.all(half_gaussian_hermite_moments(30)[3::2] == 0.0)

    @given(k=st.integers(0, 24))
    def test_against_quadrature(self, k):
        points, weights = half_gaussian_rule()
        numeric = float(weights @ (points * hermite_design(k, points)[k]))
        assert half_gaussian_hermite_moments(k)[k] == pytest.approx(numeric, abs=1e-12)

    def test_vector_form(self):
        vec = half_gaussian_hermite_moments(6)
        assert vec.shape == (7,)
        assert vec[3] == 0.0
        assert vec[1] == 0.5
        assert half_gaussian_hermite_moments(0).shape == (1,)
