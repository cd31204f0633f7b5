from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from thetakernels.activations import (
    HermiteSeriesActivation,
    ReferenceActivation,
    activation_from_coefficients,
    activation_to_pgf,
    bivariate_expectation,
    reference_activation,
)
from thetakernels.errors import (
    DomainError,
    InvalidCoefficients,
    NotSquareIntegrableWithinBudget,
)
from thetakernels.hermite import half_gaussian_rule, hermite_design
from thetakernels.pgf import make_theta_pgf, theta_coefficients

from conftest import ALL_CASES, draw_case


def _relu_closed_form(s: float) -> float:
    # E[relu'(X) relu'(Z)] route: known closed kernel for the rectifier
    return (math.sqrt(1.0 - s * s) + s * (math.pi - math.acos(s))) / math.pi


class TestReferenceActivation:
    def test_relu_values(self):
        relu = reference_activation("relu")
        scale = math.sqrt(2.0)
        assert relu(-1.0) == 0.0
        assert relu(2.0) == pytest.approx(2.0 * scale, abs=1e-15)

    def test_linear_is_identity_scaled(self):
        linear = reference_activation("linear")
        assert linear.scale == 1.0
        assert linear(-3.7) == -3.7

    def test_prelu_negative_side(self):
        act = reference_activation("prelu", 0.25)
        scale = math.sqrt(2.0 / (1.0 + 0.0625))
        assert act(-2.0) == pytest.approx(-0.5 * scale, abs=1e-15)
        assert act(2.0) == pytest.approx(2.0 * scale, abs=1e-15)

    @pytest.mark.parametrize("spelling", ["prelu(0.25)", "prelu:0.25", "PRELU(0.25)"])
    def test_slope_inside_name(self, spelling):
        act = reference_activation(spelling)
        assert act.name == "prelu"
        assert act.slope == 0.25

    def test_name_errors(self):
        with pytest.raises(DomainError):
            reference_activation("gelu")
        with pytest.raises(DomainError):
            reference_activation("prelu")
        with pytest.raises(DomainError):
            reference_activation("prelu(0.3)", slope=0.5)
        with pytest.raises(DomainError):
            reference_activation("relu", slope=0.5)

    @pytest.mark.parametrize("name,slope", [("relu", None), ("linear", None),
                                            ("prelu", 0.25), ("prelu", -0.5)])
    def test_unit_second_moment(self, name, slope):
        # split at the kink so each piece is smooth for the half-range rule
        act = reference_activation(name, slope)
        t, w = half_gaussian_rule()
        moment = float(np.sum(w * (act(t) ** 2 + act(-t) ** 2)))
        assert moment == pytest.approx(1.0, abs=1e-12)

    def test_array_eval(self):
        relu = reference_activation("relu")
        out = relu(np.array([-1.0, 0.0, 1.0]))
        assert out.shape == (3,)
        assert out[0] == 0.0 and out[1] == 0.0


class TestSeriesActivation:
    def test_pure_linear_coefficients(self):
        act = HermiteSeriesActivation((0.0, 1.0))
        assert act(1.3) == pytest.approx(1.3, abs=1e-15)
        assert act.k_max == 1

    def test_quadratic_term(self):
        act = HermiteSeriesActivation((0.0, 0.0, 1.0))
        x = 0.7
        assert act(x) == pytest.approx(hermite_design(2, x)[2, 0], abs=1e-14)

    def test_from_coefficients_takes_square_roots(self):
        act = activation_from_coefficients([0.25, 0.5])
        assert act.coefficients[0] == 0.5
        assert act.coefficients[1] == pytest.approx(math.sqrt(0.5), abs=1e-15)

    def test_from_coefficients_validation(self):
        with pytest.raises(InvalidCoefficients):
            activation_from_coefficients([])
        with pytest.raises(InvalidCoefficients):
            activation_from_coefficients([0.5, -1e-3])
        with pytest.raises(InvalidCoefficients):
            activation_from_coefficients([0.9, 0.2])
        with pytest.raises(InvalidCoefficients):
            activation_from_coefficients([math.inf])

    def test_rounding_dust_clamped(self):
        act = activation_from_coefficients([0.5, -1e-14])
        assert act.coefficients[1] == 0.0

    def test_budget_enforced_at_construction(self):
        with pytest.raises(InvalidCoefficients):
            HermiteSeriesActivation((1.0, 0.5))

    @pytest.mark.parametrize("eps_tail", [math.nan, -1.0, math.inf])
    def test_eps_tail_checked(self, eps_tail):
        with pytest.raises(InvalidCoefficients):
            HermiteSeriesActivation((0.5,), eps_tail=eps_tail)
        with pytest.raises(InvalidCoefficients):
            activation_from_coefficients([0.25], eps_tail=eps_tail)

    def test_shape_preserved(self):
        act = HermiteSeriesActivation((0.5, 0.5))
        grid = np.zeros((2, 3))
        assert act(grid).shape == (2, 3)


class TestActivationToPgf:
    def test_relu_low_orders(self):
        p = activation_to_pgf(reference_activation("relu"), 5)
        assert p[0] == pytest.approx(1.0 / math.pi, abs=1e-12)
        assert p[1] == pytest.approx(0.5, abs=1e-12)
        assert p[2] == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-12)
        assert p[3] == pytest.approx(0.0, abs=1e-15)

    def test_linear_concentrates_on_order_one(self):
        p = activation_to_pgf(reference_activation("linear"), 4)
        assert p[1] == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(np.delete(p, 1), 0.0, atol=1e-14)

    def test_prelu_order_one(self):
        act = reference_activation("prelu", 0.25)
        p = activation_to_pgf(act, 2)
        expected = act.scale ** 2 * (0.25 + 0.75 * 0.5) ** 2
        assert p[1] == pytest.approx(expected, abs=1e-12)

    def test_series_round_trip(self):
        original = np.array([0.1, 0.3, 0.2, 0.05, 0.0, 0.15])
        act = activation_from_coefficients(original)
        recovered = activation_to_pgf(act, 5)
        assert np.max(np.abs(recovered - original)) < 1e-12

    def test_series_padded_and_truncated(self):
        original = np.array([0.1, 0.3, 0.2, 0.05, 0.0, 0.15])
        act = activation_from_coefficients(original)
        assert np.allclose(activation_to_pgf(act, 2), original[:3], rtol=1e-15, atol=0.0)
        padded = activation_to_pgf(act, 9)
        assert padded.shape == (10,) and np.all(padded[6:] == 0.0)

    def test_series_exact_beyond_quadrature_degree(self):
        # a 200-node rule is exact to degree 399 only: at order 300 it was
        # off by 7.6e-5 here
        p = theta_coefficients(make_theta_pgf(theta=-0.5, a=0.5, q=0.3), 300)
        recovered = activation_to_pgf(activation_from_coefficients(p), 300)
        assert np.allclose(recovered, p, rtol=1e-15, atol=0.0)

    def test_plain_callable_projected_by_quadrature(self):
        original = np.array([0.1, 0.3, 0.2, 0.05, 0.0, 0.15])
        act = activation_from_coefficients(original)
        recovered = activation_to_pgf(lambda x: act(x), 8)
        assert np.max(np.abs(recovered[:6] - original)) < 1e-12
        assert np.max(np.abs(recovered[6:])) < 1e-12

    def test_unnormalized_callable_rejected(self):
        # duck-typed callables skip the constructor check and hit the
        # quadrature budget instead
        with pytest.raises(NotSquareIntegrableWithinBudget):
            activation_to_pgf(lambda x: 2.0 * np.asarray(x), 4)

    def test_k_max_validation(self):
        with pytest.raises(ValueError):
            activation_to_pgf(reference_activation("relu"), -1)


class TestDuality:
    @pytest.mark.parametrize("case", ALL_CASES)
    def test_pgf_round_trip(self, case):
        rng = np.random.default_rng(700 + case)
        for _ in range(3):
            f = draw_case(case, rng)
            p = theta_coefficients(f, 30)
            act = activation_from_coefficients(p)
            recovered = activation_to_pgf(act, 30)
            assert np.max(np.abs(recovered - p)) < 1e-8

    @pytest.mark.parametrize("s", [-0.9, -0.5, 0.0, 0.5, 0.9, 0.99])
    def test_mehler_identity(self, s):
        f = make_theta_pgf(theta=0.5, a=0.5, q=0.25)
        p = theta_coefficients(f, 30)
        act = activation_from_coefficients(p)
        series_sum = float(np.polyval(p[::-1], s))
        assert bivariate_expectation(act, s) == pytest.approx(series_sum, abs=1e-8)


class TestBivariate:
    @pytest.mark.parametrize("s", np.linspace(-0.99, 0.99, 23).tolist())
    def test_relu_matches_closed_kernel(self, s):
        relu = reference_activation("relu")
        assert bivariate_expectation(relu, s) == pytest.approx(
            _relu_closed_form(s), abs=1e-12)

    def test_endpoints(self):
        relu = reference_activation("relu")
        assert bivariate_expectation(relu, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert bivariate_expectation(relu, -1.0) == pytest.approx(
            _relu_closed_form(-1.0), abs=1e-12)

    @given(s=st.floats(-1.0, 1.0))
    def test_linear_returns_correlation(self, s):
        linear = reference_activation("linear")
        assert bivariate_expectation(linear, s) == pytest.approx(s, abs=1e-12)

    def test_prelu_routes_agree(self):
        act = reference_activation("prelu", 0.25)
        p = activation_to_pgf(act, 96)
        for s in (-0.9, -0.3, 0.0, 0.4, 0.9):
            series_sum = float(np.polyval(p[::-1], s))
            assert bivariate_expectation(act, s) == pytest.approx(series_sum, abs=1e-7)

    def test_series_endpoint_reduction(self):
        act = activation_from_coefficients([0.2, 0.5, 0.3])
        total = 0.2 + 0.5 + 0.3
        alternating = 0.2 - 0.5 + 0.3
        assert bivariate_expectation(act, 1.0) == pytest.approx(total, abs=1e-12)
        assert bivariate_expectation(act, -1.0) == pytest.approx(alternating, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            bivariate_expectation(reference_activation("relu"), 1.01)

