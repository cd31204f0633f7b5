from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from thetakernels import activations
from thetakernels.activations import (
    HermiteSeriesActivation,
    ReferenceActivation,
    activation_from_coefficients,
    activation_to_pgf,
    bivariate_expectation,
    reference_activation,
)
from thetakernels.errors import DomainError, InvalidCoefficients, NumericalInstability
from thetakernels.hermite import gauss_hermite_rule, half_gaussian_rule, hermite_design
from thetakernels.pgf import SeriesPgf, make_theta_pgf, theta_coefficients

from conftest import ALL_CASES, draw_case


def _relu_closed_form(s: float) -> float:
    # E[relu'(X) relu'(Z)] route: known closed kernel for the rectifier
    return (math.sqrt(1.0 - s * s) + s * (math.pi - math.acos(s))) / math.pi


_PARITY_CASES = [("relu", None), ("linear", None), ("prelu", 0.25), ("prelu", -0.5),
                 ("prelu", 2.5)]
_PARITY_GRID = np.array([-1e308, -5.0, -1.0, -0.3, -5e-324, -0.0, 0.0, 5e-324,
                         0.3, 1.0, 5.0, 1e308, math.nan])


def _named(name, slope):
    # the one spelling of a (name, slope) case: relu, linear or prelu(S)
    return reference_activation(name if slope is None else f"prelu({slope!r})")


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
        act = reference_activation("prelu(0.25)")
        scale = math.sqrt(2.0 / (1.0 + 0.0625))
        assert act(-2.0) == pytest.approx(-0.5 * scale, abs=1e-15)
        assert act(2.0) == pytest.approx(2.0 * scale, abs=1e-15)

    @pytest.mark.parametrize("spelling", ["prelu(0.25)", "PRELU(0.25)"])
    def test_slope_inside_name(self, spelling):
        act = reference_activation(spelling)
        assert act.slope == 0.25

    def test_name_errors(self):
        with pytest.raises(DomainError):
            reference_activation("gelu")
        with pytest.raises(DomainError):
            reference_activation("prelu")
        with pytest.raises(DomainError):     # slope^2 overflows: scale 0, phi = 0
            reference_activation("prelu(-1e160)")

    @pytest.mark.parametrize("name", ["prelu0.25", "prelu)0.25(", "prelu((0.25",
                                      "prelu:0.25", "prelu::0.25", "prelu()", "prelu(x)"])
    def test_malformed_prelu_names(self, name):
        # prelu(S) is the one spelling with a slope; the first five read as
        # prelu(0.25) when the parser stripped "():" around the slope
        with pytest.raises(DomainError, match="relu, linear or prelu"):
            reference_activation(name)

    @pytest.mark.parametrize("name,slope", [("relu", None), ("linear", None),
                                            ("prelu", 0.25), ("prelu", -0.5)])
    def test_unit_second_moment(self, name, slope):
        # split at the kink so each piece is smooth for the half-range rule
        act = _named(name, slope)
        t, w = half_gaussian_rule()
        moment = float(np.sum(w * (act(t) ** 2 + act(-t) ** 2)))
        assert moment == pytest.approx(1.0, abs=1e-12)

    def test_array_eval(self):
        relu = reference_activation("relu")
        out = relu(np.array([-1.0, 0.0, 1.0]))
        assert out.shape == (3,)
        assert out[0] == 0.0 and out[1] == 0.0

    @pytest.mark.parametrize("name,slope", _PARITY_CASES)
    def test_matches_select_form(self, name, slope):
        # the select form scale * where(x > 0, x, slope * x) is the
        # reference, bit for bit on finite inputs and NaN, contiguous,
        # strided and scalar; the zeros are pinned by the next test
        act = _named(name, slope)
        rng = np.random.default_rng(12)
        grid = np.concatenate([_PARITY_GRID, rng.standard_normal(64),
                               1e300 * rng.standard_normal(8)])
        pairs = np.empty((grid.size, 2))
        pairs[:, 1] = grid
        with np.errstate(over="ignore"):
            expected = act.scale * np.where(grid > 0.0, grid, act.slope * grid)
            scalars = [act(float(x)) for x in grid]
            got = {"contiguous": act(grid), "strided": act(pairs[:, 1]),
                   "scalar": np.array(scalars)}
        assert all(type(v) is float for v in scalars)
        # where the select form's slope * x overflows (prelu(2.5) at -1e308)
        # phi(x) is finite; test_overflowing_slope_product pins those entries
        checked = (grid != 0.0) & ~(np.isinf(expected) & np.isfinite(grid))
        for layout, out in got.items():
            assert [x.hex() for x in out[checked].tolist()] == \
                [x.hex() for x in expected[checked].tolist()], layout

    @pytest.mark.parametrize("name,slope", _PARITY_CASES)
    def test_zero_keeps_its_sign(self, name, slope):
        # the select form gave -0.0 for +0.0 (and +0.0 for -0.0) at negative
        # slopes; relu(-0.0) stays -0.0, as the CLI prints it
        act = _named(name, slope)
        for x in (-0.0, 0.0):
            assert act(x) == 0.0
            assert math.copysign(1.0, act(x)) == math.copysign(1.0, x)
            assert math.copysign(1.0, act(np.array([x]))[0]) == math.copysign(1.0, x)

    @pytest.mark.parametrize("name,slope,at_minus_inf", [
        ("relu", None, -0.0),               # the limit 0, with -inf's sign
        ("linear", None, -math.inf),
        ("prelu", 0.25, -math.inf),
        ("prelu", -0.5, math.inf),
        ("prelu", 2.5, -math.inf),
    ])
    def test_infinities(self, name, slope, at_minus_inf):
        # the limits, with no warning (RuntimeWarnings are errors here)
        act = _named(name, slope)
        assert act(math.inf) == math.inf
        assert act(-math.inf).hex() == at_minus_inf.hex()
        assert [v.hex() for v in act(np.array([-math.inf, math.inf])).tolist()] == \
            [at_minus_inf.hex(), math.inf.hex()]

    @pytest.mark.parametrize("slope", [2.5, -2.5])
    def test_overflowing_slope_product(self, slope):
        # slope * x leaves the float range before the scale brings it back;
        # the value is the product slope * scale * x (no warning: warnings
        # are errors here), and -inf or inf only where that leaves the range
        mpmath = pytest.importorskip("mpmath")
        act = reference_activation(f"prelu({slope})")
        for x in (-1e308, -7e307):
            with mpmath.workdps(60):
                exact = mpmath.mpf(slope) * mpmath.mpf(act.scale) * mpmath.mpf(x)
                for value in (act(x), act(np.array([x]))[0]):
                    assert abs(value - exact) <= 4e-16 * abs(exact)
        assert act(-1.5e308) == math.copysign(math.inf, -slope)

    @pytest.mark.parametrize("name,slope", _PARITY_CASES)
    def test_extremes_do_not_warn(self, name, slope):
        # prelu(2.5) at 1e308: the discarded 2.5 * x is past the float range
        act = _named(name, slope)
        grid = np.array([-math.inf, -1e308, -1e300, 1e300, 1e308, math.inf])
        act(grid)
        for x in grid.tolist():
            act(x)


class TestSeriesActivation:
    def test_pure_linear_coefficients(self):
        act = HermiteSeriesActivation(SeriesPgf((0.0, 1.0)))
        assert act(1.3) == pytest.approx(1.3, abs=1e-15)
        assert act.k_max == 1

    def test_quadratic_term(self):
        act = HermiteSeriesActivation(SeriesPgf((0.0, 0.0, 1.0)))
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
            HermiteSeriesActivation(SeriesPgf((1.0, 0.25)))

    @pytest.mark.parametrize("eps_tail", [math.nan, -1.0, math.inf])
    def test_eps_tail_checked(self, eps_tail):
        # the tail mass lives on the activation's SeriesPgf, checked there
        with pytest.raises(InvalidCoefficients):
            SeriesPgf((0.25,), eps_tail=eps_tail)

    def test_is_its_pgf(self):
        pgf = SeriesPgf((0.25, 0.5), eps_tail=0.125)
        act = HermiteSeriesActivation(pgf)
        assert act.pgf is pgf and act.k_max == 1
        assert act.coefficients == (0.5, math.sqrt(0.5))
        assert not hasattr(act, "eps_tail")

    @pytest.mark.parametrize("pgf", [(0.5, 0.5), [0.25], None,
                                     make_theta_pgf(theta=0.5, a=0.5, q=0.3)])
    def test_needs_a_series_pgf(self, pgf):
        with pytest.raises(DomainError, match="SeriesPgf"):
            HermiteSeriesActivation(pgf)

    def test_shape_preserved(self):
        act = HermiteSeriesActivation(SeriesPgf((0.25, 0.25)))
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
        act = reference_activation("prelu(0.25)")
        p = activation_to_pgf(act, 2)
        expected = act.scale ** 2 * (0.25 + 0.75 * 0.5) ** 2
        assert p[1] == pytest.approx(expected, abs=1e-12)

    def test_series_round_trip(self):
        original = np.array([0.1, 0.3, 0.2, 0.05, 0.0, 0.15])
        act = activation_from_coefficients(original)
        recovered = activation_to_pgf(act, 5)
        assert np.max(np.abs(recovered - original)) < 1e-12

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_series_returns_its_pgf_exactly(self, case):
        # p_k, not sqrt(p_k)^2: squaring a_k = sqrt(p_k) back missed p_k in
        # the last bit in 265 of these 585 rows
        p = theta_coefficients(draw_case(case, np.random.default_rng(800 + case)), 64)
        assert np.array_equal(activation_to_pgf(activation_from_coefficients(p), 64), p)

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
        # E[phi^2] = 1, and phi(-x) phi(x) = slope * scale^2 * x^2 up to sign
        for name, slope in _PARITY_CASES:
            act = _named(name, slope)
            assert bivariate_expectation(act, 1.0) == pytest.approx(1.0, abs=1e-15), name
            assert bivariate_expectation(act, -1.0) == pytest.approx(
                -act.slope * act.scale ** 2, abs=1e-15), name

    @given(s=st.floats(-1.0, 1.0))
    def test_linear_returns_correlation(self, s):
        linear = reference_activation("linear")
        assert bivariate_expectation(linear, s) == pytest.approx(s, abs=1e-12)

    def test_prelu_routes_agree(self):
        act = reference_activation("prelu(0.25)")
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

    @pytest.mark.parametrize("theta", [-0.5, 0.5])
    @pytest.mark.parametrize("k_max", [250, 300, 369])
    def test_series_exact_at_high_order(self, theta, k_max):
        # phi(x) phi(z) has degree 2 * k_max; a fixed 200-node rule was off
        # by -2.1e-3 at s = 1 for theta -0.5, k_max 250
        p = theta_coefficients(make_theta_pgf(theta=theta, a=0.5, q=0.3), k_max)
        act = activation_from_coefficients(p)
        for s in (1.0, 0.9, -0.7):
            series_sum = float(np.polyval(p[::-1], s))
            assert bivariate_expectation(act, s) == pytest.approx(series_sum, abs=1e-13)

    @pytest.mark.parametrize("theta", [-0.5, 0.5])
    @pytest.mark.parametrize("k_max", [0, 1, 2, 7, 30, 64, 150])
    def test_series_exact_with_smallest_rule(self, theta, k_max, monkeypatch):
        # phi(x) phi(s x + beta y) has degree 2 * k_max in x and k_max in y,
        # so k_max + 1 nodes are exact; a larger rule would only add work
        asked = []

        def spy(num_nodes):
            asked.append(num_nodes)
            return gauss_hermite_rule(num_nodes)

        monkeypatch.setattr(activations, "gauss_hermite_rule", spy)
        p = theta_coefficients(make_theta_pgf(theta=theta, a=0.5, q=0.3), k_max)
        act = activation_from_coefficients(p)
        correlations = (-1.0, -0.95, -0.3, 0.0, 0.5, 0.95, 1.0)
        for s in correlations:
            series_sum = math.fsum(pk * s ** k for k, pk in enumerate(p.tolist()))
            assert bivariate_expectation(act, s) == pytest.approx(series_sum, abs=1e-13)
        assert asked == [k_max + 1] * len(correlations)

    def test_series_beyond_hermite_rule_raises(self):
        # k_max 370 needs 371 nodes, where numpy's weights are all zero
        p = theta_coefficients(make_theta_pgf(theta=-0.5, a=0.5, q=0.3), 370)
        with pytest.raises(NumericalInstability, match=r"k_max = 370 .* k_max <= 369"):
            bivariate_expectation(activation_from_coefficients(p), 0.5)

    def test_domain(self):
        with pytest.raises(DomainError):
            bivariate_expectation(reference_activation("relu"), 1.01)

