from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetakernels.errors import (
    DerivedCMismatch,
    DimensionUnsupported,
    DomainError,
    EmptySequence,
    InvalidCoefficients,
    InvalidRegime,
    NumericalInstability,
    RegimeViolation,
)
from thetakernels.activations import activation_to_pgf, reference_activation
from thetakernels.hermite import gauss_hermite_rule, hermite_design
from thetakernels.kernels import (
    PureKernel,
    _kernel_evaluator,
    eigensystem,
    kernel_at_rho,
    multiplicity,
)
from thetakernels.pgf import (
    ComposedPgf,
    Regime,
    SeriesPgf,
    ThetaParams,
    derived_c,
    make_theta_pgf,
    pgf_compose_sequence,
    pgf_iterate_closed,
    series_coefficients,
    theta_coefficients,
    theta_pgf_to_series,
)

from conftest import ALL_CASES, draw_case


class TestRegimeValidation:
    @pytest.mark.parametrize("case", ALL_CASES)
    def test_cases_construct(self, case):
        rng = np.random.default_rng(100 + case)
        for _ in range(10):
            f = draw_case(case, rng)
            assert isinstance(f.params.regime, Regime)

    def test_regime_inference(self):
        assert make_theta_pgf(theta=0.5, a=2.0, c=1.0).params.regime is Regime.MAIN_SUPER
        assert make_theta_pgf(theta=0.5, a=0.5, q=0.2).params.regime is Regime.MAIN_SUB_1
        assert make_theta_pgf(theta=-0.5, a=0.5, q=0.2, r=2.0).params.regime is Regime.MAIN_SUB_R
        assert make_theta_pgf(theta=0.0, a=0.5, q=0.2).params.regime is Regime.ZERO_1
        assert make_theta_pgf(theta=0.0, a=0.5, q=0.2, r=1.5).params.regime is Regime.ZERO_R
        assert make_theta_pgf(theta=-1.0, a=0.5, q=0.2).params.regime is Regime.MINUS_ONE

    def test_derived_c_formula(self):
        # theta=0.5, a=0.5, q=0.25: c = 0.5 * 0.75**-0.5
        f = make_theta_pgf(theta=0.5, a=0.5, q=0.25)
        assert f.params.c == pytest.approx(0.5 * 0.75 ** -0.5, abs=1e-15)

    def test_q_from_c_roundtrip(self):
        f = make_theta_pgf(theta=0.5, a=0.5, q=0.25)
        g = make_theta_pgf(theta=0.5, a=0.5, c=f.params.c)
        assert g.params.q == pytest.approx(0.25, abs=1e-14)

    def test_supplying_both_consistent_ok(self):
        c = derived_c(0.5, 0.5, 0.25, 1.0)
        f = make_theta_pgf(theta=0.5, a=0.5, c=c, q=0.25)
        assert f.params.q == 0.25

    def test_derived_c_mismatch(self):
        with pytest.raises(DerivedCMismatch):
            make_theta_pgf(theta=0.5, a=0.5, q=0.25, c=0.9)

    @pytest.mark.parametrize("kwargs", [
        dict(theta=2.0, a=1.0, c=1.0),            # theta above 1
        dict(theta=-1.5, a=0.5, q=0.2),           # theta below -1
        dict(theta=-0.5, a=2.0, q=0.2),           # negative theta with a > 1
        dict(theta=0.5, a=1.5, c=1.0, r=2.0),     # supercritical needs r = 1
        dict(theta=0.5, a=0.5),                   # subcritical without q or c
        dict(theta=0.0, a=1.5, q=0.2),            # zero branch needs a < 1
        dict(theta=0.0, a=0.5, q=1.0),            # q = 1 with r = 1
        dict(theta=-1.0, a=0.5, q=0.5, r=2.0),    # affine branch pinned to r = 1
        dict(theta=1.0, a=1.0, c=-0.5),           # c must be positive
        dict(theta=0.5, a=0.5, q=1.5),            # q above 1, checked before c is derived
        dict(theta=-0.5, a=0.5, q=2.5, r=2.0),    # q above 1 with r > 1
        dict(theta=-0.01, a=0.5, c=1e10),         # q derived from c overflows to -inf
        dict(theta=5e-324, a=0.5, q=0.3),         # subnormal theta
        dict(theta=-1e-310, a=0.5, q=0.3, r=2.0),  # subnormal theta with r > 1
    ])
    def test_inadmissible_parameters(self, kwargs):
        with pytest.raises(RegimeViolation):
            make_theta_pgf(**kwargs)

    def test_unused_fields_must_be_none(self):
        with pytest.raises(RegimeViolation):
            ThetaParams(theta=1.0, a=2.0, c=1.0, q=0.5, r=1.0)
        with pytest.raises(RegimeViolation):
            ThetaParams(theta=0.0, a=0.5, c=0.3, q=0.2, r=1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(RegimeViolation):
            make_theta_pgf(theta=math.nan, a=1.0, c=1.0)
        with pytest.raises(RegimeViolation):
            make_theta_pgf(theta=1.0, a=math.inf, c=1.0)


class TestEval:
    def test_hand_values_critical(self):
        # f(s) = 1 - (1/(1-s) + 1)**-1 at theta = a = c = 1
        f = make_theta_pgf(theta=1.0, a=1.0, c=1.0)
        assert f.eval(0.0) == pytest.approx(0.5, abs=1e-15)
        assert f.eval(0.5) == pytest.approx(1.0 - (2.0 + 1.0) ** -1.0, abs=1e-15)
        assert f.eval(1.0) == 1.0

    def test_full_mass_at_one_for_supercritical(self):
        f = make_theta_pgf(theta=0.7, a=2.0, c=0.3)
        assert f.eval(1.0) == 1.0
        assert f.mass() == 1.0

    def test_defective_mass(self):
        assert make_theta_pgf(theta=0.5, a=0.5, q=0.5, r=2.0).mass() < 1.0
        assert make_theta_pgf(theta=-0.5, a=0.5, q=0.2).mass() < 1.0
        assert make_theta_pgf(theta=-1.0, a=0.5, q=0.2).mass() < 1.0

    def test_affine_branch_values(self):
        f = make_theta_pgf(theta=-1.0, a=0.3, q=0.5)
        assert f.eval(0.0) == pytest.approx(0.35, abs=1e-15)
        assert f.eval(1.0) == pytest.approx(0.65, abs=1e-15)

    def test_zero_branch_value(self):
        f = make_theta_pgf(theta=0.0, a=0.4, q=0.0)
        assert f.eval(0.0) == 0.0
        assert f.eval(0.5) == pytest.approx(1.0 - 0.5 ** 0.4, abs=1e-15)

    def test_domain_error(self):
        f = make_theta_pgf(theta=1.0, a=1.0, c=1.0)
        with pytest.raises(DomainError):
            f.eval(1.5)
        with pytest.raises(DomainError):
            f.eval(-0.1)
        with pytest.raises(DomainError):
            f.eval(np.array([0.2, 1.2]))

    @pytest.mark.parametrize("form", ["theta", "series", "composed"])
    @pytest.mark.parametrize("bad", [math.nan, [0.5, math.nan]])
    def test_non_finite_argument(self, form, bad):
        f = make_theta_pgf(theta=1.0, a=1.0, c=1.0)
        pgf = {"theta": f, "series": SeriesPgf((0.5, 0.5)),
               "composed": pgf_compose_sequence([f, f])}[form]
        with pytest.raises(DomainError):
            pgf.eval(bad)

    def test_array_eval(self):
        f = make_theta_pgf(theta=1.0, a=1.0, c=1.0)
        s = np.array([0.0, 0.5, 1.0])
        out = f.eval(s)
        assert out.shape == (3,)
        assert out[0] == 0.5 and out[2] == 1.0

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_monotone_and_bounded(self, case):
        rng = np.random.default_rng(200 + case)
        f = draw_case(case, rng)
        s = np.linspace(0.0, 1.0, 101)
        out = f.eval(s)
        assert np.all(np.diff(out) >= -1e-12)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_extended_eval_complex(self):
        f = make_theta_pgf(theta=1.0, a=1.0, c=1.0)
        z = 0.3 + 0.2j
        direct = 1.0 - 1.0 / (1.0 / (1.0 - z) + 1.0)
        assert abs(f.eval_extended(z) - direct) < 1e-15

    def test_near_zero_theta_switches_to_zero_form(self):
        close = make_theta_pgf(theta=1e-12, a=0.4, q=0.2)
        exact = make_theta_pgf(theta=0.0, a=0.4, q=0.2)
        s = np.linspace(0.0, 1.0, 11)
        assert np.allclose(close.eval(s), exact.eval(s), atol=1e-9)


class TestIterate:
    def test_single_step_is_identity(self):
        f = make_theta_pgf(theta=0.7, a=1.5, c=0.4)
        g = pgf_iterate_closed(f, 1)
        assert g.params == f.params

    def test_two_fold_hand_value(self):
        f = make_theta_pgf(theta=1.0, a=1.0, c=1.0)
        assert pgf_iterate_closed(f, 2).eval(0.0) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_affine_three_fold(self):
        f = make_theta_pgf(theta=-1.0, a=0.3, q=0.5)
        g = pgf_iterate_closed(f, 3)
        assert g.eval(0.0) == pytest.approx((1.0 - 0.027) * 0.5, abs=1e-15)

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_iterate_matches_sequential(self, case):
        rng = np.random.default_rng(300 + case)
        f = draw_case(case, rng)
        s = np.linspace(0.0, 1.0, 21)
        for n in (2, 3, 5):
            closed = pgf_iterate_closed(f, n).eval(s)
            seq = s.copy()
            for _ in range(n):
                seq = f.eval(seq)
            assert np.max(np.abs(closed - seq)) < 1e-12

    @given(m=st.integers(1, 6), n=st.integers(1, 6))
    def test_iterate_composes_multiplicatively(self, m, n):
        f = make_theta_pgf(theta=0.5, a=1.2, c=0.3)
        lhs = pgf_iterate_closed(f, m * n)
        rhs = pgf_iterate_closed(pgf_iterate_closed(f, m), n)
        assert lhs.params.a == pytest.approx(rhs.params.a, rel=1e-12)
        assert lhs.params.c == pytest.approx(rhs.params.c, rel=1e-12)

    def test_subcritical_keeps_fixed_point(self):
        f = make_theta_pgf(theta=0.5, a=0.5, q=0.25)
        g = pgf_iterate_closed(f, 7)
        assert g.params.q == 0.25
        assert g.eval(0.25) == pytest.approx(0.25, abs=1e-12)

    def test_depth_validation(self):
        f = make_theta_pgf(theta=1.0, a=1.0, c=1.0)
        with pytest.raises(ValueError):
            pgf_iterate_closed(f, 0)
        with pytest.raises(ValueError):
            pgf_iterate_closed(f, 2.5)

    def test_overflow_raises(self):
        f = make_theta_pgf(theta=1.0, a=2.0, c=1.0)
        with pytest.raises(NumericalInstability):
            pgf_iterate_closed(f, 10 ** 9)

    def test_underflow_raises(self):
        f = make_theta_pgf(theta=0.5, a=0.5, q=0.25)
        with pytest.raises(NumericalInstability):
            pgf_iterate_closed(f, 10 ** 4)


class TestCoefficients:
    def test_geometric_special_case(self):
        # theta = a = c = r = 1 collapses to p_k = 2**-(k+1)
        f = make_theta_pgf(theta=1.0, a=1.0, c=1.0)
        p = theta_coefficients(f, 12)
        assert np.allclose(p, 0.5 ** (np.arange(13) + 1.0), atol=1e-15)

    def test_zero_branch_hand_values(self):
        f = make_theta_pgf(theta=0.0, a=0.4, q=0.0)
        p = theta_coefficients(f, 3)
        assert p[0] == 0.0
        assert p[1] == pytest.approx(0.4, abs=1e-15)
        assert p[2] == pytest.approx(0.12, abs=1e-15)
        assert p[3] == pytest.approx(0.4 * 0.6 * 1.6 / 6.0, abs=1e-15)

    def test_affine_branch_coefficients(self):
        f = make_theta_pgf(theta=-1.0, a=0.3, q=0.5)
        p = theta_coefficients(f, 5)
        assert p[0] == pytest.approx(0.35)
        assert p[1] == 0.3
        assert np.all(p[2:] == 0.0)

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_against_contour_oracle(self, case):
        rng = np.random.default_rng(400 + case)
        for _ in range(3):
            f = draw_case(case, rng)
            for k_max in (24, 160):
                formulas = theta_coefficients(f, k_max)
                oracle = series_coefficients(f, k_max)
                assert np.max(np.abs(formulas - oracle)) < 1e-10

    @pytest.mark.parametrize("case", (1, 2, 3, 5, 7, 9, "theta=-0.95"))
    def test_main_branch_against_high_precision_b_table(self, case):
        """The paper's main-branch formula, run in 120-digit arithmetic:

            p_k = a * g**(-(1 + theta)/theta) * r**(1 - k) / k!
                  * sum_{i=1}^{k-1} x**i * b[i, k],

        with g = a + c * r**theta, x = c * r**theta / g and the triangular
        table b[1, 2] = 1 + theta, b[0, k] = b[k, k] = 0,
        b[i, k] = (k - 2 - i*theta) * b[i, k-1] + (1 + i*theta) * b[i-1, k-1].
        Its terms grow like k! and cancel for theta < 0, hence the digits.
        """
        mpmath = pytest.importorskip("mpmath")
        k_max = 200
        if case == "theta=-0.95":
            f = make_theta_pgf(theta=-0.95, a=0.5, q=0.3)
        else:
            f = draw_case(case, np.random.default_rng(700 + case))
        with mpmath.workdps(120):
            theta, a, c, r = (mpmath.mpf(v) for v in
                              (f.params.theta, f.params.a, f.params.c, f.params.r))
            g = a + c * r ** theta
            x = c * r ** theta / g
            prefac = a / g ** ((1 + theta) / theta)
            ref = [r - (a * r ** -theta + c) ** (-1 / theta), a * g ** (-1 - 1 / theta)]
            i_theta = [i * theta for i in range(k_max + 1)]
            x_pow = [x ** i for i in range(k_max + 1)]
            column = [mpmath.mpf(0), 1 + theta, mpmath.mpf(0)]     # b[., 2]
            fact = mpmath.mpf(2)
            for k in range(2, k_max + 1):
                if k > 2:
                    column = [mpmath.mpf(0)] + [
                        (k - 2 - i_theta[i]) * column[i] + (1 + i_theta[i]) * column[i - 1]
                        for i in range(1, k)] + [mpmath.mpf(0)]
                    fact *= k
                inner = mpmath.fdot(x_pow[1:k], column[1:k])
                ref.append(prefac * r ** (1 - k) / fact * inner)
            ref = np.array([float(v) for v in ref])
        p = theta_coefficients(f, k_max)
        assert np.all(np.isfinite(p))
        assert np.max(np.abs(p - ref)) < 1e-13

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_nonnegative_and_mass_bounded(self, case):
        rng = np.random.default_rng(500 + case)
        for _ in range(5):
            f = draw_case(case, rng)
            p = theta_coefficients(f, 40)
            assert np.all(p >= 0.0)
            assert p.sum() <= 1.0 + 1e-10
            assert p.sum() <= f.mass() + 1e-10

    def test_kmax_zero(self):
        f = make_theta_pgf(theta=1.0, a=1.0, c=1.0)
        assert theta_coefficients(f, 0).shape == (1,)

    def test_kmax_validation(self):
        f = make_theta_pgf(theta=1.0, a=1.0, c=1.0)
        with pytest.raises(ValueError):
            theta_coefficients(f, -1)


class TestSeriesExtraction:
    def test_polynomial_exact(self):
        f = SeriesPgf((0.1, 0.3, 0.0, 0.25))
        out = series_coefficients(f, 3)
        assert np.allclose(out, f.coefficients, atol=1e-14)
        assert np.allclose(series_coefficients(f, 6)[4:], 0.0, atol=1e-14)

    def test_plain_callable_accepted(self):
        out = series_coefficients(lambda z: 0.5 + 0.25 * z, 2)
        assert out[0] == pytest.approx(0.5, abs=1e-13)
        assert out[1] == pytest.approx(0.25, abs=1e-13)

    def test_fixed_small_radius_unstable_at_high_order(self):
        # eps / 0.5**40 is about 1e-4: the roundoff floor exceeds the
        # negativity guard, which is exactly what the guard is for.
        f = make_theta_pgf(theta=1.0, a=1.0, c=1.0)
        with pytest.raises(NumericalInstability):
            series_coefficients(f, 40, radius=0.5)

    def test_adaptive_radius_accurate_at_high_order(self):
        f = make_theta_pgf(theta=1.0, a=1.0, c=1.0)
        out = series_coefficients(f, 40)
        assert np.max(np.abs(out - 0.5 ** (np.arange(41) + 1.0))) < 1e-12

    def test_parameter_validation(self):
        f = make_theta_pgf(theta=1.0, a=1.0, c=1.0)
        with pytest.raises(ValueError):
            series_coefficients(f, 8, radius=1.0)
        with pytest.raises(ValueError):
            series_coefficients(f, 8, num_nodes=16)
        with pytest.raises(ValueError):
            series_coefficients(f, -2)


class TestComposition:
    def test_compose_two(self):
        f = make_theta_pgf(theta=1.0, a=1.0, c=1.0)
        assert pgf_compose_sequence([f, f]).eval(0.0) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_sequence_order_is_innermost_first(self):
        inner = make_theta_pgf(theta=-1.0, a=0.5, q=0.0)   # s/2
        outer = make_theta_pgf(theta=-1.0, a=0.5, q=1.0)   # s/2 + 1/2
        both = pgf_compose_sequence([inner, outer])
        assert both.eval(1.0) == pytest.approx(0.75, abs=1e-15)

    def test_flattening(self):
        f = make_theta_pgf(theta=1.0, a=1.0, c=1.0)
        nested = pgf_compose_sequence([pgf_compose_sequence([f, f]), f])
        assert len(nested.factors) == 3
        assert nested.eval(0.0) == pytest.approx(0.75, abs=1e-15)

    def test_empty_sequence(self):
        with pytest.raises(EmptySequence):
            pgf_compose_sequence([])
        with pytest.raises(EmptySequence):
            ComposedPgf(())

    def test_mass_composes(self):
        f = make_theta_pgf(theta=0.5, a=0.5, q=0.5, r=2.0)
        two = pgf_compose_sequence([f, f])
        assert two.mass() == pytest.approx(f.eval(f.mass()), abs=1e-12)


class TestSeriesPgf:
    def test_truncation_carries_tail(self):
        f = make_theta_pgf(theta=0.5, a=0.5, q=0.25)
        s = theta_pgf_to_series(f, 32)
        assert s.k_max == 32
        assert s.eps_tail == pytest.approx(f.mass() - s.mass(), abs=1e-15)
        assert abs(s.eval(0.7) - f.eval(0.7)) <= s.eps_tail + 1e-12

    def test_rejects_bad_coefficients(self):
        with pytest.raises(InvalidCoefficients):
            SeriesPgf(())
        with pytest.raises(InvalidCoefficients):
            SeriesPgf((0.5, -0.1))
        with pytest.raises(InvalidCoefficients):
            SeriesPgf((0.9, 0.2))
        with pytest.raises(InvalidCoefficients):
            SeriesPgf((math.nan,))
        with pytest.raises(InvalidCoefficients):
            SeriesPgf((0.5,), eps_tail=-1.0)

    def test_clamps_rounding_dust(self):
        s = SeriesPgf((0.5, -1e-15))
        assert s.coefficients[1] == 0.0

    def test_domain_check(self):
        s = SeriesPgf((0.5, 0.5))
        with pytest.raises(DomainError):
            s.eval(-0.5)
        assert s.eval_extended(-0.5) == 0.25

    @pytest.mark.parametrize("k_max", [0, 1, 64])
    def test_eval_extended_matches_polyval(self, k_max):
        # numpy's polyval is the independent oracle: in-place Horner performs
        # the same operations, so arrays agree bitwise.
        rng = np.random.default_rng(400 + k_max)
        weights = rng.random(k_max + 1)
        s = SeriesPgf(tuple(weights / weights.sum()))
        coeffs = np.asarray(s.coefficients)
        real = rng.uniform(-1.0, 1.0, size=(3, 257))
        nodes = 0.9 * np.exp(2j * np.pi * np.arange(512) / 512)
        for z in (real, nodes):
            out = s.eval_extended(z)
            expected = np.polynomial.polynomial.polyval(z, coeffs)
            assert out.shape == z.shape and out.dtype == expected.dtype
            assert np.array_equal(out, expected)

    @pytest.mark.parametrize("k_max", [0, 1, 64])
    def test_eval_extended_scalars(self, k_max):
        rng = np.random.default_rng(500 + k_max)
        weights = rng.random(k_max + 1)
        s = SeriesPgf(tuple(weights / weights.sum()))
        coeffs = np.asarray(s.coefficients)
        for x in rng.uniform(-1.0, 1.0, size=20):
            value = s.eval_extended(float(x))
            assert type(value) is float
            assert value == np.polynomial.polynomial.polyval(float(x), coeffs)
        for w in 0.9 * np.exp(2j * np.pi * rng.random(20)):
            value = s.eval_extended(complex(w))
            assert type(value) is complex
            assert abs(value - np.polynomial.polynomial.polyval(complex(w), coeffs)) <= 1e-15


def _mp_pinned(mpmath, theta, a_n, q, r, rho, z, k_max):
    """f_n = r - (a_n (r - s)**(-theta) + c_n)**(-1/theta) in the working
    precision, with c_n = (1 - a_n) (r - q)**(-theta) pinned by q: values at
    real rho and complex z, and Taylor coefficients p_0 .. p_k_max from the
    power recurrence g' A = alpha A' g for g = A**alpha, alpha = -1/theta,
    which is exact algebra, so only its rounding is at stake.
    """
    t, a_n, q, r = (mpmath.mpf(v) for v in (theta, a_n, q, r))
    c_n = (1 - a_n) * (r - q) ** (-t)

    def value(s):
        u = r - s
        if u == 0 and t > 0:
            return r
        return r - (a_n * u ** (-t) + c_n) ** (-1 / t)

    real = np.array([float(value(mpmath.mpf(v))) for v in rho])
    cplx = np.array([complex(value(mpmath.mpc(v.real, v.imag))) for v in z])
    A = [a_n * r ** (-t)]
    for j in range(1, k_max + 1):
        A.append(A[-1] * (j - 1 + t) / (j * r))
    A[0] += c_n
    alpha = -1 / t
    g = [A[0] ** alpha]
    for k in range(1, k_max + 1):
        g.append(mpmath.fsum(((alpha + 1) * j - k) * A[j] * g[k - j]
                             for j in range(1, k + 1)) / (k * A[0]))
    coeffs = np.array([float(r - g[0])] + [float(-v) for v in g[1:]])
    return real, cplx, coeffs


class TestPinnedNearZeroTheta:
    """Subcritical PGFs, whose c is pinned by q, stay accurate as theta -> 0.

    The form (.)**(-1/theta) amplifies rounding by 1/theta; a switch to the
    theta = 0 form below |theta| 1e-8 erred by O(theta) below it and by up to
    6e-8 just above it, and by 0.7 at rho = 1 for theta < 0 at depth 50.
    """

    @pytest.mark.parametrize("theta", [sign * mag for mag in
                                       (1e-12, 9.9e-9, 1.01e-8, 1e-6, 1e-4, 1e-2, 0.5)
                                       for sign in (1.0, -1.0)])
    @pytest.mark.parametrize("r", [1.0, 2.5])
    def test_against_mpmath(self, theta, r):
        mpmath = pytest.importorskip("mpmath")
        f = make_theta_pgf(theta=theta, a=0.5, q=0.3, r=r)
        rho = np.linspace(-1.0, 1.0, 41)
        z = 0.9 * np.exp(2j * np.pi * np.arange(16) / 16)
        for depth in (1, 3, 50):
            spec = PureKernel(f, depth)
            # more than log10(1/|theta|) + 20 digits
            with mpmath.workdps(60):
                real, cplx, coeffs = _mp_pinned(mpmath, theta, 0.5 ** depth, 0.3, r,
                                                rho, z, 64)
            assert np.max(np.abs(kernel_at_rho(spec, rho) - real)) <= 1e-14
            assert np.max(np.abs(_kernel_evaluator(spec)(z) - cplx)) <= 1e-14
            p = theta_coefficients(pgf_iterate_closed(f, depth), 64)
            assert np.max(np.abs(p - coeffs)) <= 1e-14

    @given(log_theta=st.floats(-15.0, -3.0), sign=st.sampled_from([1.0, -1.0]),
           a=st.floats(0.05, 0.95), q=st.floats(0.0, 0.95),
           r=st.one_of(st.just(1.0), st.floats(1.0, 5.0, exclude_min=True)),
           depth=st.integers(1, 5))
    def test_continuous_across_zero(self, log_theta, sign, a, q, r, depth):
        # Differences from the theta = 0 PGF stay within C |theta| (about 6
        # |theta| at worst over a grid of a, q, r and depth).  rho = 1 is left
        # out: at r = 1 and theta < 0 the kernel there is
        # 1 - (r - q) (1 - a_n)**(1/|theta|), which nears 1 only once
        # |theta| << a_n.
        theta = sign * 10.0 ** log_theta
        f = make_theta_pgf(theta=theta, a=a, q=q, r=r)
        f0 = make_theta_pgf(theta=0.0, a=a, q=q, r=r)
        rho = np.append(np.linspace(-1.0, 1.0, 41)[:-1], 1.0 - 1e-12)
        bound = 50.0 * abs(theta)
        values = kernel_at_rho(PureKernel(f, depth), rho)
        assert np.max(np.abs(values - kernel_at_rho(PureKernel(f0, depth), rho))) <= bound
        coeffs = theta_coefficients(pgf_iterate_closed(f, depth), 32)
        zero = theta_coefficients(pgf_iterate_closed(f0, depth), 32)
        assert np.max(np.abs(coeffs - zero)) <= bound


@pytest.mark.parametrize("call, order, error", [
    pytest.param(lambda k: hermite_design(k, [0.3, -1.2]), 4, DomainError,
                 id="hermite_design"),
    pytest.param(gauss_hermite_rule, 5, DomainError, id="gauss_hermite_rule"),
    pytest.param(lambda k: activation_to_pgf(reference_activation("relu"), k), 6,
                 DomainError, id="activation_to_pgf"),
    pytest.param(lambda k: theta_coefficients(make_theta_pgf(theta=0.5, a=0.5, q=0.3), k),
                 4, DomainError, id="theta_coefficients"),
    pytest.param(lambda k: series_coefficients(make_theta_pgf(theta=0.5, a=0.5, q=0.3), k),
                 4, DomainError, id="series_coefficients"),
    pytest.param(lambda k: pgf_iterate_closed(make_theta_pgf(theta=0.5, a=1.5, c=0.3), k),
                 2, DomainError, id="pgf_iterate_closed"),
    pytest.param(lambda k: PureKernel(make_theta_pgf(theta=0.5, a=1.5, c=0.3), k), 2,
                 InvalidRegime, id="PureKernel"),
    pytest.param(lambda k: multiplicity(k, 3), 4, DimensionUnsupported, id="multiplicity_m"),
    pytest.param(lambda k: multiplicity(5, k), 3, DomainError, id="multiplicity_k"),
    pytest.param(lambda k: eigensystem(PureKernel(make_theta_pgf(theta=1.0, a=1.0, c=1.0), 2),
                                       3, k), 4, DomainError, id="eigensystem"),
])
def test_orders_take_numpy_integers_and_refuse_bools(call, order, error):
    expected = call(order)
    got = call(np.int64(order))
    if isinstance(expected, tuple):         # gauss_hermite_rule's (points, weights)
        assert all(np.array_equal(x, y) for x, y in zip(got, expected))
    elif isinstance(expected, np.ndarray):
        assert np.array_equal(got, expected)
    else:                                   # frozen dataclasses compare by fields
        assert got == expected
    if isinstance(expected, PureKernel):    # depth is written to JSON
        assert type(got.depth) is int
    with pytest.raises(error):
        call(True)
