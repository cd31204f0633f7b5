from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from thetakernels import kernels
from thetakernels.errors import (
    DimensionMismatch,
    DimensionUnsupported,
    DomainError,
    EmptySequence,
    IndexOutOfRange,
    NumericalInstability,
    RegimeViolation,
    UnknownSumConvergence,
    ZeroVector,
)
from thetakernels.kernels import (
    _BLOCK,
    CMixedKernel,
    MixedKernel,
    PureKernel,
    cmixed_pure_representation,
    correlation,
    cross_gram,
    eigensystem,
    gram,
    kernel_at_rho,
    kernel_limit,
    multiplicity,
    spec_to_pgf,
    surface_area,
)
from thetakernels.pgf import (
    SeriesPgf,
    ThetaPgf,
    make_theta_pgf,
    pgf_iterate_closed,
    series_coefficients,
    theta_coefficients,
    theta_pgf_to_series,
)

from conftest import ALL_CASES, RHO_GRID, draw_case


def _sphere_points(rng, count, dim):
    pts = rng.standard_normal((count, dim))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


class TestCorrelation:
    def test_orthogonal(self):
        assert correlation([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_identical_is_exactly_one(self):
        assert correlation([1.0, 2.0, 2.0], [1.0, 2.0, 2.0]) == 1.0

    def test_antipodal(self):
        assert correlation([2.0, 0.0], [-3.0, 0.0]) == -1.0

    def test_normalization(self):
        assert correlation([10.0, 0.0], [1.0, 1.0]) == pytest.approx(
            1.0 / math.sqrt(2.0), abs=1e-15)

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            correlation([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(ZeroVector):
            correlation([0.0, 0.0], [0.0, 0.0])

    @pytest.mark.parametrize("x", [[1e200, 1e200], [1e-200, 1e-200], [1e-310, 1e-310],
                                   [1.7e308, -1.7e308]])
    def test_norm_outside_float_range(self, x):
        # the plain norm overflows to inf or underflows to 0; 1e-310 is
        # subnormal, where a scale of 2**-exponent would itself overflow
        expected = 1.0 / math.sqrt(2.0)
        assert correlation(x, [1.0, 0.0]) == pytest.approx(expected, rel=1e-15)
        assert correlation([0.0, -1.0], x) == pytest.approx(-math.copysign(expected, x[1]),
                                                           rel=1e-15)
        assert correlation(x, x) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            correlation([1.0, 0.0], [1.0, 0.0, 0.0])
        with pytest.raises(DimensionMismatch):
            correlation([[1.0, 0.0]], [[1.0, 0.0]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry(self, bad):
        # max(-1, nan) is -1, so an unchecked NaN read as antipodal
        with pytest.raises(DomainError):
            correlation([1.0, bad], [1.0, 0.0])
        with pytest.raises(DomainError):
            correlation([1.0, 0.0], [bad, 0.0])


class TestSpecValidation:
    def test_pure_depth(self):
        f = make_theta_pgf(theta=1.0, a=1.0, c=1.0)
        with pytest.raises(RegimeViolation):
            PureKernel(f, 0)
        with pytest.raises(RegimeViolation):
            PureKernel(f, 1.5)

    def test_mixed_empty(self):
        with pytest.raises(EmptySequence):
            MixedKernel(())

    def test_cmixed_theta_range(self):
        with pytest.raises(RegimeViolation):
            CMixedKernel(0.0, (1.0,))
        with pytest.raises(RegimeViolation):
            CMixedKernel(1.5, (1.0,))
        with pytest.raises(RegimeViolation):
            CMixedKernel(0.5, (1.0, -0.1))
        with pytest.raises(EmptySequence):
            CMixedKernel(0.5, ())

    def test_cmixed_depth(self):
        assert CMixedKernel(0.5, (0.1, 0.2, 0.3)).depth == 3


class TestClosedFormAgainstComposition:
    @pytest.mark.parametrize("case", ALL_CASES)
    def test_depths_one_to_eight(self, case):
        rng = np.random.default_rng(900 + case)
        grid = np.array(RHO_GRID + (1.0,))
        for _ in range(3):
            f = draw_case(case, rng)
            composed = grid.copy()
            for n in range(1, 9):
                composed = f.eval_extended(composed)
                closed = kernel_at_rho(PureKernel(f, n), grid)
                assert np.max(np.abs(closed - composed)) < 1e-12

    def test_scalar_matches_array(self):
        f = make_theta_pgf(theta=0.5, a=1.3, c=0.4)
        spec = PureKernel(f, 4)
        scalar = kernel_at_rho(spec, 0.3)
        assert isinstance(scalar, float)
        assert scalar == kernel_at_rho(spec, np.array([0.3]))[0]

    def test_supercritical_diagonal_pins_to_one(self):
        f = make_theta_pgf(theta=0.7, a=1.4, c=0.2)
        assert kernel_at_rho(PureKernel(f, 5), 1.0) == 1.0

    def test_extreme_depth_does_not_overflow(self):
        f = make_theta_pgf(theta=0.5, a=1.5, c=0.3)
        value = kernel_at_rho(PureKernel(f, 10 ** 7), 0.5)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_series_factor_composes(self):
        f = SeriesPgf((0.5, 0.5))
        assert kernel_at_rho(MixedKernel((f,) * 2), 0.0) == pytest.approx(0.75, abs=1e-15)

    def test_vector_front_end(self):
        f = make_theta_pgf(theta=1.0, a=1.0, c=1.0)
        x, z = [1.0, 0.0], [0.0, 1.0]
        rho = correlation(x, z)
        assert kernel_at_rho(PureKernel(f, 2), rho) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert kernel_at_rho(MixedKernel((f, f)), rho) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_rho_outside_range(self):
        f = make_theta_pgf(theta=1.0, a=1.0, c=1.0)
        with pytest.raises(DomainError):
            kernel_at_rho(PureKernel(f, 1), 1.5)
        with pytest.raises(DomainError):
            kernel_limit(PureKernel(f, 1), 1.5)

    @pytest.mark.parametrize("kind", ["theta", "series", "cmixed"])
    @pytest.mark.parametrize("rho", [math.nan, [0.5, math.nan]])
    def test_nan_correlation(self, kind, rho):
        f = make_theta_pgf(theta=0.5, a=0.5, q=0.3)
        spec = {"theta": PureKernel(f, 2), "series": MixedKernel((SeriesPgf((0.5, 0.5)),) * 2),
                "cmixed": CMixedKernel(0.5, (0.3, 0.2))}[kind]
        with pytest.raises(DomainError):
            kernel_at_rho(spec, rho)
        with pytest.raises(DomainError):
            kernel_limit(spec, rho, c_sum=math.inf)

    @pytest.mark.parametrize("theta", [1e-9, -1e-9, 5e-9])
    def test_small_theta_matches_high_precision(self, theta):
        # |theta| below the switch evaluates the theta = 0 form, whose error
        # against the theta form is O(theta).
        mpmath = pytest.importorskip("mpmath")
        f = make_theta_pgf(theta=theta, a=0.5, q=0.3)
        rho = np.array((-1.0,) + RHO_GRID)
        with mpmath.workdps(60):
            t, a, q = mpmath.mpf(theta), mpmath.mpf(0.5), mpmath.mpf(0.3)
            c = (1 - a) * (1 - q) ** (-t)
            exact = [float(1 - (a * (1 - mpmath.mpf(x)) ** (-t) + c) ** (-1 / t))
                     for x in rho]
        assert np.max(np.abs(kernel_at_rho(PureKernel(f, 1), rho) - exact)) < 1e-9

    def test_not_a_spec(self):
        with pytest.raises(DomainError):
            kernel_at_rho(object(), 0.5)


class TestCMixed:
    def test_hand_value(self):
        spec = CMixedKernel(1.0, (1.0, 1.0))
        assert kernel_at_rho(spec, correlation([1.0, 0.0], [0.0, 1.0])) \
            == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_diagonal(self):
        spec = CMixedKernel(0.5, (0.3, 0.7))
        assert kernel_at_rho(spec, 1.0) == 1.0

    @given(theta=st.floats(0.05, 1.0),
           cs=st.lists(st.floats(0.05, 2.0), min_size=1, max_size=6))
    def test_collapses_to_factor_composition(self, theta, cs):
        spec = CMixedKernel(theta, tuple(cs))
        factors = [make_theta_pgf(theta=theta, a=1.0, c=c) for c in cs]
        grid = np.array(RHO_GRID)
        closed = kernel_at_rho(spec, grid)
        composed = kernel_at_rho(MixedKernel(tuple(factors)), grid)
        assert np.max(np.abs(closed - composed)) < 1e-10

    def test_order_invariance(self):
        grid = np.array(RHO_GRID)
        forward = kernel_at_rho(CMixedKernel(0.7, (0.1, 0.5, 1.2)), grid)
        backward = kernel_at_rho(CMixedKernel(0.7, (1.2, 0.5, 0.1)), grid)
        assert np.array_equal(forward, backward)


class TestPureRepresentation:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_prefix_match(self, k):
        theta, cs = 0.6, (0.4, 0.9, 0.2, 1.1)
        g = cmixed_pure_representation(theta, cs, k)
        grid = np.array(RHO_GRID + (1.0,))
        lhs = kernel_at_rho(CMixedKernel(theta, cs[:k]), grid)
        rhs = kernel_at_rho(PureKernel(g, k), grid)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_average_parameter(self):
        g = cmixed_pure_representation(1.0, (0.2, 0.6), 2)
        assert g.c == pytest.approx(0.4, abs=1e-15)
        assert g.a == 1.0

    def test_index_validation(self):
        with pytest.raises(IndexOutOfRange):
            cmixed_pure_representation(0.5, (0.1, 0.2), 0)
        with pytest.raises(IndexOutOfRange):
            cmixed_pure_representation(0.5, (0.1, 0.2), 3)


class TestLimits:
    def test_supercritical_saturates(self):
        f = make_theta_pgf(theta=1.0, a=1.0, c=1.0)
        spec = PureKernel(f, 1)
        grid = np.array(RHO_GRID)
        assert np.all(kernel_limit(spec, grid) == 1.0)
        deep = kernel_at_rho(PureKernel(f, 10 ** 6), 0.0)
        assert deep == pytest.approx(1.0, abs=1e-5)

    def test_subcritical_plateau_off_diagonal(self):
        f = make_theta_pgf(theta=0.5, a=0.5, q=0.3)
        spec = PureKernel(f, 1)
        assert kernel_limit(spec, 0.2) == 0.3
        assert kernel_limit(spec, 1.0) == 1.0
        deep = kernel_at_rho(PureKernel(f, 200), 0.2)
        assert deep == pytest.approx(0.3, abs=1e-6)

    def test_zero_branch_keeps_diagonal(self):
        f = make_theta_pgf(theta=0.0, a=0.5, q=0.4)
        out = kernel_limit(PureKernel(f, 1), np.array([0.5, 1.0]))
        assert out[0] == 0.4 and out[1] == 1.0

    def test_defective_branches_drain_everywhere(self):
        # negative theta at r = 1: even the diagonal heads to q
        f = make_theta_pgf(theta=-0.5, a=0.5, q=0.3)
        assert kernel_limit(PureKernel(f, 1), 1.0) == 0.3
        deep = kernel_at_rho(PureKernel(f, 400), 1.0)
        assert deep == pytest.approx(0.3, abs=1e-8)

    def test_wide_range_branches_drain_everywhere(self):
        f = make_theta_pgf(theta=0.5, a=0.5, q=0.6, r=2.0)
        assert kernel_limit(PureKernel(f, 1), 1.0) == 0.6
        assert kernel_limit(PureKernel(f, 1), 0.0) == 0.6

    def test_affine_limit(self):
        f = make_theta_pgf(theta=-1.0, a=0.9, q=0.25)
        grid = np.array(RHO_GRID + (1.0,))
        assert np.all(kernel_limit(PureKernel(f, 1), grid) == 0.25)

    def test_cmixed_divergent(self):
        spec = CMixedKernel(0.5, (0.1, 0.2))
        assert np.all(kernel_limit(spec, np.array(RHO_GRID), c_sum=math.inf) == 1.0)

    def test_cmixed_convergent_total(self):
        spec = CMixedKernel(1.0, (0.25, 0.25))
        value = kernel_limit(spec, 0.0, c_sum=1.0)
        assert value == pytest.approx(0.5, abs=1e-15)
        assert kernel_limit(spec, 1.0, c_sum=1.0) == 1.0

    def test_cmixed_requires_convergence_info(self):
        spec = CMixedKernel(0.5, (0.1,))
        with pytest.raises(UnknownSumConvergence):
            kernel_limit(spec, 0.0)

    def test_cmixed_total_below_prefix(self):
        spec = CMixedKernel(0.5, (1.0, 1.0))
        with pytest.raises(RegimeViolation):
            kernel_limit(spec, 0.0, c_sum=0.5)

    def test_unsupported_specs(self):
        with pytest.raises(RegimeViolation):
            PureKernel(SeriesPgf((0.5, 0.5)), 2)
        f = make_theta_pgf(theta=1.0, a=1.0, c=1.0)
        with pytest.raises(RegimeViolation):
            kernel_limit(MixedKernel((f, f)), 0.0)


class TestGram:
    def test_affine_antipodal_pair(self):
        f = make_theta_pgf(theta=-1.0, a=0.5, q=0.0)
        out = gram(PureKernel(f, 1), [[1.0, 0.0], [-1.0, 0.0]])
        assert np.allclose(out, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)

    def test_negative_entries_occur(self):
        # kernels here are not correlation-like in general: rho < 0 with a
        # dominant linear coefficient goes negative
        assert gram(PureKernel(make_theta_pgf(theta=-1.0, a=0.5, q=0.0), 1),
                    [[1.0, 0.0], [-1.0, 0.0]]).min() < 0.0

    def test_symmetry_exact(self):
        rng = np.random.default_rng(11)
        pts = _sphere_points(rng, 12, 5)
        f = make_theta_pgf(theta=0.5, a=1.2, c=0.7)
        out = gram(PureKernel(f, 3), pts)
        assert np.array_equal(out, out.T)

    def test_diagonal_matches_unit_correlation(self):
        rng = np.random.default_rng(12)
        pts = rng.standard_normal((6, 4)) * 3.0
        f = make_theta_pgf(theta=0.5, a=0.5, q=0.4, r=1.5)
        out = gram(PureKernel(f, 2), pts)
        expected = kernel_at_rho(PureKernel(f, 2), 1.0)
        assert np.allclose(np.diag(out), expected, atol=1e-15)

    @pytest.mark.parametrize("case", [1, 2, 3, 5, 6, 8])
    def test_positive_semidefinite(self, case):
        rng = np.random.default_rng(1000 + case)
        pts = _sphere_points(rng, 40, 4)
        spec = PureKernel(draw_case(case, rng), 2)
        eigs = np.linalg.eigvalsh(gram(spec, pts))
        assert eigs.min() >= -1e-10 * max(eigs.max(), 1.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(13)
        pts = _sphere_points(rng, 5, 3)
        f = make_theta_pgf(theta=1.0, a=1.0, c=0.5)
        spec = PureKernel(f, 2)
        assert np.array_equal(gram(spec, pts), gram(spec, pts * 7.5))

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1e-310])
    def test_norm_outside_float_range(self, scale):
        spec = PureKernel(make_theta_pgf(theta=1.0, a=1.0, c=1.0), 1)
        points = [[scale, scale], [1.0, 0.0]]
        off = kernel_at_rho(spec, 1.0 / math.sqrt(2.0))
        assert off == pytest.approx(0.77346, abs=1e-5)
        out = gram(spec, points)
        assert out[0, 1] == pytest.approx(off, rel=1e-14)
        assert out[1, 0] == out[0, 1]
        assert cross_gram(spec, points[:1], points[1:])[0, 0] == pytest.approx(off, rel=1e-14)

    def test_input_validation(self):
        f = make_theta_pgf(theta=1.0, a=1.0, c=1.0)
        with pytest.raises(DimensionMismatch):
            gram(PureKernel(f, 1), np.zeros((0, 3)))
        with pytest.raises(ZeroVector):
            gram(PureKernel(f, 1), [[1.0, 0.0], [0.0, 0.0]])


class TestCrossGram:
    def test_blocks_agree_with_gram(self):
        rng = np.random.default_rng(14)
        pts = _sphere_points(rng, 7, 4)
        f = make_theta_pgf(theta=0.3, a=1.1, c=0.9)
        spec = PureKernel(f, 2)
        full = gram(spec, pts)
        block = cross_gram(spec, pts[:3], pts[3:])
        assert block.shape == (3, 4)
        assert np.allclose(block, full[:3, 3:], atol=1e-12)

    def test_dimension_mismatch(self):
        f = make_theta_pgf(theta=1.0, a=1.0, c=1.0)
        with pytest.raises(DimensionMismatch):
            cross_gram(PureKernel(f, 1), np.eye(3), np.eye(4))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point(self, bad):
        spec = PureKernel(make_theta_pgf(theta=1.0, a=1.0, c=1.0), 1)
        points = np.array([[1.0, 0.0], [0.0, bad]])
        with pytest.raises(DomainError):
            gram(spec, points)
        with pytest.raises(DomainError):
            cross_gram(spec, np.eye(2), points)


def _blocked_specs() -> dict:
    series = [theta_pgf_to_series(make_theta_pgf(theta=theta, a=0.5, q=0.2, r=3.0), 32)
              for theta in (0.3, 0.6, 0.9)]
    return {
        "pure": PureKernel(make_theta_pgf(theta=0.5, a=1.2, c=0.4), 3),
        "cmixed": CMixedKernel(0.6, (0.3, 0.5, 0.2)),
        "pure-series": MixedKernel((series[0],) * 2),
        "mixed-series": MixedKernel(tuple(series)),
    }


class TestBlockedEvaluation:
    """kernel_at_rho over several blocks equals per-element evaluation."""

    SIZE = 2 * _BLOCK + 17

    def _correlations(self) -> np.ndarray:
        rng = np.random.default_rng(31)
        rho = rng.uniform(-1.0, 1.0, self.SIZE)
        rho[[0, _BLOCK, -1]] = (-1.0, 1.0, 1.0)
        return rho

    @pytest.mark.parametrize("kind", ["pure", "cmixed", "pure-series", "mixed-series"])
    def test_matches_scalar_calls(self, kind):
        spec = _blocked_specs()[kind]
        rho = self._correlations()
        out = kernel_at_rho(spec, rho)
        assert out.shape == rho.shape and out.dtype == np.float64
        assert np.array_equal(out, kernels._kernel_evaluator(spec)(rho))
        edges = [i for b in (_BLOCK, 2 * _BLOCK) for i in (b - 2, b - 1, b, b + 1)]
        picks = np.random.default_rng(32).choice(self.SIZE, 150, replace=False)
        for i in [0, self.SIZE - 1, *edges, *picks]:
            assert out[i] == kernel_at_rho(spec, float(rho[i])), i

    @pytest.mark.parametrize("kind", ["pure", "cmixed", "pure-series", "mixed-series"])
    def test_keeps_two_dimensional_shape(self, kind):
        spec = _blocked_specs()[kind]
        flat = kernel_at_rho(spec, self._correlations())
        matrix = self._correlations().reshape(3, -1)
        assert np.array_equal(kernel_at_rho(spec, matrix), flat.reshape(3, -1))
        assert np.array_equal(kernel_at_rho(spec, matrix.T), flat.reshape(3, -1).T)

    @pytest.mark.parametrize("bad, error", [(math.nan, DomainError), (1.5, DomainError),
                                            (-1.0 - 1e-12, DomainError)])
    def test_bad_value_in_last_block_raises(self, bad, error):
        rho = self._correlations()
        rho[-1] = bad
        with pytest.raises(error):
            kernel_at_rho(_blocked_specs()["mixed-series"], rho)

    def test_empty(self):
        for shape in ((0,), (0, 3)):
            out = kernel_at_rho(_blocked_specs()["pure"], np.empty(shape))
            assert out.shape == shape


class TestTiledMatrices:
    """gram and cross_gram equal one whole-matrix evaluation, tile by tile.

    BLAS may round a tile's product differently from the whole matrix's, so
    the bitwise checks use points whose correlations are exact in floating
    point: 4 or 16 entries of +-1 in R^16 (norm 2 or 4) times a power of two.
    """

    KINDS = ["pure", "cmixed", "mixed-series"]

    @staticmethod
    def _exact_points(count, seed=41):
        rng = np.random.default_rng(seed + count)
        pts = rng.choice([-1.0, 1.0], size=(count, 16))
        short = rng.random(count) < 0.5
        pts[short, 4:] = 0.0
        pts = rng.permuted(pts, axis=1)
        return np.ldexp(pts, rng.integers(-3, 4, size=(count, 1)))

    @staticmethod
    def _whole(spec, a, b, diagonal_one=False):
        ua = a / np.linalg.norm(a, axis=1, keepdims=True)
        ub = b / np.linalg.norm(b, axis=1, keepdims=True)
        rho = np.clip(ua @ ub.T, -1.0, 1.0)
        if diagonal_one:
            np.fill_diagonal(rho, 1.0)
        return kernel_at_rho(spec, rho)

    # rows per tile is _BLOCK // 181 = 181 at n = 181, 180 at n = 182
    @pytest.mark.parametrize("n", [1, 2, 180, 181, 182, 300])
    @pytest.mark.parametrize("kind", KINDS)
    def test_gram_matches_whole_matrix(self, kind, n):
        spec = _blocked_specs()[kind]
        pts = self._exact_points(n)
        assert np.array_equal(gram(spec, pts), self._whole(spec, pts, pts, diagonal_one=True))

    # m = 512 gives 64 rows per tile
    @pytest.mark.parametrize("n", [1, 63, 65, 197])
    @pytest.mark.parametrize("kind", KINDS)
    def test_cross_gram_matches_whole_matrix(self, kind, n):
        spec = _blocked_specs()[kind]
        a, b = self._exact_points(n), self._exact_points(512)
        assert np.array_equal(cross_gram(spec, a, b), self._whole(spec, a, b))

    def test_cross_gram_one_row_per_tile(self):
        spec = _blocked_specs()["mixed-series"]
        a, b = self._exact_points(3), self._exact_points(_BLOCK + 3)
        assert np.array_equal(cross_gram(spec, a, b), self._whole(spec, a, b))

    def test_rounding_of_general_points(self):
        spec = _blocked_specs()["mixed-series"]
        pts = np.random.default_rng(42).standard_normal((300, 5))
        out = gram(spec, pts)
        assert np.allclose(out, self._whole(spec, pts, pts, diagonal_one=True),
                           rtol=1e-13, atol=0.0)
        assert np.all(np.diag(out) == kernel_at_rho(spec, 1.0))
        assert np.allclose(cross_gram(spec, pts[:70], pts), out[:70], rtol=1e-13, atol=0.0)

    def test_gram_symmetric_over_several_tiles(self):
        f = make_theta_pgf(theta=0.5, a=1.2, c=0.7)
        out = gram(PureKernel(f, 3), np.random.default_rng(43).standard_normal((300, 6)))
        assert np.array_equal(out, out.T)

    @pytest.mark.parametrize("build", ["gram", "cross_gram"])
    def test_peak_memory_near_result(self, build):
        spec = _blocked_specs()["mixed-series"]
        pts = np.random.default_rng(44).standard_normal((1000, 8))
        tracemalloc.start()
        try:
            out = gram(spec, pts) if build == "gram" else cross_gram(spec, pts, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * out.nbytes


class TestSpecToPgf:
    @pytest.mark.parametrize("case", ALL_CASES)
    def test_matches_kernel_everywhere(self, case):
        rng = np.random.default_rng(1100 + case)
        f = draw_case(case, rng)
        grid = np.array(RHO_GRID + (1.0,))
        for depth in (1, 2, 3, 7):
            spec = PureKernel(f, depth)
            collapsed = spec_to_pgf(spec)
            assert np.max(np.abs(collapsed.eval_extended(grid)
                                 - kernel_at_rho(spec, grid))) < 1e-14

    def test_mixed_is_its_own_composition(self):
        f = make_theta_pgf(theta=1.0, a=1.0, c=1.0)
        spec = MixedKernel((f, SeriesPgf((0.5, 0.5))))
        assert spec_to_pgf(spec) is spec

    def test_cmixed_collapse(self):
        collapsed = spec_to_pgf(CMixedKernel(0.5, (0.25, 0.5, 0.25)))
        assert isinstance(collapsed, ThetaPgf)
        assert collapsed.a == 1.0
        assert collapsed.c == pytest.approx(1.0, abs=1e-15)


class TestSphereCombinatorics:
    def test_surface_areas(self):
        assert surface_area(2) == pytest.approx(2.0 * math.pi, abs=1e-14)
        assert surface_area(3) == pytest.approx(4.0 * math.pi, abs=1e-13)
        assert surface_area(4) == pytest.approx(2.0 * math.pi ** 2, abs=1e-13)

    def test_multiplicity_known_families(self):
        assert [multiplicity(3, k) for k in range(5)] == [1, 3, 5, 7, 9]
        assert [multiplicity(4, k) for k in range(5)] == [1, 4, 9, 16, 25]

    def test_multiplicity_is_integer(self):
        assert isinstance(multiplicity(7, 9), int)

    def test_dimension_support(self):
        with pytest.raises(DimensionUnsupported):
            multiplicity(2, 3)
        with pytest.raises(DimensionUnsupported):
            surface_area(0)
        with pytest.raises(ValueError):
            multiplicity(3, -1)


class TestEigensystem:
    def test_values_against_coefficient_route(self):
        f = make_theta_pgf(theta=1.0, a=1.0, c=1.0)
        spec = PureKernel(f, 2)
        system = eigensystem(spec, 3, 12)
        p = theta_coefficients(spec_to_pgf(spec), 12)
        surf = surface_area(3)
        for k in range(13):
            assert system.lambdas[k] == pytest.approx(
                surf * p[k] / (2 * k + 1), rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("m", [3, 4, 10])
    def test_multiplicities_match_public_formula(self, m):
        system = eigensystem(PureKernel(make_theta_pgf(theta=1.0, a=1.0, c=1.0), 1), m, 64)
        assert system.multiplicities == tuple(multiplicity(m, k) for k in range(65))
        assert all(type(r) is int for r in system.multiplicities)

    @pytest.mark.parametrize("m", [3, 10, 343])
    @pytest.mark.parametrize("spec", [
        PureKernel(make_theta_pgf(theta=0.5, a=0.5, q=0.3), 3),
        CMixedKernel(0.5, (0.2, 0.3, 0.5)),
        MixedKernel((theta_pgf_to_series(make_theta_pgf(theta=-0.5, a=0.5, q=0.3), 16),
                     make_theta_pgf(theta=1.0, a=1.0, c=1.0))),
    ], ids=["pure", "cmixed", "mixed-series"])
    def test_lambda_and_multiplicity_bits_pinned(self, spec, m):
        """Eigenvalues against a verbatim copy of the per-degree Python form."""
        system = eigensystem(spec, m, 64)
        p = series_coefficients(kernels._kernel_evaluator(spec), 64)
        surf = surface_area(m)
        mults = [kernels._multiplicity(m, k) for k in range(65)]
        expected = [surf * float(pk) / mult for pk, mult in zip(p, mults)]
        assert np.array(system.lambdas).tobytes() == np.array(expected).tobytes()
        assert all(type(v) is float for v in system.lambdas)
        assert system.multiplicities == tuple(mults)
        assert eigensystem(spec, m, 64) == system

    def test_cached_multiplicity_table_is_read_only(self):
        mults, divisors = kernels._multiplicities(10, 64)
        assert not divisors.flags.writeable
        with pytest.raises(ValueError):
            divisors[0] = 2.0
        assert kernels._multiplicities(10, 64)[1] is divisors
        assert eigensystem(PureKernel(make_theta_pgf(theta=1.0, a=1.0, c=1.0), 1),
                           10, 64).multiplicities is mults

    def test_sum_rule(self):
        f = make_theta_pgf(theta=0.5, a=0.5, q=0.3)
        system = eigensystem(PureKernel(f, 1), 10, 30)
        total = math.fsum(l * m for l, m in zip(system.lambdas,
                                                system.multiplicities))
        independent = surface_area(10) * float(theta_coefficients(f, 30).sum())
        assert total == pytest.approx(independent, rel=1e-10)

    def test_depth_beyond_float_parameters(self):
        # a**2000 underflows: the kernel is the constant q, and its
        # eigensystem must say so although the iterated PGF cannot be built.
        f = make_theta_pgf(theta=0.5, a=0.5, q=0.3)
        spec = PureKernel(f, 2000)
        system = eigensystem(spec, 3, 4)
        p = np.multiply(system.lambdas, system.multiplicities) / surface_area(3)
        assert np.allclose(p, (0.3, 0.0, 0.0, 0.0, 0.0), rtol=0.0, atol=1e-12)
        with pytest.raises(NumericalInstability):
            pgf_iterate_closed(f, 2000)

    def test_vanishing_constant_mode(self):
        f = make_theta_pgf(theta=-1.0, a=0.7, q=0.0)
        system = eigensystem(PureKernel(f, 1), 4, 5)
        assert system.lambdas[0] == 0.0
        assert system.lambdas[1] == pytest.approx(surface_area(4) * 0.7 / 4.0,
                                                  rel=1e-10)
        assert all(v == pytest.approx(0.0, abs=1e-12) for v in system.lambdas[2:])

    def test_records_shape(self):
        f = make_theta_pgf(theta=1.0, a=1.0, c=1.0)
        rows = eigensystem(PureKernel(f, 1), 3, 4).records()
        assert len(rows) == 5
        assert rows[2] == {"k": 2, "lambda": rows[2]["lambda"], "multiplicity": 5}

    def test_validation(self):
        f = make_theta_pgf(theta=1.0, a=1.0, c=1.0)
        with pytest.raises(DimensionUnsupported):
            eigensystem(PureKernel(f, 1), 2, 8)
        with pytest.raises(ValueError):
            eigensystem(PureKernel(f, 1), 3, -1)
