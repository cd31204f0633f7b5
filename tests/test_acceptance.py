"""End-to-end acceptance suite.

One test per shipped guarantee, named test_criterion_NN_*; conftest prints a
PASS/FAIL line per criterion.  Tolerances and runtime budgets are asserted
inside the tests themselves.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from thetakernels.activations import (
    activation_from_coefficients,
    activation_to_pgf,
    bivariate_expectation,
    reference_activation,
)
from thetakernels.cli import app
from thetakernels.gp import fit, predict
from thetakernels.kernels import (
    CMixedKernel,
    PureKernel,
    cmixed_pure_representation,
    eigensystem,
    gram,
    kernel_at_rho,
    kernel_limit,
    spec_to_pgf,
    surface_area,
)
from thetakernels.mlp import MlpConfig, convergence_study
from thetakernels.pgf import make_theta_pgf, series_coefficients, theta_coefficients

from conftest import ALL_CASES, RHO_GRID, draw_case

S_GRID = (-0.9, -0.5, 0.0, 0.5, 0.9, 0.99)


def _arccos_kernel(s: float) -> float:
    return (math.sqrt(1.0 - s * s) + s * (math.pi - math.acos(s))) / math.pi


def test_criterion_01_closed_iteration_matches_recursion():
    start = time.perf_counter()
    grid = np.array(RHO_GRID)
    worst = 0.0
    for case in ALL_CASES:
        rng = np.random.default_rng(5000 + case)
        for _ in range(20):
            f = draw_case(case, rng)
            composed = grid.copy()
            for n in range(1, 9):
                composed = f.eval_extended(composed)
                closed = kernel_at_rho(PureKernel(f, n), grid)
                worst = max(worst, float(np.max(np.abs(closed - composed))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10, f"max closed-vs-recursive deviation {worst}"
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"


def test_criterion_02_coefficients_match_contour_oracle():
    worst = 0.0
    for case in ALL_CASES:
        rng = np.random.default_rng(5100 + case)
        for _ in range(5):
            f = draw_case(case, rng)
            formulas = theta_coefficients(f, 40)
            oracle = series_coefficients(f, 40)
            worst = max(worst, float(np.max(np.abs(formulas - oracle))))
            assert float(formulas.sum()) <= 1.0 + 1e-12
    assert worst <= 1e-8, f"max coefficient deviation {worst}"

    # affine branch: the constant term is the PGF's own p_0 = (1 - a) q
    f = make_theta_pgf(theta=-1.0, a=0.3, q=0.5)
    p = theta_coefficients(f, 10)
    assert p[0] == pytest.approx((1.0 - 0.3) * 0.5, abs=1e-15)
    assert np.max(np.abs(p - series_coefficients(f, 10))) <= 1e-8
    assert float(p.sum()) <= 1.0 + 1e-12


def test_criterion_03_duality_round_trip():
    for case in ALL_CASES:
        rng = np.random.default_rng(5200 + case)
        for _ in range(3):
            f = draw_case(case, rng)
            p = theta_coefficients(f, 30)
            act = activation_from_coefficients(p)
            recovered = activation_to_pgf(act, 30)
            assert np.max(np.abs(recovered - p)) <= 1e-6
            for s in S_GRID:
                series_sum = float(np.polyval(p[::-1], s))
                assert bivariate_expectation(act, s) == pytest.approx(
                    series_sum, abs=1e-6)


def test_criterion_04_rectifier_oracle():
    relu = reference_activation("relu")
    p = activation_to_pgf(relu, 8)
    assert p[0] == pytest.approx(1.0 / math.pi, abs=1e-8)
    assert p[1] == pytest.approx(0.5, abs=1e-8)
    assert p[2] == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-8)
    for s in np.linspace(-0.99, 0.99, 67):
        assert bivariate_expectation(relu, float(s)) == pytest.approx(
            _arccos_kernel(float(s)), abs=1e-8)


def test_criterion_05_finite_width_convergence():
    start = time.perf_counter()
    relu = reference_activation("relu")
    linear = reference_activation("linear")
    widths = [64, 256, 1024]
    for index, rho in enumerate((0.0, 0.5, 0.9)):
        x = [1.0, 0.0]
        z = [rho, math.sqrt(1.0 - rho * rho)]

        pure = MlpConfig(widths=(2, 8, 8, 1), activations=relu, seed=600 + index)
        rows = convergence_study(pure, widths, x, z, 20000)
        target = _arccos_kernel(_arccos_kernel(rho))
        final = rows[-1]
        assert final.width == 1024
        assert abs(final.estimate - target) <= 3.0 * final.se, (
            f"pure rho={rho}: gap {final.estimate - target} vs 3*SE {3 * final.se}")
        assert final.reference == pytest.approx(target, abs=1e-6)

        mixed = MlpConfig(widths=(2, 8, 8, 1), activations=(linear, relu),
                          seed=700 + index)
        rows = convergence_study(mixed, widths, x, z, 20000)
        target = _arccos_kernel(rho)
        final = rows[-1]
        assert abs(final.estimate - target) <= 3.0 * final.se, (
            f"mixed rho={rho}: gap {final.estimate - target} vs 3*SE {3 * final.se}")
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2 minutes"


def test_criterion_06_infinite_depth_limits():
    critical = make_theta_pgf(theta=0.7, a=1.0, c=0.5)
    deep = kernel_at_rho(PureKernel(critical, 10 ** 6), 0.0)
    assert deep == pytest.approx(1.0, abs=1e-5)
    assert kernel_limit(PureKernel(critical, 1), 0.0) == 1.0

    subcritical = make_theta_pgf(theta=0.5, a=0.5, q=0.3)
    deep = kernel_at_rho(PureKernel(subcritical, 200), 0.0)
    assert deep == pytest.approx(0.3, abs=1e-6)
    assert kernel_limit(PureKernel(subcritical, 1), 0.0) == 0.3


def test_criterion_07_cmixed_dichotomy():
    # convergent weights: partial sums approach 1, kernel value approaches 1/2
    n = 10 ** 5
    ks = np.arange(1, n + 1, dtype=float)
    convergent = 6.0 / (math.pi ** 2 * ks ** 2)
    spec = CMixedKernel(1.0, tuple(convergent))
    assert kernel_at_rho(spec, 0.0) == pytest.approx(0.5, abs=1e-4)
    assert kernel_limit(spec, 0.0, c_sum=1.0) == pytest.approx(0.5, abs=1e-12)

    # divergent weights: values strictly increase and match the closed form
    # 1 - ((1 - rho)**-1 + H_n)**-1 built from exact partial sums
    grid = np.array(RHO_GRID)
    previous = None
    partial = 0.0
    harmonic = []
    for depth in range(1, 401):
        harmonic.append(1.0 / depth)
        partial = math.fsum(harmonic)
        spec = CMixedKernel(1.0, tuple(harmonic))
        values = kernel_at_rho(spec, grid)
        expected = 1.0 - 1.0 / ((1.0 - grid) ** -1.0 + partial)
        assert np.max(np.abs(values - expected)) <= 1e-12
        at_zero = kernel_at_rho(spec, 0.0)
        if previous is not None:
            assert at_zero > previous
        previous = at_zero
    assert kernel_limit(spec, 0.0, c_sum=math.inf) == 1.0


def test_criterion_08_pure_representation_identity():
    rng = np.random.default_rng(5500)
    grid = np.array(RHO_GRID + (1.0,))
    for _ in range(20):
        theta = float(rng.uniform(0.05, 1.0))
        cs = tuple(float(v) for v in rng.uniform(0.05, 2.0, size=8))
        for k in range(1, 9):
            truncated = kernel_at_rho(CMixedKernel(theta, cs[:k]), grid)
            represented = kernel_at_rho(
                PureKernel(cmixed_pure_representation(theta, cs, k), k), grid)
            assert np.max(np.abs(truncated - represented)) <= 1e-12


def test_criterion_09_psd_and_eigenvalue_sum():
    specs = [
        PureKernel(make_theta_pgf(theta=1.0, a=1.0, c=1.0), 2),
        PureKernel(make_theta_pgf(theta=0.5, a=0.5, q=0.3), 1),
        CMixedKernel(0.7, (0.4, 0.8, 0.2)),
    ]
    for m in (3, 10):
        rng = np.random.default_rng(5600 + m)
        points = rng.standard_normal((200, m))
        points /= np.linalg.norm(points, axis=1, keepdims=True)
        for spec in specs:
            kmat = gram(spec, points)
            eigs = np.linalg.eigvalsh(kmat)
            trace = float(np.trace(kmat))
            assert eigs.min() >= -1e-8 * trace, (
                f"min eigenvalue {eigs.min()} below -1e-8 * trace for m={m}")

            system = eigensystem(spec, m, 40)
            total = math.fsum(l * r for l, r in zip(system.lambdas,
                                                    system.multiplicities))
            p = theta_coefficients(spec_to_pgf(spec), 40)
            independent = surface_area(m) * float(p.sum())
            assert total == pytest.approx(independent, rel=1e-10)


def test_criterion_10_gp_interpolation_and_variance():
    rng = np.random.default_rng(5700)
    X = rng.standard_normal((25, 4))
    y = rng.standard_normal(25)
    spec = PureKernel(make_theta_pgf(theta=0.5, a=1.2, c=0.4), 2)
    model = fit(spec, X, y)
    at_train = predict(model, X)
    assert np.max(np.abs(at_train.means - y)) <= 1e-6

    prior = kernel_at_rho(spec, 1.0)
    query = np.vstack([X, rng.standard_normal((100, 4))])
    out = predict(model, query)
    assert np.all(out.variances <= prior + 1e-10)


def test_criterion_11_affine_activation_figure(tmp_path, capsys):
    f = make_theta_pgf(theta=-1.0, a=0.99, q=0.99)
    p = theta_coefficients(f, 64)
    assert np.all(p[2:] == 0.0), "higher Hermite coefficients must vanish exactly"
    act = activation_from_coefficients(p)
    xs = np.linspace(-2.0, 2.0, 101)
    affine = act.coefficients[0] + act.coefficients[1] * xs
    assert np.max(np.abs(act(xs) - affine)) <= 1e-14

    recorded = {}
    for case in ("linear", "prelu-proxy", "relu-proxy"):
        first = tmp_path / f"{case}-1.csv"
        second = tmp_path / f"{case}-2.csv"
        assert app(["reproduce-fig1", "--case", case, "--out", str(first)]) == 0
        line_one = capsys.readouterr().out
        assert app(["reproduce-fig1", "--case", case, "--out", str(second)]) == 0
        line_two = capsys.readouterr().out
        assert first.read_bytes() == second.read_bytes(), f"{case} not bitwise stable"
        assert line_one == line_two
        assert line_one.startswith("sup_distance ")
        recorded[case] = float(line_one.split()[1])
    assert all(math.isfinite(v) and v >= 0.0 for v in recorded.values())
