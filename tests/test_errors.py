"""Bad arguments raise a typed ThetaKernelError, not a bare ValueError."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from thetakernels import gp
from thetakernels.activations import (HermiteSeriesActivation, ReferenceActivation,
                                      activation_to_pgf, bivariate_expectation,
                                      reference_activation)
from thetakernels.errors import (DimensionUnsupported, DomainError, InvalidCoefficients,
                                 NumericalInstability, RegimeViolation, ThetaKernelError,
                                 ZeroVector)
from thetakernels.hermite import hermite_design, hermite_series
from thetakernels.kernels import (CMixedKernel, MixedKernel, PureKernel,
                                  cmixed_pure_representation, correlation, cross_gram,
                                  eigensystem, gram, kernel_at_rho, kernel_limit, multiplicity,
                                  surface_area)
from thetakernels.mlp import (MlpConfig, convergence_study, empirical_kernel,
                              reference_kernel_value, sample_mlp_output)
from thetakernels.pgf import (SeriesPgf, make_theta_pgf, pgf_iterate_closed,
                              series_coefficients, theta_coefficients, theta_pgf_to_series)

F = make_theta_pgf(theta=1.0, a=1.0, c=1.0)
K = PureKernel(F, 2)
X = np.eye(3)
Y = np.ones(3)
RELU = reference_activation("relu")
NET = MlpConfig(widths=(2, 8, 1), activations=RELU, seed=0)


def _with_nan_entry(name, call):
    """Run call with gp.<name> returning its matrix with one NaN entry."""
    build = getattr(gp, name)

    def poisoned(*args):
        matrix = build(*args)
        matrix[-1, 0] = np.nan
        return matrix

    def run():
        model = gp.fit(K, X, Y)
        with mock.patch.object(gp, name, poisoned):
            call(model)
    return run


@pytest.mark.parametrize("call, error", [
    (lambda: reference_activation("prelu(abc)"), DomainError),
    (lambda: ReferenceActivation(float("nan")), DomainError),
    (lambda: ReferenceActivation(True), DomainError),
    (lambda: ReferenceActivation(1e200), DomainError),
    (lambda: hermite_series([], 0.5), InvalidCoefficients),
    (lambda: HermiteSeriesActivation(SeriesPgf((0.25, -0.1))), InvalidCoefficients),
    (lambda: HermiteSeriesActivation(SeriesPgf((0.25, float("nan")))), InvalidCoefficients),
    (lambda: CMixedKernel(True, (0.5,)), RegimeViolation),
    (lambda: CMixedKernel(0.5, (True,)), RegimeViolation),
    (lambda: kernel_limit(PureKernel(F, 1), 0.5, c_sum=-5.0), DomainError),
    (lambda: PureKernel(SeriesPgf((0.5, 0.5)), 2), RegimeViolation),
    (lambda: pgf_iterate_closed(SeriesPgf((0.5, 0.5)), 2), RegimeViolation),
    (lambda: bivariate_expectation(lambda x: x, 0.5), DomainError),
    (lambda: activation_to_pgf(lambda x: x, 4), DomainError),
    (lambda: surface_area(344), NumericalInstability),
    (lambda: CMixedKernel(0.5, (1e308, 1e308)), RegimeViolation),
    (lambda: MixedKernel((F, object())), DomainError),
    (lambda: MixedKernel((F, PureKernel(F, 2))), DomainError),
    (lambda: SeriesPgf((0.5,), eps_tail=True), InvalidCoefficients),
    (lambda: SeriesPgf((0.5,), eps_tail="0.1"), InvalidCoefficients),
    (lambda: SeriesPgf((0.5,), eps_tail=None), InvalidCoefficients),
    (lambda: series_coefficients(
        lambda z: np.where(abs(z.imag) < 1e-3, np.nan, 0.5 + 0.25 * z), 4),
     NumericalInstability),
    (lambda: series_coefficients(lambda z: np.full_like(z, np.inf), 4), NumericalInstability),
    (lambda: series_coefficients(lambda z: 0.5 + 0.25j * z, 4), DomainError),
    (lambda: series_coefficients(lambda z: 0.5, 4), DomainError),
    (lambda: series_coefficients(lambda z: np.ones(3), 4), DomainError),
    (lambda: gp.fit(K, X, [1.0, np.nan, 1.0]), DomainError),
    (lambda: gp.fit(K, X, [1.0, np.inf, 1.0]), DomainError),
    (lambda: gp.fit(K, X, Y, noise=np.inf), DomainError),
    (lambda: gp.fit(K, X, Y, noise=np.nan), DomainError),
    (lambda: gp.fit(K, X, Y, noise=True), DomainError),
    (_with_nan_entry("gram", lambda model: gp.fit(K, X, Y)), NumericalInstability),
    (_with_nan_entry("cross_gram", lambda model: gp.predict(model, X)),
     NumericalInstability),
    (lambda: kernel_at_rho(K, "x"), DomainError),
    (lambda: kernel_at_rho(K, 0.5 + 0j), DomainError),
    (lambda: kernel_at_rho(K, np.array([0.5 + 0.9j])), DomainError),
    (lambda: kernel_limit(K, "x"), DomainError),
    (lambda: reference_kernel_value(NET, "x"), DomainError),
    (lambda: reference_kernel_value(NET, [0.5]), DomainError),
    (lambda: reference_kernel_value(None, 0.5), DomainError),
    (lambda: bivariate_expectation(RELU, "x"), DomainError),
    (lambda: bivariate_expectation(RELU, [0.5]), DomainError),
    (lambda: bivariate_expectation(RELU, np.array([0.5, 0.5])), DomainError),
    (lambda: F.eval("x"), DomainError),
    (lambda: F.eval(0.5 + 0j), DomainError),
    (lambda: SeriesPgf((0.5, "a")), InvalidCoefficients),
    (lambda: SeriesPgf((0.5, [0.1, 0.2])), InvalidCoefficients),
    (lambda: sample_mlp_output(NET, ["a", 1.0]), DomainError),
    (lambda: empirical_kernel(NET, ["a", 1.0], [1.0, 0.0], 100), DomainError),
    (lambda: convergence_study(NET, [8], ["a", 1.0], [1.0, 0.0], 100), DomainError),
    (lambda: gp.fit(K, X, ["a", "b", "c"]), DomainError),
    (lambda: gp.fit(K, [["a", "b", "c"]] * 3, Y), DomainError),
    (lambda: gp.fit(K, [[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]], Y), DomainError),
    (lambda: gp.predict(gp.fit(K, X, Y), [["a", "0", "0"]]), DomainError),
    (lambda: gp.predict(gp.fit(K, X, Y), [[1.0, 0.0, 0.0], [1.0]]), DomainError),
    (lambda: cross_gram(K, [["a", 0.0, 0.0]], X), DomainError),
    (lambda: correlation("ab", "cd"), DomainError),
    (lambda: series_coefficients(None, 4), DomainError),
    (lambda: series_coefficients("ab", 4), DomainError),
    (lambda: CMixedKernel(0.5, 3), DomainError),
    (lambda: CMixedKernel(0.5, None), DomainError),
    (lambda: cmixed_pure_representation(0.5, 3, 1), DomainError),
    (lambda: theta_coefficients(SeriesPgf((0.5, 0.5)), 4), RegimeViolation),
    (lambda: theta_pgf_to_series(SeriesPgf((0.5, 0.5)), 4), RegimeViolation),
    (lambda: pgf_iterate_closed(F, 10 ** 400), DomainError),
    (lambda: pgf_iterate_closed(F, 2 ** 53), DomainError),
    (lambda: kernel_at_rho(PureKernel(F, 10 ** 400), 0.5), RegimeViolation),
    (lambda: theta_coefficients(F, 10 ** 400), DomainError),
    (lambda: series_coefficients(F, 2 ** 16 + 1), DomainError),
    (lambda: activation_to_pgf(RELU, 10 ** 400), DomainError),
    (lambda: hermite_design(10 ** 400, 0.5), DomainError),
    (lambda: empirical_kernel(NET, [1.0, 0.0], [0.0, 1.0], 10 ** 400), DomainError),
    (lambda: empirical_kernel(NET, [1.0, 0.0], [0.0, 1.0], 10 ** 8 + 1), DomainError),
    (lambda: eigensystem(K, 3, 10 ** 400), DomainError),
    (lambda: multiplicity(2 ** 16 + 1, 2), DimensionUnsupported),
    (lambda: multiplicity(3, 2 ** 16 + 1), DomainError),
    (lambda: empirical_kernel(MlpConfig((2, 10 ** 12, 1), RELU, 0), [1.0, 0.0], [0.0, 1.0],
                              100), DomainError),
    (lambda: MlpConfig((2, 2 ** 16 + 1, 1), RELU, 0), DomainError),
    (lambda: convergence_study(NET, [8, 2 ** 16 + 1], [1.0, 0.0], [0.0, 1.0], 100),
     DomainError),
    (lambda: eigensystem(MixedKernel((SeriesPgf((0.5,)),)), 343, 1000),
     NumericalInstability),
    (lambda: gram(K, [[]]), ZeroVector),
    (lambda: gram(K, np.empty((3, 0))), ZeroVector),
    (lambda: cross_gram(K, np.empty((3, 0)), np.empty((2, 0))), ZeroVector),
    (lambda: correlation([], []), ZeroVector),
    (lambda: gp.fit(K, np.empty((3, 0)), [1.0, 2.0, 3.0]), ZeroVector),
], ids=["prelu-slope", "nan-slope", "bool-slope", "slope-square-overflows",
        "empty-series", "negative-hermite-coefficient", "nan-hermite-coefficient",
        "cmixed-bool-theta", "cmixed-bool-c", "pure-limit-c-sum", "pure-series-factor",
        "iterate-series", "bivariate-callable", "to-pgf-callable", "surface-area-overflow",
        "cmixed-c-sum-overflow", "composed-object-factor", "composed-pure-kernel-factor",
        "eps-tail-bool", "eps-tail-str", "eps-tail-none", "oracle-nan-values",
        "oracle-inf-values", "oracle-complex-coefficients", "oracle-scalar-values",
        "oracle-short-values", "gp-nan-target",
        "gp-inf-target", "gp-inf-noise", "gp-nan-noise", "gp-bool-noise", "gp-nan-gram",
        "gp-nan-cross-gram", "rho-str", "rho-complex", "rho-complex-array", "limit-rho-str",
        "reference-rho-str", "reference-rho-list", "reference-none-config", "bivariate-str", "bivariate-list",
        "bivariate-pair", "eval-str", "eval-complex", "series-str-entry",
        "series-ragged-entry", "sample-str-input", "empirical-str-input",
        "study-str-input", "gp-str-targets", "gp-str-inputs", "gp-ragged-inputs",
        "predict-str-query", "predict-ragged-query", "cross-gram-str-point",
        "correlation-str", "oracle-none", "oracle-str", "cmixed-int-c", "cmixed-none-c",
        "cmixed-pure-int-c", "coefficients-series-pgf", "to-series-series-pgf",
        "iterate-huge-depth", "iterate-depth-ceiling", "pure-huge-depth",
        "coefficients-huge-order", "oracle-order-ceiling", "to-pgf-huge-order",
        "hermite-design-huge-order", "empirical-huge-samples", "empirical-samples-ceiling",
        "eigensystem-huge-order", "multiplicity-dimension-ceiling",
        "multiplicity-degree-ceiling", "empirical-huge-width", "width-ceiling",
        "study-width-ceiling", "eigensystem-multiplicity-overflow", "gram-empty-row",
        "gram-zero-length-rows", "cross-gram-zero-length-rows", "correlation-empty",
        "gp-zero-length-inputs"])
def test_typed_error(call, error):
    with pytest.raises(error) as info:
        call()
    assert isinstance(info.value, ThetaKernelError)


def test_ceilings_are_inclusive():
    assert pgf_iterate_closed(F, 2 ** 53 - 1).c == pytest.approx(2.0 ** 53)
    assert PureKernel(F, 2 ** 53 - 1).depth == 2 ** 53 - 1
    assert multiplicity(3, 2 ** 16) == 2 * 2 ** 16 + 1
    assert multiplicity(2 ** 16, 1) == 2 ** 16
    assert MlpConfig((2, 2 ** 16, 1), RELU, 0).widths[1] == 2 ** 16
