"""Bad arguments raise a typed ThetaKernelError, not a bare ValueError."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from thetakernels import gp
from thetakernels.activations import (HermiteSeriesActivation, ReferenceActivation,
                                      bivariate_expectation, reference_activation)
from thetakernels.errors import (DomainError, InvalidCoefficients, NumericalInstability,
                                 RegimeViolation, ThetaKernelError)
from thetakernels.hermite import hermite_series
from thetakernels.kernels import CMixedKernel, PureKernel, kernel_limit
from thetakernels.pgf import SeriesPgf, make_theta_pgf, pgf_iterate_closed

F = make_theta_pgf(theta=1.0, a=1.0, c=1.0)
K = PureKernel(F, 2)
X = np.eye(3)
Y = np.ones(3)


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
    (lambda: gp.fit(K, X, [1.0, np.nan, 1.0]), DomainError),
    (lambda: gp.fit(K, X, [1.0, np.inf, 1.0]), DomainError),
    (lambda: gp.fit(K, X, Y, noise=np.inf), DomainError),
    (lambda: gp.fit(K, X, Y, noise=np.nan), DomainError),
    (lambda: gp.fit(K, X, Y, noise=True), DomainError),
    (_with_nan_entry("gram", lambda model: gp.fit(K, X, Y)), NumericalInstability),
    (_with_nan_entry("cross_gram", lambda model: gp.predict(model, X)),
     NumericalInstability),
], ids=["prelu-slope", "nan-slope", "bool-slope", "slope-square-overflows",
        "empty-series", "negative-hermite-coefficient", "nan-hermite-coefficient",
        "cmixed-bool-theta", "cmixed-bool-c", "pure-limit-c-sum", "pure-series-factor",
        "iterate-series", "bivariate-callable", "gp-nan-target",
        "gp-inf-target", "gp-inf-noise", "gp-nan-noise", "gp-bool-noise", "gp-nan-gram",
        "gp-nan-cross-gram"])
def test_typed_error(call, error):
    with pytest.raises(error) as info:
        call()
    assert isinstance(info.value, ThetaKernelError)
