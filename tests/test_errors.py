"""Bad arguments raise a typed ThetaKernelError, not a bare ValueError."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from thetakernels import gp
from thetakernels.activations import reference_activation
from thetakernels.errors import (DomainError, InvalidCoefficients,
                                 NumericalInstability, ThetaKernelError)
from thetakernels.hermite import hermite_series
from thetakernels.kernels import PureKernel
from thetakernels.pgf import make_theta_pgf

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
    (lambda: hermite_series([], 0.5), InvalidCoefficients),
    (lambda: gp.fit(K, X, [1.0, np.nan, 1.0]), DomainError),
    (lambda: gp.fit(K, X, [1.0, np.inf, 1.0]), DomainError),
    (lambda: gp.fit(K, X, Y, noise=np.inf), DomainError),
    (lambda: gp.fit(K, X, Y, noise=np.nan), DomainError),
    (_with_nan_entry("gram", lambda model: gp.fit(K, X, Y)), NumericalInstability),
    (_with_nan_entry("cross_gram", lambda model: gp.predict(model, X)),
     NumericalInstability),
], ids=["prelu-slope", "empty-series", "gp-nan-target", "gp-inf-target", "gp-inf-noise",
        "gp-nan-noise", "gp-nan-gram", "gp-nan-cross-gram"])
def test_typed_error(call, error):
    with pytest.raises(error) as info:
        call()
    assert isinstance(info.value, ThetaKernelError)
