"""Bad arguments raise a typed ThetaKernelError, not a bare ValueError."""

from __future__ import annotations

import pytest

from thetakernels.activations import reference_activation
from thetakernels.errors import DomainError, InvalidCoefficients, ThetaKernelError
from thetakernels.hermite import hermite_series
from thetakernels.pgf import make_theta_pgf, series_coefficients

F = make_theta_pgf(theta=1.0, a=1.0, c=1.0)


@pytest.mark.parametrize("call, error", [
    (lambda: reference_activation("prelu(abc)"), DomainError),
    (lambda: series_coefficients(F, 8, radius=1.0), DomainError),
    (lambda: series_coefficients(F, 8, num_nodes=16), DomainError),
    (lambda: series_coefficients(F, 8, num_nodes=40.5), DomainError),
    (lambda: series_coefficients(F, 8, num_nodes=True), DomainError),
    (lambda: hermite_series([], 0.5), InvalidCoefficients),
], ids=["prelu-slope", "radius", "few-nodes", "fractional-nodes", "bool-nodes",
        "empty-series"])
def test_typed_error(call, error):
    with pytest.raises(error) as info:
        call()
    assert isinstance(info.value, ThetaKernelError)
