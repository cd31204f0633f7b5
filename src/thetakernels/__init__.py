"""Compositional kernels from branching-process generating functions."""

from .errors import (
    ConfigError,
    DerivedCMismatch,
    DimensionMismatch,
    DimensionUnsupported,
    DomainError,
    EmptySequence,
    FactorizationFailed,
    IndexOutOfRange,
    InvalidCoefficients,
    NumericalInstability,
    RegimeViolation,
    ThetaKernelError,
    UnknownSumConvergence,
    ZeroNormLayer,
    ZeroVector,
)
from .pgf import (
    ComposedPgf,
    Pgf,
    Regime,
    SeriesPgf,
    ThetaPgf,
    make_theta_pgf,
    pgf_iterate_closed,
    series_coefficients,
    theta_coefficients,
    theta_pgf_to_series,
)
from .activations import (
    Activation,
    HermiteSeriesActivation,
    ReferenceActivation,
    activation_from_coefficients,
    activation_to_pgf,
    bivariate_expectation,
    reference_activation,
)
from .kernels import (
    CMixedKernel,
    Eigensystem,
    KernelSpec,
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
from .mlp import (
    KernelEstimate,
    MlpConfig,
    StudyRow,
    convergence_study,
    empirical_kernel,
    sample_mlp_output,
)
from .gp import GpModel, PredictResult, fit, predict

__version__ = "0.1.0"
