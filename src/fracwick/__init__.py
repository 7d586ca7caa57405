"""Numerical stochastic calculus for long-memory Gaussian noise.

Exact-law fractional Brownian paths on finite grids, the singular-kernel
inner product computed in closed form, Wick-Riemann integrals with their
correction terms, Monte Carlo verification of change-of-variable and
change-of-measure identities, and pathwise solvers for additive-noise
equations.
"""
from .errors import (
    ConfigError,
    DriftBlowupError,
    EmbeddingFailureError,
    FracwickError,
    GridMismatchError,
    LongMemoryRequiredError,
    NonConvergenceError,
    SingularCovarianceError,
    UnsupportedCaseError,
    VarianceOverflowError,
)
from .fbm import (
    GENERATOR_NAMES,
    CovarianceMatrix,
    HurstParameter,
    covariance_grid,
    empirical_covariance,
    ensemble_values,
)
from .functions import CylinderFunction, SpaceTimeFunction
from .grids import TimeGrid, write_ensemble_csv
from .mc import MonteCarloReport
from .phicalc import PhiContext, phi_norm_sq, rect_weight_matrix
from .rng import SeedSpec
from .sde import SdeSpec, fou_oracle, make_fou, sde_mc_stats
from .stepfn import StepFunction
from .verify import (
    ITO_MEAN_ZERO_CASES,
    ConvergenceTable,
    DriveSpec,
    ItoCase,
    WentzellCase,
    convergence_study,
    exponential_mean_report,
    girsanov_case_registry,
    girsanov_check,
    ito_case_registry,
    ito_residuals,
    product_rule_case_registry,
    product_rule_residuals,
    wentzell_case_registry,
    wentzell_residuals,
)
from .wick import exponential_functional, isometry_check, wick_integral_deterministic

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ConvergenceTable",
    "CovarianceMatrix",
    "CylinderFunction",
    "DriftBlowupError",
    "DriveSpec",
    "EmbeddingFailureError",
    "FracwickError",
    "GENERATOR_NAMES",
    "ITO_MEAN_ZERO_CASES",
    "GridMismatchError",
    "HurstParameter",
    "ItoCase",
    "LongMemoryRequiredError",
    "MonteCarloReport",
    "NonConvergenceError",
    "PhiContext",
    "SdeSpec",
    "SeedSpec",
    "SingularCovarianceError",
    "SpaceTimeFunction",
    "StepFunction",
    "TimeGrid",
    "UnsupportedCaseError",
    "VarianceOverflowError",
    "WentzellCase",
    "convergence_study",
    "covariance_grid",
    "empirical_covariance",
    "ensemble_values",
    "exponential_mean_report",
    "exponential_functional",
    "fou_oracle",
    "girsanov_case_registry",
    "girsanov_check",
    "isometry_check",
    "ito_case_registry",
    "ito_residuals",
    "make_fou",
    "phi_norm_sq",
    "product_rule_case_registry",
    "product_rule_residuals",
    "rect_weight_matrix",
    "sde_mc_stats",
    "wentzell_case_registry",
    "wentzell_residuals",
    "wick_integral_deterministic",
    "write_ensemble_csv",
]
