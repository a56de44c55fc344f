"""Spectral analysis of the axisymmetric massless Dirac operator on the
unit 3-torus under smooth one-parameter metric perturbations.

The package computes Galerkin spectra of the perturbed operator, the first
and second order expansion coefficients of the eigenvalues +1 and -1 by
three independent routes, and spectral asymmetry diagnostics.
"""

from .trigpoly import Matrix3Field, TrigPoly, grid_points
from .geometry import (
    CoframeFamily,
    MetricSnapshot,
    NumericalContractError,
    SingularCoframeError,
    arc_length,
    first_order_perturbation,
    metric_at,
    second_order_perturbation,
)
from .dirac import (
    DiracOperator,
    SpinorField,
    UnderResolvedError,
    charge_conjugate,
    dirac_operator,
    first_order_operator,
    free_operator,
    second_order_operator,
)
from .galerkin import (
    GalerkinMatrix,
    SpectrumReport,
    TrackingError,
    basis_spinor,
    eigenvalues,
    galerkin_matrix,
    spectrum_report,
    track_pair,
)
from .perturbation import (
    DegenerateSplittingError,
    FitResult,
    PerturbationReport,
    Pseudoinverse,
    PseudoinverseDomainError,
    TruncationError,
    first_correction_closed,
    first_correction_operator,
    fit_expansion,
    perturbation_report,
    second_correction_closed,
    second_correction_operator,
    second_order_asymmetry,
)
from .config import ConfigError, RunConfig, load_config_file, load_example, parse_config

__version__ = "0.1.0"

__all__ = [
    "Matrix3Field",
    "TrigPoly",
    "grid_points",
    "CoframeFamily",
    "MetricSnapshot",
    "NumericalContractError",
    "SingularCoframeError",
    "arc_length",
    "first_order_perturbation",
    "metric_at",
    "second_order_perturbation",
    "DiracOperator",
    "SpinorField",
    "UnderResolvedError",
    "charge_conjugate",
    "dirac_operator",
    "first_order_operator",
    "free_operator",
    "second_order_operator",
    "GalerkinMatrix",
    "SpectrumReport",
    "TrackingError",
    "basis_spinor",
    "eigenvalues",
    "galerkin_matrix",
    "spectrum_report",
    "track_pair",
    "DegenerateSplittingError",
    "FitResult",
    "PerturbationReport",
    "Pseudoinverse",
    "PseudoinverseDomainError",
    "TruncationError",
    "first_correction_closed",
    "first_correction_operator",
    "fit_expansion",
    "perturbation_report",
    "second_correction_closed",
    "second_correction_operator",
    "second_order_asymmetry",
    "ConfigError",
    "RunConfig",
    "load_config_file",
    "load_example",
    "parse_config",
]
