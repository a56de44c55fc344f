"""Spectral analysis of the axisymmetric massless Dirac operator on the
unit 3-torus under smooth one-parameter metric perturbations.

The package computes Galerkin spectra of the perturbed operator, the first
and second order expansion coefficients of the eigenvalues +1 and -1 by
three independent routes, and spectral asymmetry diagnostics.
"""

from .trigpoly import Matrix3Field, TrigPoly
from .geometry import (
    CoframeFamily,
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
    TrackingError,
    eigenvalues,
    galerkin_matrix,
    spectrum_report,
    track_pair,
)
from .perturbation import (
    Pseudoinverse,
    PseudoinverseDomainError,
    TruncationError,
    first_correction_closed,
    first_correction_operator,
    fit_expansion,
    perturbation_report,
    second_correction_closed,
    second_correction_operator,
)
from .config import ConfigError, load_config_file, load_example, parse_config

__version__ = "0.1.0"

__all__ = [
    "Matrix3Field",
    "TrigPoly",
    "CoframeFamily",
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
    "TrackingError",
    "eigenvalues",
    "galerkin_matrix",
    "spectrum_report",
    "track_pair",
    "Pseudoinverse",
    "PseudoinverseDomainError",
    "TruncationError",
    "first_correction_closed",
    "first_correction_operator",
    "fit_expansion",
    "perturbation_report",
    "second_correction_closed",
    "second_correction_operator",
    "ConfigError",
    "load_config_file",
    "load_example",
    "parse_config",
]
