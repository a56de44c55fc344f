"""Spectral analysis of the axisymmetric massless Dirac operator on the
unit 3-torus under smooth one-parameter metric perturbations.

The package computes Galerkin spectra of the perturbed operator, the first
and second order expansion coefficients of the eigenvalues +1 and -1 by
three independent routes, and spectral asymmetry diagnostics.
"""

from .geometry import CoframeFamily, NumericalContractError, SingularCoframeError, UnderResolvedError
from .geometry import arc_length
from .dirac import DiracOperator, dirac_operator
from .galerkin import TrackingError, eigenvalues, galerkin_matrix, spectrum_report, track_pair
from .perturbation import PseudoinverseDomainError, TruncationError, fit_expansion, perturbation_report
from .config import ConfigError, load_config_file, load_example, parse_config

__version__ = "0.1.0"

__all__ = [
    "CoframeFamily",
    "NumericalContractError",
    "SingularCoframeError",
    "UnderResolvedError",
    "arc_length",
    "DiracOperator",
    "dirac_operator",
    "TrackingError",
    "eigenvalues",
    "galerkin_matrix",
    "spectrum_report",
    "track_pair",
    "PseudoinverseDomainError",
    "TruncationError",
    "fit_expansion",
    "perturbation_report",
    "ConfigError",
    "load_config_file",
    "load_example",
    "parse_config",
]
