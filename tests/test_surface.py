"""The public surface of the package, pinned.

A change that adds or removes a top-level name edits ``PUBLIC`` on purpose;
names deleted from the package must stay deleted.
"""

import inspect

import torusdirac
from torusdirac import config, galerkin, geometry, perturbation, trigpoly

PUBLIC = [
    "CoframeFamily",
    "ConfigError",
    "DiracOperator",
    "Matrix3Field",
    "NumericalContractError",
    "Pseudoinverse",
    "PseudoinverseDomainError",
    "SingularCoframeError",
    "SpinorField",
    "TrackingError",
    "TrigPoly",
    "TruncationError",
    "UnderResolvedError",
    "arc_length",
    "charge_conjugate",
    "dirac_operator",
    "eigenvalues",
    "first_correction_closed",
    "first_correction_operator",
    "first_order_operator",
    "first_order_perturbation",
    "fit_expansion",
    "free_operator",
    "galerkin_matrix",
    "load_config_file",
    "load_example",
    "metric_at",
    "parse_config",
    "perturbation_report",
    "second_correction_closed",
    "second_correction_operator",
    "second_order_operator",
    "second_order_perturbation",
    "spectrum_report",
    "track_pair",
]

# (owner, attribute) pairs deleted from the package
DELETED = [
    (trigpoly, "parseval_product"),
    (trigpoly.TrigPoly, "__rsub__"),
    (trigpoly.TrigPoly, "triples"),
    (trigpoly.TrigPoly, "conjugate"),
    (trigpoly.TrigPoly, "is_zero"),
    (geometry.CoframeFamily, "linear"),
    (geometry.MetricSnapshot, "g"),
    (galerkin.GalerkinMatrix, "row"),
    (perturbation, "eigenspace_projection"),
    (perturbation, "second_order_asymmetry"),
    (perturbation, "_mode_sum_truncation"),
]

# names that left the top level but stay importable from their modules
MODULE_ONLY = [
    (trigpoly, "grid_points"),
    (geometry, "MetricSnapshot"),
    (galerkin, "GalerkinMatrix"),
    (galerkin, "SpectrumReport"),
    (galerkin, "basis_spinor"),
    (perturbation, "DegenerateSplittingError"),
    (perturbation, "FitResult"),
    (perturbation, "PerturbationReport"),
    (config, "RunConfig"),
]


def test_all_is_pinned():
    assert sorted(torusdirac.__all__) == PUBLIC
    missing = [name for name in PUBLIC if getattr(torusdirac, name, None) is None]
    assert missing == []


def test_deleted_names_are_gone():
    present = [f"{owner.__name__}.{name}" for owner, name in DELETED if hasattr(owner, name)]
    assert present == []
    assert "__repr__" not in vars(trigpoly.Matrix3Field)
    assert not callable(perturbation.Pseudoinverse(lambda0=1, truncation=6))


def test_second_correction_operator_takes_no_truncation():
    params = inspect.signature(perturbation.second_correction_operator).parameters
    assert list(params) == ["h", "k", "n"]


def test_module_only_names():
    for module, name in MODULE_ONLY:
        assert hasattr(module, name), name
        assert not hasattr(torusdirac, name), name
