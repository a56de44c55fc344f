"""The public surface of the package, pinned.

A change that adds or removes a top-level name edits ``PUBLIC`` on purpose;
names deleted from the package must stay deleted.
"""

import importlib
import inspect
import subprocess
import sys

import torusdirac
from torusdirac import config, dirac, galerkin, perturbation, trigpoly

PUBLIC = [
    "CoframeFamily",
    "ConfigError",
    "DiracOperator",
    "NumericalContractError",
    "PseudoinverseDomainError",
    "SingularCoframeError",
    "TrackingError",
    "TruncationError",
    "UnderResolvedError",
    "arc_length",
    "dirac_operator",
    "eigenvalues",
    "fit_expansion",
    "galerkin_matrix",
    "load_config_file",
    "load_example",
    "parse_config",
    "perturbation_report",
    "spectrum_report",
    "track_pair",
]

# names deleted from the package, as dotted paths below ``torusdirac``,
# resolved when the test runs
DELETED = [
    "trigpoly.parseval_product",
    "trigpoly.TrigPoly",
    "trigpoly.Matrix3Field",
    "geometry.CoframeFamily.linear",
    "geometry.MetricSnapshot",
    "geometry.metric_at",
    "geometry._matrix",
    "geometry._h_coefficients",
    "geometry._k_coefficients",
    "dirac.DiracOperator.aliasing",
    "dirac.DiracOperator.require_resolved",
    "dirac.SpinorField",
    "dirac.charge_conjugate",
    "galerkin.GalerkinMatrix.row",
    "perturbation.Pseudoinverse",
    "perturbation.eigenspace_projection",
    "perturbation.second_order_asymmetry",
    "perturbation._mode_sum_truncation",
    "perturbation._first_correction_closed",
    "dirac.free_operator",
    "dirac.first_order_operator",
    "dirac.second_order_operator",
    "perturbation.first_correction_closed",
    "perturbation.first_correction_operator",
    "perturbation.second_correction_closed",
    "perturbation.second_correction_operator",
    "perturbation._check_sign",
    "perturbation.PerturbationReport.fit_order",
    "geometry.CoframeFamily.coframe_at",
    "geometry.as_real_samples",
    "geometry._ONE",
    "trigpoly.det3",
    "trigpoly._phases",
    "trigpoly._phase_tables",
    "trigpoly._phase_lock",
    "trigpoly.PHASE_TABLE_BYTES",
    "galerkin._symmetrize",
    "galerkin._STRIP_BYTES",
    "geometry.real_samples",
    "geometry.require_real_samples",
    "geometry.positive_det",
    "geometry.require_resolved",
    "perturbation._require_real",
    "trigpoly.stack_entries",
    "geometry._k_coefficient",
    "perturbation._antisymmetric_flux_sum",
    "dirac._contract_checks",
    "dirac.DiracOperator._checked",
    "dirac.DiracOperator._hold",
    "galerkin.GalerkinMatrix.herm_residual",
    "trigpoly.poly_on_grid",
    "dirac.symbol_matrix",
    "geometry.first_order_perturbation",
    "geometry.second_order_perturbation",
    "geometry._k_block",
    "perturbation._require_finite",
]

# names that left the top level but stay importable from their modules
MODULE_ONLY = [
    (trigpoly, "grid_points"),
    (galerkin, "GalerkinMatrix"),
    (galerkin, "SpectrumReport"),
    (dirac, "inner"),
    (galerkin, "basis_spinor"),
    (perturbation, "DegenerateSplittingError"),
    (perturbation, "FitResult"),
    (perturbation, "PerturbationReport"),
    (perturbation, "pseudoinverse"),
    (config, "RunConfig"),
    (dirac, "dirac_operators"),
    (galerkin, "spectrum_sweep"),
]


def test_all_is_pinned():
    assert sorted(torusdirac.__all__) == PUBLIC
    missing = [name for name in PUBLIC if getattr(torusdirac, name, None) is None]
    assert missing == []


def _resolves(path: str) -> bool:
    module, *attrs = path.split(".")
    owner = importlib.import_module(f"torusdirac.{module}")
    for attr in attrs:
        if not hasattr(owner, attr):
            return False
        owner = getattr(owner, attr)
    return True


def test_deleted_names_are_gone():
    assert [path for path in DELETED if _resolves(path)] == []


def test_perturbation_report_is_the_one_route_entry():
    params = inspect.signature(perturbation.perturbation_report).parameters
    assert list(params) == ["cf", "route", "m"]


def test_second_order_terms_run_the_kramers_pair_only():
    params = inspect.signature(perturbation._second_order_terms).parameters
    assert list(params) == ["w1", "w2", "w1v", "l1", "truncation"]


def test_dirac_operator_takes_the_grid_size_without_default():
    params = inspect.signature(dirac.dirac_operator).parameters
    assert list(params) == ["cf", "eps", "n"]
    assert params["n"].default is inspect.Parameter.empty


def test_sweep_entries_take_an_eps_list_without_defaults():
    for function, last in ((dirac.dirac_operators, "n"), (galerkin.spectrum_sweep, "m")):
        params = inspect.signature(function).parameters
        assert list(params) == ["cf", "eps_values", last]
        assert all(p.default is inspect.Parameter.empty for p in params.values())


def test_cli_runs_without_scipy():
    # the runtime depends on numpy only; scipy, where installed, must stay unimported
    script = (
        "import sys\n"
        "from torusdirac import cli\n"
        "for command in ('asympt', 'fit'):\n"
        "    assert cli.main([command, '--config', 'example-galerkin-2']) == 0\n"
        "assert not any(name == 'scipy' or name.startswith('scipy.') for name in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_module_only_names():
    for module, name in MODULE_ONLY:
        assert hasattr(module, name), name
        assert not hasattr(torusdirac, name), name
