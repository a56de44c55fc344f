from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusdirac import (
    CoframeFamily,
    NumericalContractError,
    PseudoinverseDomainError,
    dirac,
    fit_expansion,
    geometry,
    load_config_file,
    load_example,
    perturbation,
    perturbation_report,
    trigpoly,
)
from torusdirac.cli import cmd_fit, main
from torusdirac.dirac import inner
from torusdirac.galerkin import basis_spinor
from torusdirac.geometry import raise_first
from torusdirac.perturbation import DegenerateSplittingError, fit_from_values, pseudoinverse
from torusdirac.trigpoly import poly_add, poly_sub, resize_degree

from conftest import COS, SIN, ZERO, ZERO_FIELD, add, charge_conjugate, const, free_operator
from conftest import eigenspace_projection, m3, norm, random_field, random_symmetric_field, spinor, stacked
from test_galerkin import COFRAMES

GOLDEN = Path(__file__).parent / "golden"


def random_orthogonal_spinor(rng, lambda0, degree=4) -> np.ndarray:
    comps = [rng.normal(size=2 * degree + 1) + 1j * rng.normal(size=2 * degree + 1) for _ in range(2)]
    f = spinor(*comps)
    return poly_sub(f, eigenspace_projection(f, lambda0))


def route_reports(h, k) -> tuple:
    """Closed-form and operator reports of the family synthesized from (h, k),
    which gives back h exactly and k to rounding."""
    cf = CoframeFamily.from_perturbation(h, k)
    return perturbation_report(cf, "closed_form"), perturbation_report(cf, "operator")


def check_real(value, terms, rel_tol=1e-12):
    """``raise_first`` on the realness check of one sum ``value`` of ``terms``."""
    check = perturbation._realness_check(np.array([value]), np.array(terms, dtype=complex)[:, None], rel_tol)
    raise_first((check,))


class TestPseudoinverse:
    def test_annihilates_kernel(self):
        # kernel content within the 1e-9 domain tolerance is annihilated exactly
        for kind in ("v", "w"):
            out = pseudoinverse(1e-12 * basis_spinor(1, kind), 1)
            assert out.shape == (2, 3) and not out.any()

    def test_pure_kernel_input_raises(self):
        for n, kind in ((1, "v"), (1, "w"), (-1, "v"), (-1, "w")):
            with pytest.raises(PseudoinverseDomainError, match=f"lambda0={n} eigenspace by 1.00e"):
                pseudoinverse(basis_spinor(n, kind), n)

    @pytest.mark.parametrize("n,lam0", [(3, 1), (-2, 1), (0, 1), (4, -1)])
    def test_single_modes_divide_by_gap(self, n, lam0):
        for kind in ("v", "w"):
            phi = basis_spinor(n, kind)
            out = pseudoinverse(phi, lam0)
            assert norm(poly_sub(out, (1.0 / (n - lam0)) * phi)) <= 1e-13

    def test_exact_on_the_input_harmonics(self):
        # Q is diagonal on plane waves: v_30 at n = 1 is v_30 / 29, at its own shape
        phi = basis_spinor(30, "v")
        out = pseudoinverse(phi, 1)
        assert out.shape == phi.shape
        assert np.array_equal(out, phi * (1.0 / 29.0))

    def test_resolvent_identity_on_random_input(self):
        rng = np.random.default_rng(51)
        w0 = free_operator()
        for lam0 in (1, -1):
            for _ in range(5):
                f = random_orthogonal_spinor(rng, lam0)
                qf = pseudoinverse(f, lam0)
                lhs = poly_sub(w0.apply(qf), lam0 * qf)
                rhs = poly_sub(f, eigenspace_projection(f, lam0))
                assert norm(poly_sub(lhs, rhs)) <= 1e-10

    def test_resolvent_identity_at_degree_40(self):
        # no truncation: (H0 - n) Q f = f - P f holds on the input's own harmonics
        rng = np.random.default_rng(55)
        w0 = free_operator()
        for lam0 in (1, -1):
            f = random_orthogonal_spinor(rng, lam0, degree=40)
            qf = pseudoinverse(f, lam0)
            assert qf.shape == f.shape == (2, 81)
            lhs = poly_sub(w0.apply(qf), lam0 * qf)
            assert norm(poly_sub(lhs, f)) <= 1e-12 * norm(f)

    def test_annihilates_projection(self):
        rng = np.random.default_rng(52)
        comps = [rng.normal(size=9) + 1j * rng.normal(size=9) for _ in range(2)]
        f = spinor(*comps)
        assert norm(pseudoinverse(1e-12 * eigenspace_projection(f, 1), 1)) <= 1e-24

    def test_commutes_with_charge_conjugation(self):
        rng = np.random.default_rng(53)
        for _ in range(5):
            f = random_orthogonal_spinor(rng, 1)
            lhs = pseudoinverse(charge_conjugate(f), 1)
            assert norm(lhs - charge_conjugate(pseudoinverse(f, 1))) <= 1e-10

    def test_self_adjoint(self):
        rng = np.random.default_rng(54)
        f = random_orthogonal_spinor(rng, 1)
        g = random_orthogonal_spinor(rng, 1)
        assert abs(inner(pseudoinverse(f, 1), g) - inner(f, pseudoinverse(g, 1))) <= 1e-12

    def test_orthogonality_violation_raises_in_strict_mode(self):
        f = poly_add(basis_spinor(1, "v"), basis_spinor(2, "v"))
        with pytest.raises(PseudoinverseDomainError, match="overlaps"):
            pseudoinverse(f, 1)


class TestFirstCorrection:
    def test_constant_h11_family(self, explicit_family_2):
        closed, operator = route_reports(*explicit_family_2)
        assert closed.lambda1_plus == -0.5
        assert closed.lambda1_minus == 0.5
        assert operator.lambda1_plus == pytest.approx(-0.5, abs=1e-13)
        assert operator.lambda1_minus == pytest.approx(0.5, abs=1e-13)

    def test_zero_first_row_family(self, explicit_family_1):
        closed, operator = route_reports(*explicit_family_1)
        for _, l1, _ in SIGNS:
            assert getattr(closed, l1) == 0.0
            assert abs(getattr(operator, l1)) <= 1e-14

    def test_zero_perturbation(self):
        closed, operator = route_reports(ZERO_FIELD, ZERO_FIELD)
        assert closed.lambda1_plus == 0.0
        assert operator.lambda1_plus == 0.0

    def test_routes_agree_on_random_families(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            closed, operator = route_reports(random_symmetric_field(rng), ZERO_FIELD)
            for _, l1, _ in SIGNS:
                assert abs(getattr(closed, l1) - getattr(operator, l1)) <= 1e-12

    def test_exact_antisymmetry(self):
        rng = np.random.default_rng(62)
        for _ in range(10):
            cf = CoframeFamily.from_perturbation(random_symmetric_field(rng), ZERO_FIELD)
            closed = perturbation_report(cf, "closed_form")
            assert closed.lambda1_plus == -closed.lambda1_minus


class TestSecondCorrection:
    def test_first_family(self, explicit_family_1):
        closed, operator = route_reports(*explicit_family_1)
        for _, _, l2 in SIGNS:
            assert getattr(closed, l2) == pytest.approx(-0.5, abs=1e-13)
            assert abs(getattr(closed, l2) - getattr(operator, l2)) <= 1e-10

    def test_second_family(self, explicit_family_2):
        closed, operator = route_reports(*explicit_family_2)
        assert closed.lambda2_plus == pytest.approx(0.75, abs=1e-13)
        assert closed.lambda2_minus == pytest.approx(-1.0, abs=1e-13)
        assert operator.lambda2_plus == pytest.approx(0.75, abs=1e-10)
        assert operator.lambda2_minus == pytest.approx(-1.0, abs=1e-10)

    def test_zero_perturbation(self):
        closed, operator = route_reports(ZERO_FIELD, ZERO_FIELD)
        assert closed.lambda2_plus == 0.0
        assert operator.lambda2_plus == 0.0

    def test_routes_agree_on_random_families(self):
        rng = np.random.default_rng(63)
        for _ in range(20):
            h = random_symmetric_field(rng)
            k = random_symmetric_field(rng)
            closed, operator = route_reports(h, k)
            for _, _, l2 in SIGNS:
                assert abs(getattr(closed, l2) - getattr(operator, l2)) <= 1e-10

    @pytest.mark.parametrize("seed", range(40))
    def test_realness_gates_scale_with_large_coframes(self, seed):
        # E1, E2 of size ~100 make every term ~1e4: rounding leaves imaginary
        # parts ~1e-12 in the second-order sums, a nonreal part ~1e-11 in k and
        # in the potential of W2, all ~1e-17 relative, which absolute gates rejected
        rng = np.random.default_rng(seed)
        cf = CoframeFamily(random_field(rng, 2, 100.0), random_field(rng, 2, 100.0))
        closed = perturbation_report(cf, "closed_form")
        operator = perturbation_report(cf, "operator")
        for _, l1, l2 in SIGNS:
            assert getattr(closed, l1) == pytest.approx(getattr(operator, l1), rel=1e-12)
            assert getattr(closed, l2) == pytest.approx(getattr(operator, l2), rel=1e-12)

    @pytest.mark.parametrize("what", ["symmetric", "real-valued"])
    def test_input_checks_still_reject_large_defects(self, what):
        # at scale 100 a defect of 1e-6 relative is still bad input
        rng = np.random.default_rng(5)
        h = random_symmetric_field(rng, 2, 100.0)
        k = random_symmetric_field(rng, 2, 100.0)
        CoframeFamily.from_perturbation(h, k)
        defect = {"symmetric": COS(1, 2e-4), "real-valued": const(1e-4j)}[what]
        bad = m3([[add(k[a][b], defect) if (a, b) == (0, 1) else k[a][b]
                   for b in range(3)] for a in range(3)])
        with pytest.raises(ValueError, match=f"k must be {what}"):
            geometry.require_sym_real(stacked(bad), "k")
        with pytest.raises(ValueError, match=f"k must be {what}"):
            CoframeFamily.from_perturbation(h, bad)

    def test_realness_gate_is_relative_to_the_largest_term(self):
        check_real(2.0e4 + 1e-9j, (1.0e4, 1.0e4))
        with pytest.raises(perturbation.NumericalContractError, match="not real"):
            check_real(2.0 + 1e-11j, (1.0, 1.0))


class TestAsymmetry:
    def test_first_family(self, explicit_family_1):
        closed, _ = route_reports(*explicit_family_1)
        assert closed.asymmetry2 == pytest.approx(-1.0, abs=1e-13)

    def test_second_family(self, explicit_family_2):
        closed, _ = route_reports(*explicit_family_2)
        assert closed.asymmetry2 == pytest.approx(-0.25, abs=1e-13)

    def test_rotation_pattern_with_zero_first_column(self):
        """h supported on the lower 2x2 block: the h^2 and k means cancel in
        the asymmetry sum, leaving only the antisymmetric flux term."""
        h = m3(
            [
                [ZERO, ZERO, ZERO],
                [ZERO, COS(2, 1.2), SIN(2, 1.2)],
                [ZERO, SIN(2, 1.2), COS(2, -1.2)],
            ]
        )
        closed, operator = route_reports(h, ZERO_FIELD)
        assert closed.asymmetry2 != pytest.approx(0.0, abs=1e-6)
        assert closed.asymmetry2 == pytest.approx(operator.asymmetry2, abs=1e-10)


class TestFit:
    def test_rotation_block_coefficients(self, rotation_block_coframe):
        fit = fit_expansion(rotation_block_coframe, (1,), order=4, m=12)[1]
        c1, c2, c3, c4 = fit.coefficients
        assert abs(c1) <= 1e-8
        assert c2 == pytest.approx(-0.5, abs=1e-6)
        assert abs(c3) <= 1e-4
        assert c4 == pytest.approx(-0.5, abs=1e-3)

    def test_eps_independent_family_fits_zero(self):
        cf = CoframeFamily(ZERO_FIELD, ZERO_FIELD)
        fit = fit_expansion(cf, (1,), order=2, m=8)[1]
        assert np.max(np.abs(fit.coefficients)) <= 1e-10

    def test_consistency_with_perturbation_theory(self):
        rng = np.random.default_rng(64)
        grid = np.linspace(0.02, 0.1, 12)
        for _ in range(3):
            h = random_symmetric_field(rng)
            k = random_symmetric_field(rng)
            cf = CoframeFamily.from_perturbation(h, k)
            fits = fit_expansion(cf, (1, -1), eps_grid=grid, order=4, m=12)
            closed = perturbation_report(cf, "closed_form")
            for n, l1, l2 in SIGNS:
                fit = fits[n]
                assert abs(fit.coefficients[0] - getattr(closed, l1)) <= 1e-6
                assert abs(fit.coefficients[1] - getattr(closed, l2)) <= 1e-4

    def test_rejects_bad_grids(self, rotation_block_coframe):
        with pytest.raises(ValueError, match="samples"):
            fit_from_values(1, [0.01, 0.02, 0.03], [0, 0, 0], order=2)
        with pytest.raises(ValueError, match="0.15"):
            fit_from_values(1, [0.05, 0.1, 0.2, 0.3], [0, 0, 0, 0], order=2)

    @pytest.mark.parametrize("order", [0, 3, 5])
    def test_rejects_an_order_without_a_model(self, order):
        grid = np.linspace(0.01, 0.08, 12)
        with pytest.raises(ValueError, match=r"^order must be 1, 2 or 4$"):
            fit_from_values(1, grid, -0.5 * grid, order=order)

    def test_rejects_a_nan_eps_before_the_solve(self, capfd):
        # a NaN passed "eps <= 0 or eps > 0.15", and LAPACK printed DLASCL
        # errors to stderr before lstsq raised LinAlgError
        grid = np.linspace(0.01, 0.08, 8)
        grid[3] = NAN
        with pytest.raises(ValueError, match=r"must lie in \(0, 0.15\]"):
            fit_from_values(1, grid, -0.5 * np.linspace(0.01, 0.08, 8), order=2)
        assert capfd.readouterr().err == ""

    def test_rejects_a_repeated_eps(self, explicit_family_2):
        # a repeated eps leaves the design rank-deficient: the fit had exited
        # with c2(+1) = -0.0049, where the closed form gives 0.75
        cf = CoframeFamily.from_perturbation(*explicit_family_2)
        grid = np.linspace(0.01, 0.08, 8)
        grid[5] = grid[2]
        with pytest.raises(ValueError, match=f"eps sample {grid[2]} given twice"):
            fit_expansion(cf, (1, -1), eps_grid=grid, order=2, m=12)


    def test_rounding_level_residual_passes(self, capsys):
        # cli_sweep's seeded-perturbation-1 at seed 227, copied verbatim from
        # bench/workloads.generate_inputs("cli_sweep", 227): at mode 0 max|lambda|
        # is 2.4e-9, and a residual of 8.0e-15 (rounding in the eigenvalues)
        # exceeded 1e-6 * 2.4e-9 before the rounding floor
        config = str(GOLDEN / "cli-sweep-seed-227-perturbation-1.cfg")
        assert main(["fit", "--config", config]) == 0
        assert capsys.readouterr().err == ""
        fit = fit_expansion(load_config_file(config).family(), (0,), order=4)[0]
        assert 1e-6 * np.max(np.abs(fit.values)) < fit.residual_norm <= 64 * np.finfo(float).eps * np.sqrt(12)

    def test_genuine_misfit_still_raises(self):
        # 1e-12 of alternating noise on a line is no polynomial in eps, and is
        # far above both 1e-6 * max|values| and the rounding floor
        grid = np.linspace(0.01, 0.08, 12)
        for n in (0, 2):
            values = 3e-8 * grid + 1e-12 * (-1.0) ** np.arange(12) * max(1, abs(n))
            with pytest.raises(perturbation.FitResidualError, match="rounding floor"):
                fit_from_values(n, grid, values, order=4)
            fit_from_values(n, grid, 3e-8 * grid, order=4)

    def test_caller_values_stay_writable(self):
        # np.asarray returned a float64 input itself, which FitResult froze
        grid = np.linspace(0.01, 0.08, 12)
        values = 3e-8 * grid
        before = values.copy()
        fit = fit_from_values(0, grid, values, order=4)
        assert values.flags.writeable and np.array_equal(values, before)
        assert not fit.values.flags.writeable and np.array_equal(fit.values, before)


class TestSweepSolves:
    """Every fit is made from one spectrum_sweep, one solve per eps point."""

    @pytest.fixture
    def solves(self, monkeypatch):
        sweeps = []
        sweep = perturbation.spectrum_sweep

        def counted(cf, eps_values, m):
            reports = sweep(cf, eps_values, m)
            sweeps.append(len(reports))
            return reports

        monkeypatch.setattr(perturbation, "spectrum_sweep", counted)
        return sweeps

    def test_cli_fit_solves_once_per_eps(self, solves):
        cfg = load_example("example-galerkin-1")
        assert cfg.modes == [-2, -1, 0, 1, 2]
        cmd_fit(cfg)
        assert solves == [12]

    def test_galerkin_fit_route_solves_once_per_eps(self, solves, explicit_family_2):
        perturbation_report(CoframeFamily.from_perturbation(*explicit_family_2), "galerkin_fit")
        assert solves == [12]

    def test_sweep_builds_no_operator_field(self, monkeypatch, explicit_family_2):
        # a solve reads a^ and p^ and never applies its operator, so none of
        # the operators of a sweep builds the field of apply
        def refuse(op):
            raise AssertionError("a Galerkin solve built an operator's field")

        monkeypatch.setattr(dirac.DiracOperator, "_field", property(refuse))
        cf = CoframeFamily.from_perturbation(*explicit_family_2)
        assert len(perturbation.spectrum_sweep(cf, [0.05, 0.1], 12)) == 2


class TestReport:
    def test_three_routes_on_second_family(self, explicit_family_2):
        h, k = explicit_family_2
        cf = CoframeFamily.from_perturbation(h, k)
        closed = perturbation_report(cf, "closed_form")
        operator = perturbation_report(cf, "operator")
        fitted = perturbation_report(cf, "galerkin_fit", m=12)
        assert closed.lambda1_plus == -0.5
        assert closed.lambda2_minus == pytest.approx(-1.0, abs=1e-13)
        assert closed.asymmetry2 == pytest.approx(-0.25, abs=1e-13)
        for name in ("lambda1_plus", "lambda1_minus", "lambda2_plus", "lambda2_minus"):
            assert getattr(closed, name) == pytest.approx(
                getattr(operator, name), abs=1e-10
            )
            assert getattr(closed, name) == pytest.approx(
                getattr(fitted, name), abs=1e-4
            )

    def test_unknown_route_rejected(self, explicit_family_1):
        h, k = explicit_family_1
        cf = CoframeFamily.from_perturbation(h, k)
        with pytest.raises(ValueError, match="route"):
            perturbation_report(cf, "bogus")


# ----------------------------------------------------------------------
# NaN and overflow
# ----------------------------------------------------------------------

NAN = float("nan")
# h = 2e200 is finite; h^2 and k = 4 * E1^T E1 overflow
OVERFLOWING_K = CoframeFamily([[1e200, 0, 0], [0] * 3, [0] * 3], ZERO_FIELD)
# h = E1 + E1^T overflows itself
OVERFLOWING_H = CoframeFamily([[1e308, 0, 0], [0] * 3, [0] * 3], ZERO_FIELD)


class TestNonFinite:
    """Every route check fails on NaN, and overflow is a numerical fault."""

    @pytest.mark.parametrize(
        "value,terms",
        [(complex(NAN, 0.0), (NAN, 1.0)), (complex(1.0, NAN), (1.0,)), (complex(NAN, 0.0), (1.0, NAN)),
         (complex(np.inf, 0.0), (np.inf, 1.0)), (complex(NAN, 0.0), (np.inf, -np.inf))],
    )
    def test_require_real_rejects_non_finite(self, value, terms):
        with pytest.raises(NumericalContractError, match="not real"):
            check_real(value, terms)

    def test_first_order_block_rejects_nan(self, monkeypatch):
        def nan_gram(u, v):
            return np.full(np.broadcast_shapes(u.shape[:-2], v.shape[:-2]), complex(NAN, 0.0))

        monkeypatch.setattr(perturbation, "inner", nan_gram)
        with pytest.raises(perturbation.DegenerateSplittingError, match="mode 1 "):
            perturbation._operator_route(*perturbation._metric_data(CoframeFamily(ZERO_FIELD, ZERO_FIELD), 3))

    def test_pseudoinverse_rejects_nan_overlap(self):
        c = np.full((2, 5), NAN, dtype=complex)
        with pytest.raises(PseudoinverseDomainError):
            pseudoinverse(c, 1)

    def test_pseudoinverse_of_an_infinite_input_does_not_warn(self):
        # inf * 0, against the zero coefficients of the basis and in the output
        # weights, warned "invalid value" before the check raised; under
        # filterwarnings = error a warning fails this test
        c = np.full((2, 5), np.inf, dtype=complex)
        with pytest.raises(PseudoinverseDomainError):
            pseudoinverse(c, 1)

    @pytest.mark.parametrize("bad", [NAN, np.inf])
    def test_fit_rejects_non_finite_values(self, bad):
        grid = np.linspace(0.01, 0.08, 12)
        values = -0.5 * grid + grid**2
        values[3] = bad
        with np.errstate(all="ignore"), pytest.raises(perturbation.FitResidualError):
            fit_from_values(1, grid, values, order=2)

    def test_closed_route_returned_nan_before(self):
        # the closed form's lead term was inf - inf = NaN and passed every check
        with np.errstate(all="ignore"), pytest.raises(NumericalContractError, match="overflows"):
            perturbation_report(OVERFLOWING_K, "closed_form")

    @pytest.mark.parametrize(
        "cf,route,message",
        [(OVERFLOWING_K, "closed_form", "h or k overflows"), (OVERFLOWING_K, "operator", "h or k overflows"),
         (OVERFLOWING_H, "closed_form", "h or k overflows"), (OVERFLOWING_H, "operator", "h or k overflows")],
    )
    def test_overflow_is_numerical_not_bad_input(self, cf, route, message):
        # not a plain ValueError, the class of bad input: both routes build h
        # and k by one _metric_data, which raises before either is read
        with np.errstate(all="ignore"), pytest.raises(NumericalContractError, match=f"^{message}"):
            perturbation_report(cf, route)

    def test_bad_user_data_stays_value_error(self):
        h = m3([[NAN, 0, 0], [0] * 3, [0] * 3])
        with pytest.raises(ValueError, match="h must be real-valued") as info:
            CoframeFamily.from_perturbation(h, ZERO_FIELD)
        assert not isinstance(info.value, NumericalContractError)


# ----------------------------------------------------------------------
# shared work of the routes
# ----------------------------------------------------------------------

COEFFICIENT = st.floats(-0.25, 0.25)


@st.composite
def symmetric_fields(draw) -> tuple:
    """Real symmetric 3x3 field of trig degree 1-3, coefficients <= 0.25."""
    degree = draw(st.integers(1, 3))
    rows = [[None] * 3 for _ in range(3)]
    for a in range(3):
        for b in range(a, 3):
            poly = const(draw(COEFFICIENT))
            for j in range(1, degree + 1):
                poly = add(poly, COS(j, draw(COEFFICIENT)), SIN(j, draw(COEFFICIENT)))
            rows[a][b] = rows[b][a] = poly
    return m3(rows)


FAMILIES = st.builds(CoframeFamily.from_perturbation, symmetric_fields(), symmetric_fields())
SIGNS = ((1, "lambda1_plus", "lambda2_plus"), (-1, "lambda1_minus", "lambda2_minus"))


class TestRouteProperties:
    @settings(max_examples=40)
    @given(FAMILIES, COFRAMES)
    def test_closed_and_operator_routes_agree(self, synthesized, coframe):
        # families from (h, k) data and from random nonsymmetric coframes
        for cf in (synthesized, coframe):
            closed = perturbation_report(cf, "closed_form")
            operator = perturbation_report(cf, "operator")
            for _, l1, l2 in SIGNS:
                assert abs(getattr(closed, l1) - getattr(operator, l1)) <= 1e-12
                assert abs(getattr(closed, l2) - getattr(operator, l2)) <= 1e-10


class TestSharedWork:
    """One operator-route report builds, checks and solves each piece once."""

    @pytest.fixture
    def family(self, explicit_family_2):
        return CoframeFamily.from_perturbation(*explicit_family_2)

    @staticmethod
    def count(monkeypatch, module, name, counts):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    def test_each_operator_built_once(self, family, monkeypatch):
        builds = Counter()
        for name in ("_first_order_operator", "_second_order_operator"):
            self.count(monkeypatch, perturbation, name, builds)
        perturbation_report(family, "operator")
        assert builds == {"_first_order_operator": 1, "_second_order_operator": 1}

    def test_w1_applied_to_v_once_per_sign(self, family, monkeypatch):
        # one stacked apply each: W1 on [v_1, v_-1, w_1, w_-1] for the blocks,
        # W1 on both Q(...) and W2 on both v for the second-order terms, which
        # reuse the blocks' W1 v
        applies = Counter()
        original = dirac.DiracOperator.apply

        def counted(op, v):
            applies["apply"] += 1
            return original(op, v)

        monkeypatch.setattr(dirac.DiracOperator, "apply", counted)
        perturbation_report(family, "operator")
        assert applies["apply"] == 3

    def test_each_field_built_once(self, family, monkeypatch):
        # W1 is applied twice, to [v_1, v_-1, w_1, w_-1] and to the corrected
        # spinors, and W2 once: each operator reads its spectra into the field
        # [B | k/2 B + p I] on its first apply alone
        reads = Counter()
        self.count(monkeypatch, dirac, "real_spectrum", reads)
        perturbation_report(family, "operator")
        assert reads == {"real_spectrum": 2}

    @pytest.mark.parametrize("route", ["closed_form", "operator"])
    def test_report_reads_the_h_it_built(self, family, monkeypatch, route):
        # neither route copies h or k through _as_field: both built them
        expected = perturbation_report(family, route)

        def refuse(rows):
            raise AssertionError("the report copied a field through _as_field")

        for module in (trigpoly, geometry):
            monkeypatch.setattr(module, "_as_field", refuse)
        for module in (dirac, perturbation):
            assert not hasattr(module, "_as_field")
        assert perturbation_report(family, route) == expected
        with pytest.raises(AssertionError, match="_as_field"):
            CoframeFamily(family.E1, family.E2)

    @staticmethod
    def products(monkeypatch, degrees: list | None = None) -> list:
        """The (rows, columns) of each ``_field_product`` formed from here on,
        in order; ``degrees`` collects the degree of each."""
        shapes, original = [], trigpoly._field_product

        def recorded(x, y):
            out = original(x, y)
            shapes.append(out.shape[:2])
            if degrees is not None:
                degrees.append((out.shape[-1] - 1) // 2)
            return out

        for module in (dirac, perturbation):
            monkeypatch.setattr(module, "_field_product", recorded)
        return shapes

    def test_h_and_k_checked_once(self, family, monkeypatch):
        # the one check of h and k is _metric_data's overflow check: h is
        # symmetric by construction, and W1 and W2 are real by construction
        checks = Counter()
        self.count(monkeypatch, perturbation, "_metric_data", checks)
        self.count(monkeypatch, geometry, "require_sym_real", checks)
        for route in ("closed_form", "operator"):
            perturbation_report(family, route)
        assert checks == {"_metric_data": 2}
        assert not hasattr(perturbation, "require_sym_real")

    def test_k_built_once(self, family, monkeypatch):
        # of k, the operator route builds the first column alone, W2's symbol
        built, metric_data = [], perturbation._metric_data

        def recorded(cf, rows):
            h, k = metric_data(cf, rows)
            built.append(k.shape[:2])
            return h, k

        monkeypatch.setattr(perturbation, "_metric_data", recorded)
        perturbation_report(family, "operator")
        assert built == [(3, 1)]

    def test_h_squared_read_without_the_full_product(self, explicit_family_2, monkeypatch):
        # of the nine entries of h @ h, the closed form reads (0, 0), W2 the
        # first column; W2's potential numerator is one more (1, 1) product
        h, k = (stacked(x) for x in explicit_family_2)
        shapes = self.products(monkeypatch)
        perturbation._second_corrections_closed(h, k[0, 0])
        assert shapes == [(1, 1)]
        perturbation._second_order_operator(h, k)
        assert shapes == [(1, 1), (3, 1), (1, 1)]

    def test_routes_build_no_full_product(self, family, monkeypatch):
        # closed form: (E1^T E1)[0, 0] for k[0, 0], then (h^2)[0, 0]; operator
        # route: the first column of E1^T E1 for k, then, between the
        # applications of W1 to [v_1, v_-1, w_1, w_-1] and to the two corrected
        # spinors, the first column of h^2 and the potential numerator, then
        # W2 applied to [v_1, v_-1], each apply a (2, 4) field times the stack
        shapes = self.products(monkeypatch)
        perturbation_report(family, "closed_form")
        assert shapes == [(1, 1), (1, 1)]
        shapes.clear()
        perturbation_report(family, "operator")
        assert shapes == [(3, 1), (2, 4), (3, 1), (1, 1), (2, 2), (2, 2)]

    def test_products_at_the_degree_of_what_they_read(self, monkeypatch):
        # one entry of E1 at harmonic 200: the closed form reads only row and
        # column 0 of h and E1, all constant, so it forms degree-0 products;
        # W1 is built at the degree of h's first column, 0 as well
        e1 = [[ZERO] * 3 for _ in range(3)]
        e1[1][2] = COS(200, 0.001)
        family = CoframeFamily(m3(e1), ZERO_FIELD)
        degrees = []
        self.products(monkeypatch, degrees)
        perturbation_report(family, "closed_form")
        assert degrees == [0, 0]
        degrees.clear()
        perturbation_report(family, "operator")
        # the column of k, of degree 200 against E1's constant first column,
        # then W1 v_n, the first column of h^2, the potential, then W1 on the
        # corrected spinors (zero, as W1 is) and W2 v_n
        assert degrees == [200, 1, 200, 200, 0, 1]
        h, _ = perturbation._metric_data(family, 3)
        assert h.shape[-1] == 401 and perturbation._first_order_operator(h).a_hat.shape[-1] == 1

    def test_closed_route_builds_only_k00(self, family, monkeypatch):
        # with the closed-form sums stubbed out, the one product left is k's,
        # (E1^T E1)[0, 0], and of k only that entry is built
        shapes, metric_data = self.products(monkeypatch), perturbation._metric_data

        def column_top(cf, rows):
            assert rows == 1, "the closed form built more of k than k[0, 0]"
            return metric_data(cf, rows)

        monkeypatch.setattr(perturbation, "_second_corrections_closed", lambda h, k00: [0.0, 0.0])
        monkeypatch.setattr(perturbation, "_metric_data", column_top)
        perturbation_report(family, "closed_form")
        assert shapes == [(1, 1)]

    def test_fit_route_builds_no_h_or_k(self, family, monkeypatch):
        def refuse(*args):
            raise AssertionError("the Galerkin fit route built h or k")

        monkeypatch.setattr(perturbation, "_metric_data", refuse)
        perturbation_report(family, "galerkin_fit")

    def test_failure_order_matches_separate_calls(self, family, monkeypatch):
        # the steps fail in order: h or k overflow, block +1, block -1, term
        # +1, term -1; the lockstep steps raise at their +1 row first
        inner, pseudoinverse = perturbation.inner, perturbation._pseudoinverse
        realness_check, metric_data = perturbation._realness_check, perturbation._metric_data

        def nonscalar(*rows):
            def patched(u, v):
                gram = inner(u, v)
                if np.shape(gram) == (4, 4):  # <W1 b_i, b_j> over [v_1, v_-1, w_1, w_-1]
                    gram = gram.copy()
                    gram[list(rows), [r + 2 for r in rows]] = 1.0
                return gram
            return patched

        def overlapping(c, n):
            # the residual of mode -1 overlaps its eigenspace
            c = np.array(c)
            kernel = resize_degree(basis_spinor(-1, "v"), (c.shape[-1] - 1) // 2)
            c[np.broadcast_to(n, c.shape[:-2]) == -1] += kernel
            return pseudoinverse(c, n)

        def not_real_first(values, terms, rel_tol):
            # row 0 of the realness check, which is l2(+1)'s, fails
            fails, error = realness_check(values, terms, rel_tol)
            injected = NumericalContractError("l2(+1) injected not real")
            return fails | (np.arange(fails.size) == 0), lambda i: injected if i == 0 else error(i)

        def overflowing(cf, rows):
            return metric_data(OVERFLOWING_K, rows)

        not_scalar, not_real = DegenerateSplittingError, NumericalContractError
        cases = [
            ({"_metric_data": overflowing, "inner": nonscalar(0)}, NumericalContractError, "^h or k overflows"),
            ({"inner": nonscalar(1)}, not_scalar, "mode -1 is"),
            ({"inner": nonscalar(0, 1)}, not_scalar, "mode 1 is"),
            ({"inner": nonscalar(1), "_pseudoinverse": overlapping}, not_scalar, "mode -1 is"),
            ({"_pseudoinverse": overlapping}, PseudoinverseDomainError, "lambda0=-1 "),
            ({"_pseudoinverse": overlapping, "_realness_check": not_real_first}, not_real, r"l2\(\+1\) inj"),
            ({"_realness_check": not_real_first}, not_real, r"l2\(\+1\) inj"),
        ]
        for patches, error, message in cases:
            with monkeypatch.context() as patch:
                for name, value in patches.items():
                    patch.setattr(perturbation, name, value)
                with pytest.raises(error, match=message):
                    perturbation_report(family, "operator")
        assert perturbation_report(family, "operator").lambda1_plus == pytest.approx(-0.5, abs=1e-14)

    @pytest.mark.parametrize("bad", ["h", "k"])
    def test_input_check_messages(self, explicit_family_2, bad):
        # the one input check of h and k is from_perturbation's, before any route
        data = dict(zip("hk", explicit_family_2))
        data[bad] = m3([[ZERO, COS(1), ZERO], [ZERO, ZERO, ZERO], [ZERO, ZERO, ZERO]])
        with pytest.raises(ValueError, match=f"{bad} must be symmetric") as info:
            CoframeFamily.from_perturbation(data["h"], data["k"])
        assert not isinstance(info.value, NumericalContractError)


class TestOperatorRouteIsGridFree:
    """The operator route works on Fourier coefficients only."""

    def test_operator_route_never_samples(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the operator route touched a grid")

        for name in ("fft", "ifft", "rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, refuse)
        cfg = load_example("example-explicit-2")
        report = perturbation_report(cfg.family(), "operator")
        assert report.lambda1_plus == pytest.approx(-0.5, abs=1e-15)
