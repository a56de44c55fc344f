from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusdirac import (
    CoframeFamily,
    Matrix3Field,
    Pseudoinverse,
    PseudoinverseDomainError,
    SpinorField,
    TrigPoly,
    TruncationError,
    charge_conjugate,
    dirac,
    first_correction_closed,
    first_correction_operator,
    first_order_perturbation,
    fit_expansion,
    free_operator,
    load_example,
    perturbation,
    perturbation_report,
    second_correction_closed,
    second_correction_operator,
    second_order_operator,
    second_order_perturbation,
    trigpoly,
)
from torusdirac.cli import cmd_fit
from torusdirac.galerkin import basis_spinor
from torusdirac.perturbation import fit_from_values

from conftest import COS, SIN, ZERO, eigenspace_projection, m3, random_symmetric_field


def random_orthogonal_spinor(rng, lambda0, degree=4) -> SpinorField:
    comps = [
        TrigPoly(rng.normal(size=2 * degree + 1) + 1j * rng.normal(size=2 * degree + 1))
        for _ in range(2)
    ]
    f = SpinorField.from_components(*comps)
    return f - eigenspace_projection(f, lambda0)


class TestPseudoinverse:
    def test_annihilates_kernel(self):
        q = Pseudoinverse(lambda0=1, truncation=6)
        for kind in ("v", "w"):
            out = q.apply(basis_spinor(1, kind))
            assert out.norm() <= 1e-13

    @pytest.mark.parametrize("n,lam0", [(3, 1), (-2, 1), (0, 1), (4, -1)])
    def test_single_modes_divide_by_gap(self, n, lam0):
        q = Pseudoinverse(lambda0=lam0, truncation=8)
        for kind in ("v", "w"):
            phi = basis_spinor(n, kind)
            out = q.apply(phi)
            assert (out - (1.0 / (n - lam0)) * phi).norm() <= 1e-13

    def test_resolvent_identity_on_random_input(self):
        rng = np.random.default_rng(51)
        w0 = free_operator()
        for lam0 in (1, -1):
            q = Pseudoinverse(lambda0=lam0, truncation=8)
            for _ in range(5):
                f = random_orthogonal_spinor(rng, lam0)
                qf = q.apply(f)
                lhs = w0.apply(qf) - lam0 * qf
                rhs = f - eigenspace_projection(f, lam0)
                assert (lhs - rhs).norm() <= 1e-10

    def test_annihilates_projection(self):
        rng = np.random.default_rng(52)
        q = Pseudoinverse(lambda0=1, truncation=8)
        comps = [
            TrigPoly(rng.normal(size=9) + 1j * rng.normal(size=9)) for _ in range(2)
        ]
        f = SpinorField.from_components(*comps)
        assert q.apply(eigenspace_projection(f, 1)).norm() <= 1e-12

    def test_commutes_with_charge_conjugation(self):
        rng = np.random.default_rng(53)
        q = Pseudoinverse(lambda0=1, truncation=8)
        for _ in range(5):
            f = random_orthogonal_spinor(rng, 1)
            assert (q.apply(charge_conjugate(f)) - charge_conjugate(q.apply(f))).norm() <= 1e-10

    def test_self_adjoint(self):
        rng = np.random.default_rng(54)
        q = Pseudoinverse(lambda0=1, truncation=8)
        f = random_orthogonal_spinor(rng, 1)
        g = random_orthogonal_spinor(rng, 1)
        assert abs(q.apply(f).inner(g) - f.inner(q.apply(g))) <= 1e-12

    def test_orthogonality_violation_raises_in_strict_mode(self):
        q = Pseudoinverse(lambda0=1, truncation=6)
        f = basis_spinor(1, "v") + basis_spinor(2, "v")
        with pytest.raises(PseudoinverseDomainError, match="overlaps"):
            q.apply(f, orthogonality_tol=1e-9)

    def test_truncation_too_small_raises(self):
        q = Pseudoinverse(lambda0=1, truncation=3)
        with pytest.raises(TruncationError, match="bandwidth"):
            q.apply(basis_spinor(5, "v"))


class TestFirstCorrection:
    def test_constant_h11_family(self, explicit_family_2):
        h, _ = explicit_family_2
        assert first_correction_closed(h, 1) == -0.5
        assert first_correction_closed(h, -1) == 0.5
        assert first_correction_operator(h, 1) == pytest.approx(-0.5, abs=1e-13)
        assert first_correction_operator(h, -1) == pytest.approx(0.5, abs=1e-13)

    def test_zero_first_row_family(self, explicit_family_1):
        h, _ = explicit_family_1
        for n in (1, -1):
            assert first_correction_closed(h, n) == 0.0
            assert abs(first_correction_operator(h, n)) <= 1e-14

    def test_zero_perturbation(self):
        zero = Matrix3Field.zero()
        assert first_correction_closed(zero, 1) == 0.0
        assert first_correction_operator(zero, 1) == 0.0

    def test_routes_agree_on_random_families(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            h = random_symmetric_field(rng)
            for n in (1, -1):
                closed = first_correction_closed(h, n)
                operator = first_correction_operator(h, n)
                assert abs(closed - operator) <= 1e-12

    def test_exact_antisymmetry(self):
        rng = np.random.default_rng(62)
        for _ in range(10):
            h = random_symmetric_field(rng)
            assert first_correction_closed(h, 1) == -first_correction_closed(h, -1)


class TestSecondCorrection:
    def test_first_family(self, explicit_family_1):
        h, k = explicit_family_1
        for n in (1, -1):
            closed = second_correction_closed(h, k, n)
            operator = second_correction_operator(h, k, n)
            assert closed == pytest.approx(-0.5, abs=1e-13)
            assert abs(closed - operator) <= 1e-10

    def test_second_family(self, explicit_family_2):
        h, k = explicit_family_2
        assert second_correction_closed(h, k, 1) == pytest.approx(0.75, abs=1e-13)
        assert second_correction_closed(h, k, -1) == pytest.approx(-1.0, abs=1e-13)
        assert second_correction_operator(h, k, 1) == pytest.approx(0.75, abs=1e-10)
        assert second_correction_operator(h, k, -1) == pytest.approx(-1.0, abs=1e-10)

    def test_zero_perturbation(self):
        zero = Matrix3Field.zero()
        assert second_correction_closed(zero, zero, 1) == 0.0
        assert second_correction_operator(zero, zero, 1) == 0.0

    def test_routes_agree_on_random_families(self):
        rng = np.random.default_rng(63)
        for _ in range(20):
            h = random_symmetric_field(rng)
            k = random_symmetric_field(rng)
            for n in (1, -1):
                closed = second_correction_closed(h, k, n)
                operator = second_correction_operator(h, k, n)
                assert abs(closed - operator) <= 1e-10


class TestAsymmetry:
    def test_first_family(self, explicit_family_1):
        h, k = explicit_family_1
        asym = second_correction_closed(h, k, 1) + second_correction_closed(h, k, -1)
        assert asym == pytest.approx(-1.0, abs=1e-13)

    def test_second_family(self, explicit_family_2):
        h, k = explicit_family_2
        asym = second_correction_closed(h, k, 1) + second_correction_closed(h, k, -1)
        assert asym == pytest.approx(-0.25, abs=1e-13)

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
        k = Matrix3Field.zero()
        asym = second_correction_closed(h, k, 1) + second_correction_closed(h, k, -1)
        assert asym != pytest.approx(0.0, abs=1e-6)
        operator_sum = second_correction_operator(h, k, 1) + second_correction_operator(
            h, k, -1
        )
        assert asym == pytest.approx(operator_sum, abs=1e-10)


class TestFit:
    def test_rotation_block_coefficients(self, rotation_block_coframe):
        fit = fit_expansion(rotation_block_coframe, (1,), order=4, m=12)[1]
        c1, c2, c3, c4 = fit.coefficients
        assert abs(c1) <= 1e-8
        assert c2 == pytest.approx(-0.5, abs=1e-6)
        assert abs(c3) <= 1e-4
        assert c4 == pytest.approx(-0.5, abs=1e-3)

    def test_eps_independent_family_fits_zero(self):
        cf = CoframeFamily(Matrix3Field.zero(), Matrix3Field.zero())
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
            for n in (1, -1):
                fit = fits[n]
                assert abs(fit.coefficients[0] - first_correction_closed(h, n)) <= 1e-6
                assert abs(fit.coefficients[1] - second_correction_closed(h, k, n)) <= 1e-4

    def test_rejects_bad_grids(self, rotation_block_coframe):
        with pytest.raises(ValueError, match="samples"):
            fit_from_values(1, [0.01, 0.02, 0.03], [0, 0, 0], order=2)
        with pytest.raises(ValueError, match="0.15"):
            fit_from_values(1, [0.05, 0.1, 0.2, 0.3], [0, 0, 0, 0], order=2)


class TestSweepSolves:
    """Every fit is made from one spectrum_report per eps point."""

    @pytest.fixture
    def solves(self, monkeypatch):
        eps_seen = []
        solve = perturbation.spectrum_report

        def counted(cf, eps, *args, **kwargs):
            eps_seen.append(eps)
            return solve(cf, eps, *args, **kwargs)

        monkeypatch.setattr(perturbation, "spectrum_report", counted)
        return eps_seen

    def test_cli_fit_solves_once_per_eps(self, solves):
        cfg = load_example("example-galerkin-1")
        assert cfg.modes == [-2, -1, 0, 1, 2]
        cmd_fit(cfg, "csv")
        assert len(solves) == 12

    def test_galerkin_fit_route_solves_once_per_eps(self, solves, explicit_family_2):
        perturbation_report(CoframeFamily.from_perturbation(*explicit_family_2), "galerkin_fit")
        assert len(solves) == 12


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
# shared work of the routes
# ----------------------------------------------------------------------

COEFFICIENT = st.floats(-0.25, 0.25)


@st.composite
def symmetric_fields(draw) -> Matrix3Field:
    """Real symmetric Matrix3Field of trig degree 1-3, coefficients <= 0.25."""
    degree = draw(st.integers(1, 3))
    rows = [[None] * 3 for _ in range(3)]
    for a in range(3):
        for b in range(a, 3):
            poly = TrigPoly.constant(draw(COEFFICIENT))
            for j in range(1, degree + 1):
                poly = poly + COS(j, draw(COEFFICIENT)) + SIN(j, draw(COEFFICIENT))
            rows[a][b] = rows[b][a] = poly
    return Matrix3Field(rows)


FAMILIES = st.builds(CoframeFamily.from_perturbation, symmetric_fields(), symmetric_fields())
SIGNS = ((1, "lambda1_plus", "lambda2_plus"), (-1, "lambda1_minus", "lambda2_minus"))


class TestRouteProperties:
    @settings(max_examples=40)
    @given(FAMILIES)
    def test_operator_report_matches_public_functions(self, cf):
        h, k = first_order_perturbation(cf), second_order_perturbation(cf)
        report = perturbation_report(cf, "operator")
        for n, l1, l2 in SIGNS:
            assert getattr(report, l1).hex() == first_correction_operator(h, n).hex()
            assert getattr(report, l2).hex() == second_correction_operator(h, k, n).hex()

    @settings(max_examples=40)
    @given(FAMILIES)
    def test_closed_report_matches_public_functions(self, cf):
        h, k = first_order_perturbation(cf), second_order_perturbation(cf)
        report = perturbation_report(cf, "closed_form")
        for n, l1, l2 in SIGNS:
            assert getattr(report, l1).hex() == first_correction_closed(h, n).hex()
            assert getattr(report, l2).hex() == second_correction_closed(h, k, n).hex()

    @settings(max_examples=40)
    @given(FAMILIES)
    def test_closed_and_operator_routes_agree(self, cf):
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
        for name in ("first_order_operator", "second_order_operator"):
            self.count(monkeypatch, perturbation, name, builds)
        perturbation_report(family, "operator")
        assert builds == {"first_order_operator": 1, "second_order_operator": 1}

    def test_h_and_k_checked_once(self, family, monkeypatch):
        checks = Counter()
        for module in (dirac, perturbation):
            self.count(monkeypatch, module, "require_sym_real", checks)
        perturbation_report(family, "operator")
        assert checks["require_sym_real"] == 2

    def test_h_squared_read_without_the_full_product(self, explicit_family_2, monkeypatch):
        h, k = explicit_family_2

        def full_product(self, other):
            raise AssertionError("full 3x3 product of h with itself")

        monkeypatch.setattr(Matrix3Field, "__matmul__", full_product)
        for n in (1, -1):
            second_correction_closed(h, k, n)
        second_order_operator(h, k)

    def test_failure_order_matches_separate_calls(self, family, monkeypatch):
        # h check, l1(+1), l1(-1), k check, second-order terms at +1 then -1
        events = []

        def log(name, key):
            original = getattr(perturbation, name)

            def logged(*args):
                events.append(key(*args))
                return original(*args)

            monkeypatch.setattr(perturbation, name, logged)

        log("require_sym_real", lambda mat, name: name)
        log("_first_order_block", lambda w1, n: ("l1", n))
        log("_second_order_term", lambda w1, w2, l1, n, truncation: ("l2", n))
        perturbation_report(family, "operator")
        assert events == ["h", ("l1", 1), ("l1", -1), "k", ("l2", 1), ("l2", -1)]

    @pytest.mark.parametrize("bad", ["h", "k"])
    def test_input_check_messages(self, family, bad, monkeypatch):
        skew = m3([[ZERO, COS(1), ZERO], [ZERO, ZERO, ZERO], [ZERO, ZERO, ZERO]])
        target = {"h": "first_order_perturbation", "k": "second_order_perturbation"}[bad]
        monkeypatch.setattr(perturbation, target, lambda cf: skew)
        with pytest.raises(ValueError, match=f"{bad} must be symmetric"):
            perturbation_report(family, "operator")


class TestOperatorRouteIsGridFree:
    """The operator route works on Fourier coefficients only."""

    def test_operator_route_never_samples(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the operator route touched a grid")

        monkeypatch.setattr(np.fft, "fft", refuse)
        monkeypatch.setattr(np.fft, "ifft", refuse)
        monkeypatch.setattr(trigpoly, "_phases", refuse)
        cfg = load_example("example-explicit-2")
        report = perturbation_report(cfg.family(), "operator")
        assert report.lambda1_plus == pytest.approx(-0.5, abs=1e-15)
        for n in (1, -1):
            first_correction_operator(cfg.h, n)
            second_correction_operator(cfg.h, cfg.k, n)
