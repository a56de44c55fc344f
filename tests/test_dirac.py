import numpy as np
import pytest

from torusdirac import CoframeFamily, NumericalContractError, dirac_operator
from torusdirac.dirac import DiracOperator, _contract_checks, _first_order_operator
from torusdirac.dirac import _second_order_operator
from torusdirac.dirac import inner, symbol_matrix
from torusdirac.galerkin import basis_spinor
from torusdirac.perturbation import TruncationError, pseudoinverse
from torusdirac.trigpoly import grid_points, poly_derivative, poly_sub, resize_degree

from conftest import add, charge_conjugate, evaluate, free_operator, norm, random_symmetric_field
from conftest import scaled, spinor

N = 256


def random_spinor(rng, degree=3) -> np.ndarray:
    comps = []
    for _ in range(2):
        comps.append(rng.normal(size=2 * degree + 1) + 1j * rng.normal(size=2 * degree + 1))
    return spinor(*comps)


def on_grid(v: np.ndarray, x) -> np.ndarray:
    """Values of the spinor at the points x, shape (2, len(x))."""
    return np.array([evaluate(c, x) for c in v])


def coefficient_gap(a: DiracOperator, b: DiracOperator) -> float:
    """Largest coefficient difference of the symbols and potentials of a and b."""
    d = max(a.degree, b.degree)
    return max(
        np.max(np.abs(resize_degree(a.b_hat, d) - resize_degree(b.b_hat, d))),
        np.max(np.abs(resize_degree(a.p_hat, d) - resize_degree(b.p_hat, d))),
    )


class TestAssemble:
    def test_flat_operator(self, rotation_block_coframe):
        op = dirac_operator(rotation_block_coframe, 0.0, N)
        assert op.degree == 63  # |k| < N/4
        assert coefficient_gap(op, free_operator()) <= 1e-12

    @pytest.mark.parametrize("eps", [0.2, 0.45, -0.3])
    def test_rotation_block_reduces_to_constant_shift(
        self, rotation_block_coframe, eps
    ):
        op = dirac_operator(rotation_block_coframe, eps, N)
        shift = -eps**2 / (2 * (1 - eps**2))
        shifted = DiracOperator(free_operator().b_hat, np.array([shift]))
        assert coefficient_gap(op, shifted) <= 1e-12

    def test_series_matches_assembled_operator_to_first_order(self, explicit_family_2):
        h, k = explicit_family_2
        cf = CoframeFamily.from_perturbation(h, k)
        w0 = free_operator()
        w1 = _first_order_operator(h)

        def coeff_error(eps):
            op = dirac_operator(cf, eps, 64)
            d = op.degree
            db = op.b_hat - resize_degree(w0.b_hat, d) - eps * resize_degree(w1.b_hat, d)
            dp = op.p_hat - resize_degree(w0.p_hat, d) - eps * resize_degree(w1.p_hat, d)
            return max(np.max(np.abs(db)), np.max(np.abs(dp)))

        e1, e2 = coeff_error(0.02), coeff_error(0.01)
        assert e1 / e2 >= 3.5  # quadratic remainder

    def test_second_order_richardson(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            h = random_symmetric_field(rng)
            k = random_symmetric_field(rng)
            cf = CoframeFamily.from_perturbation(h, k)
            w0 = free_operator()
            w1 = _first_order_operator(h)
            w2 = _second_order_operator(h, k)
            v = random_spinor(rng)

            def residual(eps):
                full = dirac_operator(cf, eps, 128)
                model = add(w0.apply(v), eps * w1.apply(v), (eps * eps) * w2.apply(v))
                return norm(poly_sub(full.apply(v), model))

            assert residual(0.02) / residual(0.01) >= 7.0


class TestApply:
    @pytest.mark.parametrize("lam", [-3, 0, 1, 5])
    def test_plane_wave_eigenvectors(self, lam):
        op = free_operator()
        for kind in ("v", "w"):
            phi = basis_spinor(lam, kind)
            err = norm(poly_sub(op.apply(phi), lam * phi))
            assert err <= 1e-12

    def test_self_adjointness_on_random_spinors(self, explicit_family_2):
        h, k = explicit_family_2
        cf = CoframeFamily.from_perturbation(h, k)
        op = dirac_operator(cf, 0.1, N)
        rng = np.random.default_rng(32)
        for _ in range(10):
            u, v = random_spinor(rng), random_spinor(rng)
            lhs = inner(op.apply(u), v)
            rhs = inner(u, op.apply(v))
            assert abs(lhs - rhs) <= 1e-10

    @pytest.mark.parametrize("shape", [(7,), (3, 7), (2, 6), (2, 3, 5), (1, 5)])
    def test_rejects_arrays_that_are_not_spinors(self, shape):
        bad = np.zeros(shape, dtype=complex)
        v = basis_spinor(1, "v")
        with pytest.raises(ValueError, match=r"\(2, 2K\+1\)"):
            free_operator().apply(bad)
        for args in ((bad, v), (v, bad)):
            with pytest.raises(ValueError, match=r"\(2, 2K\+1\)"):
                inner(*args)
        with pytest.raises(ValueError, match=r"\(2, 2K\+1\)"):
            pseudoinverse(bad, 1, 8)


class TestFirstOrderTerm:
    def test_zero_perturbation(self):
        h = scaled(random_symmetric_field(np.random.default_rng(1)), 0.0)
        op = _first_order_operator(h)
        assert np.max(np.abs(op.b_hat)) == 0
        assert np.max(np.abs(op.p_hat)) == 0

    def test_first_family_action_matches_symbolic_expansion(self, explicit_family_1):
        """Hand expansion of the first-order action on the mode-1 spinor:
        with u = B_h (1,1)^T, the image is [-(1/4)u + (i/8)u'] e^{ix}/sqrt(pi)."""
        h, _ = explicit_family_1
        op = _first_order_operator(h)
        v1 = basis_spinor(1, "v")
        x = grid_points(N)

        h11, h21, h31 = (evaluate(h[j][0], x).real for j in range(3))
        u = np.array([h11 - 1j * h21 + h31, h11 + 1j * h21 - h31])
        d11, d21, d31 = (poly_derivative(h[j][0]) for j in range(3))
        du_dx = np.array(
            [
                evaluate(add(d11, -1j * d21, d31), x),
                evaluate(add(d11, 1j * d21, -d31), x),
            ]
        )
        c = 1.0 / (2.0 * np.sqrt(np.pi))
        expected = (-0.5 * u + 0.25j * du_dx) * c * np.exp(1j * x)
        assert np.max(np.abs(on_grid(op.apply(v1), x) - expected)) <= 1e-12

    def test_second_family_diagonal_value(self, explicit_family_2):
        h, _ = explicit_family_2
        op = _first_order_operator(h)
        v1 = basis_spinor(1, "v")
        assert inner(op.apply(v1), v1) == pytest.approx(-0.5, abs=1e-13)


class TestSecondOrderTerm:
    def test_zero_perturbation(self):
        zero = scaled(random_symmetric_field(np.random.default_rng(1)), 0.0)
        op = _second_order_operator(zero, zero)
        assert np.max(np.abs(op.b_hat)) == 0
        assert np.max(np.abs(op.p_hat)) == 0

    def test_first_family_scalar_part(self, explicit_family_1):
        h, k = explicit_family_1
        op = _second_order_operator(h, k)
        constant = resize_degree(np.array([-0.5 + 0j]), op.degree)
        assert np.allclose(op.p_hat, constant, atol=1e-13)

    def test_second_family_scalar_part(self, explicit_family_2):
        h, k = explicit_family_2
        op = _second_order_operator(h, k)
        constant = resize_degree(np.array([-3.0 / 16.0 + 0j]), op.degree)
        assert np.allclose(op.p_hat, constant, atol=1e-13)


class TestSpinorField:
    """Spinors are (2, 2K+1) coefficient arrays; the basis ones are cached."""

    def test_fourier_view_round_trip(self):
        rng = np.random.default_rng(36)
        upper = rng.normal(size=11) + 1j * rng.normal(size=11)
        lower = rng.normal(size=7) + 1j * rng.normal(size=7)
        v = spinor(upper, lower)
        assert v.shape == (2, 11)
        assert np.array_equal(v[0], upper)
        assert np.array_equal(v[1], resize_degree(lower, 5))
        basis = basis_spinor(5, "w")
        assert basis is basis_spinor(5, "w")
        assert basis.shape == (2, 11) and not basis.flags.writeable

    def test_norm_is_nonnegative_quadrature(self):
        rng = np.random.default_rng(37)
        v = random_spinor(rng)
        samples = on_grid(v, grid_points(64))
        direct = np.sqrt(np.sum(np.abs(samples) ** 2) * 2 * np.pi / 64)
        assert norm(v) == pytest.approx(direct, rel=1e-13)

    def test_bandwidth(self):
        # the pseudoinverse needs a truncation above bandwidth + |n| = 7 + 1
        v = basis_spinor(7, "v")
        with pytest.raises(TruncationError, match="requirement 9"):
            pseudoinverse(v, 1, 8)
        assert pseudoinverse(v, 1, 9).shape == (2, 19)


class TestChargeConjugation:
    def test_maps_v_to_w(self):
        for lam in (-2, 0, 1):
            v = basis_spinor(lam, "v")
            w = basis_spinor(lam, "w")
            assert np.max(np.abs(charge_conjugate(v) - w)) <= 1e-15

    def test_squares_to_minus_identity(self):
        rng = np.random.default_rng(33)
        v = random_spinor(rng)
        assert norm(charge_conjugate(charge_conjugate(v)) + v) <= 1e-14

    def test_antiunitary(self):
        rng = np.random.default_rng(34)
        v = random_spinor(rng)
        assert norm(charge_conjugate(v)) == pytest.approx(norm(v), rel=1e-13)

    def test_commutes_with_operator(self, first_row_coframe):
        op = dirac_operator(first_row_coframe, 0.12, N)
        rng = np.random.default_rng(35)
        for _ in range(5):
            v = random_spinor(rng)
            lhs = op.apply(charge_conjugate(v))
            rhs = charge_conjugate(op.apply(v))
            assert norm(lhs - rhs) <= 1e-10


class TestSymbolValidation:
    def test_rejects_non_hermitian(self):
        b = np.zeros((2, 2, 9), dtype=complex)
        b[0, 1, 4] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            DiracOperator(b, np.zeros(9))

    def test_rejects_complex_potential(self):
        one, zero = np.ones(1), np.zeros(1)
        with pytest.raises(ValueError, match="nonreal"):
            DiracOperator(symbol_matrix(one, zero, zero), 1e-6j * one)

    def test_rejects_nan(self):
        # a NaN defect fails "defect <= tol"; "defect > tol" let it through
        one, zero = np.ones(1), np.zeros(1)
        for entry in ((0, 1), (0, 0)):
            b = symbol_matrix(one, zero, zero)
            b[(*entry, 0)] = np.nan
            with pytest.raises(NumericalContractError, match="not Hermitian: residual nan"):
                DiracOperator(b, zero)
        with pytest.raises(NumericalContractError, match="nonreal"):
            DiracOperator(symbol_matrix(one, zero, zero), np.array([np.nan]))

    def test_tolerances_scale_with_the_largest_coefficient(self):
        # at |coefficient| ~ 100 defects of ~1e-13 relative pass, though an
        # absolute 1e-12 or 1e-10 would reject them; 1e-6 relative does not
        one, zero = np.ones(1), np.zeros(1)
        big = symbol_matrix(100.0 * one, zero, 50.0 * one)
        near = big.copy()
        near[0, 1] += 5e-9
        near[0, 0] += 5e-9
        DiracOperator(near, 100.0 + 1e-11j * one)
        for skew, match in ((np.array([[0, 1e-4], [0, 0]]), "Hermitian"), (1e-4 * np.eye(2), "trace-free")):
            with pytest.raises(ValueError, match=match):
                DiracOperator(big + skew[..., None], zero)
        with pytest.raises(ValueError, match="nonreal"):
            DiracOperator(big, 100.0 + 1e-4j * one)
        # below magnitude 1 the potential tolerance stays 1e-12
        with pytest.raises(ValueError, match="nonreal"):
            DiracOperator(symbol_matrix(one, zero, zero), 0.5 + 2e-12j * one)

    def test_stacked_checks_give_each_operator_its_own_verdict(self):
        # the pass judges (E, 2, 2, L) and (E, L) stacks at once; each row
        # must fail as DiracOperator fails on it alone, with its message
        one, zero = np.ones(3), np.zeros(3)
        base = symbol_matrix(100.0 * one, zero, 50.0 * one)
        b = np.array([base] * 6)
        p = np.full((6, 3), 100.0 + 0j)
        b[1, 0, 1, 0] += 1e-4  # not Hermitian
        b[2, 0, 0] += 1e-4  # not trace-free
        p[3, 1] += 1e-4j  # a complex potential
        b[4, 1, 0, 2] = np.nan
        p[5, 0] = np.nan
        checks = _contract_checks(b, p)
        for e in range(6):
            failed = [str(error(e)) for fails, error in checks if fails[e]]
            if not failed:
                DiracOperator(b[e], p[e])
                continue
            with pytest.raises(NumericalContractError) as info:
                DiracOperator(b[e], p[e])
            assert str(info.value) == failed[0]
        assert [bool(any(fails[e] for fails, _ in checks)) for e in range(6)] == [False] + [True] * 5
