import numpy as np
import pytest

from torusdirac import (
    CoframeFamily,
    SpinorField,
    charge_conjugate,
    dirac_operator,
    first_order_operator,
    free_operator,
    metric_at,
    second_order_operator,
)
from torusdirac.dirac import DiracOperator, symbol_matrix
from torusdirac.galerkin import basis_spinor
from torusdirac.trigpoly import TrigPoly, grid_points, resize_degree

from conftest import random_symmetric_field

N = 256


def random_spinor(rng, degree=3) -> SpinorField:
    comps = []
    for _ in range(2):
        c = rng.normal(size=2 * degree + 1) + 1j * rng.normal(size=2 * degree + 1)
        comps.append(TrigPoly(c))
    return SpinorField.from_components(*comps)


def on_grid(v: SpinorField, x) -> np.ndarray:
    """Values of the spinor at the points x, shape (2, len(x))."""
    return np.array([TrigPoly(c).evaluate(x) for c in v.coeffs])


def coefficient_gap(a: DiracOperator, b: DiracOperator) -> float:
    """Largest coefficient difference of the symbols and potentials of a and b."""
    d = max(a.degree, b.degree)
    return max(
        np.max(np.abs(resize_degree(a.b_hat, d) - resize_degree(b.b_hat, d))),
        np.max(np.abs(resize_degree(a.p_hat, d) - resize_degree(b.p_hat, d))),
    )


class TestAssemble:
    def test_flat_operator(self, rotation_block_coframe):
        op = dirac_operator(metric_at(rotation_block_coframe, 0.0, N))
        assert op.degree == 63  # |k| < N/4
        assert coefficient_gap(op, free_operator()) <= 1e-12

    @pytest.mark.parametrize("eps", [0.2, 0.45, -0.3])
    def test_rotation_block_reduces_to_constant_shift(
        self, rotation_block_coframe, eps
    ):
        op = dirac_operator(metric_at(rotation_block_coframe, eps, N))
        shift = -eps**2 / (2 * (1 - eps**2))
        shifted = DiracOperator(free_operator().b_hat, np.array([shift]))
        assert coefficient_gap(op, shifted) <= 1e-12

    def test_series_matches_assembled_operator_to_first_order(self, explicit_family_2):
        h, k = explicit_family_2
        cf = CoframeFamily.from_perturbation(h, k)
        w0 = free_operator()
        w1 = first_order_operator(h)

        def coeff_error(eps):
            op = dirac_operator(metric_at(cf, eps, 64))
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
            w1 = first_order_operator(h)
            w2 = second_order_operator(h, k)
            v = random_spinor(rng)

            def residual(eps):
                full = dirac_operator(metric_at(cf, eps, 128))
                model = w0.apply(v) + eps * w1.apply(v) + (eps * eps) * w2.apply(v)
                return (full.apply(v) - model).norm()

            assert residual(0.02) / residual(0.01) >= 7.0


class TestApply:
    @pytest.mark.parametrize("lam", [-3, 0, 1, 5])
    def test_plane_wave_eigenvectors(self, lam):
        op = free_operator()
        for kind in ("v", "w"):
            phi = basis_spinor(lam, kind)
            err = (op.apply(phi) - lam * phi).norm()
            assert err <= 1e-12

    def test_self_adjointness_on_random_spinors(self, explicit_family_2):
        h, k = explicit_family_2
        cf = CoframeFamily.from_perturbation(h, k)
        op = dirac_operator(metric_at(cf, 0.1, N))
        rng = np.random.default_rng(32)
        for _ in range(10):
            u, v = random_spinor(rng), random_spinor(rng)
            lhs = op.apply(u).inner(v)
            rhs = u.inner(op.apply(v))
            assert abs(lhs - rhs) <= 1e-10


class TestFirstOrderTerm:
    def test_zero_perturbation(self):
        h = random_symmetric_field(np.random.default_rng(1)) * 0.0
        op = first_order_operator(h)
        assert np.max(np.abs(op.b_hat)) == 0
        assert np.max(np.abs(op.p_hat)) == 0

    def test_first_family_action_matches_symbolic_expansion(self, explicit_family_1):
        """Hand expansion of the first-order action on the mode-1 spinor:
        with u = B_h (1,1)^T, the image is [-(1/4)u + (i/8)u'] e^{ix}/sqrt(pi)."""
        h, _ = explicit_family_1
        op = first_order_operator(h)
        v1 = basis_spinor(1, "v")
        x = grid_points(N)

        h11, h21, h31 = (h[j, 0].evaluate(x).real for j in range(3))
        u = np.array([h11 - 1j * h21 + h31, h11 + 1j * h21 - h31])
        du_dx = np.array(
            [
                (h[0, 0].derivative() - 1j * h[1, 0].derivative() + h[2, 0].derivative()).evaluate(x),
                (h[0, 0].derivative() + 1j * h[1, 0].derivative() - h[2, 0].derivative()).evaluate(x),
            ]
        )
        c = 1.0 / (2.0 * np.sqrt(np.pi))
        expected = (-0.5 * u + 0.25j * du_dx) * c * np.exp(1j * x)
        assert np.max(np.abs(on_grid(op.apply(v1), x) - expected)) <= 1e-12

    def test_second_family_diagonal_value(self, explicit_family_2):
        h, _ = explicit_family_2
        op = first_order_operator(h)
        v1 = basis_spinor(1, "v")
        assert op.apply(v1).inner(v1) == pytest.approx(-0.5, abs=1e-13)


class TestSecondOrderTerm:
    def test_zero_perturbation(self):
        zero = random_symmetric_field(np.random.default_rng(1)) * 0.0
        op = second_order_operator(zero, zero)
        assert np.max(np.abs(op.b_hat)) == 0
        assert np.max(np.abs(op.p_hat)) == 0

    def test_first_family_scalar_part(self, explicit_family_1):
        h, k = explicit_family_1
        op = second_order_operator(h, k)
        constant = resize_degree(np.array([-0.5 + 0j]), op.degree)
        assert np.allclose(op.p_hat, constant, atol=1e-13)

    def test_second_family_scalar_part(self, explicit_family_2):
        h, k = explicit_family_2
        op = second_order_operator(h, k)
        constant = resize_degree(np.array([-3.0 / 16.0 + 0j]), op.degree)
        assert np.allclose(op.p_hat, constant, atol=1e-13)


class TestSpinorField:
    def test_fourier_view_round_trip(self):
        rng = np.random.default_rng(36)
        upper = TrigPoly(rng.normal(size=11) + 1j * rng.normal(size=11))
        lower = TrigPoly(rng.normal(size=7) + 1j * rng.normal(size=7))
        v = SpinorField.from_components(upper, lower)
        assert v.degree == 5
        assert TrigPoly(v.coeffs[0]).isclose(upper, 0.0)
        assert TrigPoly(v.coeffs[1]).isclose(lower, 0.0)

    def test_norm_is_nonnegative_quadrature(self):
        rng = np.random.default_rng(37)
        v = random_spinor(rng)
        samples = on_grid(v, grid_points(64))
        direct = np.sqrt(np.sum(np.abs(samples) ** 2) * 2 * np.pi / 64)
        assert v.norm() == pytest.approx(direct, rel=1e-13)

    def test_bandwidth(self):
        v = basis_spinor(7, "v")
        assert v.bandwidth() == 7


class TestChargeConjugation:
    def test_maps_v_to_w(self):
        for lam in (-2, 0, 1):
            v = basis_spinor(lam, "v")
            w = basis_spinor(lam, "w")
            assert np.max(np.abs(charge_conjugate(v).coeffs - w.coeffs)) <= 1e-15

    def test_squares_to_minus_identity(self):
        rng = np.random.default_rng(33)
        v = random_spinor(rng)
        assert (charge_conjugate(charge_conjugate(v)) + v).norm() <= 1e-14

    def test_antiunitary(self):
        rng = np.random.default_rng(34)
        v = random_spinor(rng)
        assert charge_conjugate(v).norm() == pytest.approx(v.norm(), rel=1e-13)

    def test_commutes_with_operator(self, first_row_coframe):
        op = dirac_operator(metric_at(first_row_coframe, 0.12, N))
        rng = np.random.default_rng(35)
        for _ in range(5):
            v = random_spinor(rng)
            lhs = op.apply(charge_conjugate(v))
            rhs = charge_conjugate(op.apply(v))
            assert (lhs - rhs).norm() <= 1e-10


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
