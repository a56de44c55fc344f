import numpy as np
import pytest

from torusdirac.config import _parse_poly
from torusdirac.geometry import require_sym_real
from torusdirac.trigpoly import COEFF_TOL, _as_field, grid_points, matmul_entry, poly_derivative
from torusdirac.trigpoly import poly_on_grid, resize_degree, stack_entries

from conftest import COS, SIN, ZERO, IDENTITY, add, const, degree, evaluate
from conftest import field_fourier, fourier, isclose, m3, matmul, on_grid, random_symmetric_field
from conftest import sample, transpose


def product(x, y) -> tuple:
    """x @ y with ``matmul_entry``."""
    return tuple(tuple(matmul_entry(x, y, a, b) for b in range(3)) for a in range(3))


def is_real(c: np.ndarray) -> bool:
    """True when c_{-k} = conj(c_k) for all k, so values are real."""
    return bool(np.all(np.abs(c - np.conj(c[::-1])) <= COEFF_TOL))


class TestAdd:
    def test_doubling(self):
        s = add(COS(1), COS(1))
        assert fourier(s, 1) == pytest.approx(1.0)
        assert fourier(s, -1) == pytest.approx(1.0)

    def test_zero_identity(self):
        f = add(COS(2, 0.7), SIN(1, -0.3))
        assert isclose(add(f, ZERO), f, 0.0)

    def test_cos_plus_sin_coefficients_match_pointwise_sum(self):
        f = add(COS(1), SIN(1))
        assert fourier(f, 1) == pytest.approx(0.5 - 0.5j)
        assert fourier(f, -1) == pytest.approx(0.5 + 0.5j)
        x = grid_points(16)
        expected = np.cos(x) + np.sin(x)
        assert np.allclose(evaluate(f, x), expected, atol=1e-14)

    def test_degree_is_max(self):
        assert degree(add(COS(3), SIN(1))) == 3


class TestMul:
    def test_cosine_square(self):
        f = np.convolve(COS(1), COS(1))
        assert fourier(f, 0) == pytest.approx(0.5)
        assert fourier(f, 2) == pytest.approx(0.25)
        assert degree(f) == 2

    def test_pythagorean_identity(self):
        f = add(np.convolve(COS(1), COS(1)), np.convolve(SIN(1), SIN(1)))
        assert isclose(f, const(1.0), 1e-15)

    def test_first_family_h_squared_mean(self, explicit_family_1):
        h, _ = explicit_family_1
        assert np.allclose(field_fourier(product(h, h), 0), np.diag([0.0, 4.0, 4.0]))

    def test_matches_pointwise_product(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=7) + 1j * rng.normal(size=7)
        b = rng.normal(size=9) + 1j * rng.normal(size=9)
        n = 2 * (degree(a) + degree(b)) + 2
        x = grid_points(n)
        assert np.allclose(evaluate(np.convolve(a, b), x), evaluate(a, x) * evaluate(b, x), atol=1e-12)


class TestDerivative:
    def test_cosine(self):
        assert isclose(poly_derivative(COS(1)), SIN(1, -1.0), 1e-15)

    def test_constant(self):
        assert isclose(poly_derivative(const(4.2)), ZERO)

    def test_sin3x_finite_difference(self):
        f = SIN(3)
        df = poly_derivative(f)
        x = grid_points(8)
        step = 1e-6
        fd = (evaluate(f, x + step) - evaluate(f, x - step)) / (2 * step)
        assert np.allclose(evaluate(df, x), fd, atol=1e-8)
        assert isclose(df, COS(3, 3.0), 1e-15)


class TestFourier:
    """The coefficient layout of the cosine and sine fixtures."""

    def test_two_cosine(self):
        assert fourier(COS(1, 2.0), 1) == pytest.approx(1.0)

    def test_two_sine(self):
        assert fourier(COS(1, 0.0), 1) == 0
        assert fourier(SIN(1, 2.0), 1) == pytest.approx(-1.0j)

    def test_out_of_band(self):
        f = add(COS(2), SIN(1))
        assert fourier(f, 5) == 0
        assert fourier(f, -3) == 0


class TestProperties:
    def test_realness_closed_under_operations(self):
        rng = np.random.default_rng(13)
        a = random_symmetric_field(rng)[0][1]
        b = random_symmetric_field(rng)[2][2]
        assert is_real(a) and is_real(b)
        assert is_real(add(a, b))
        assert is_real(np.convolve(a, b))
        assert is_real(poly_derivative(a))


class TestSerialization:
    def test_empty_triples_is_zero(self):
        assert isclose(_parse_poly("", "coframe.E1.1.1"), ZERO)


class TestOwnership:
    def test_constructor_copies_the_callers_array(self):
        arr = np.array([0.5, 1.0, 0.5], dtype=complex)
        field = _as_field([[arr, 0, 0], [0, 0, 0], [0, 0, 0]])
        arr[:] = 7.0
        assert field[0][0].tolist() == [0.5, 1.0, 0.5]
        assert not field[0][0].flags.writeable
        assert field[0][1].tolist() == [0j] and not field[0][1].flags.writeable

    def test_constructor_rejects_even_length(self):
        with pytest.raises(ValueError, match="odd length"):
            _as_field([[np.zeros(2, dtype=complex), 0, 0], [0, 0, 0], [0, 0, 0]])


class TestMatrix3Field:
    """3x3 fields as nested tuples of entry coefficient arrays."""

    def test_product_entry_matches_matmul_bitwise(self):
        rng = np.random.default_rng(8)
        a = random_symmetric_field(rng, degree=3)
        b = random_symmetric_field(rng, degree=1)
        prod = matmul(a, b)
        for i in range(3):
            for j in range(3):
                assert matmul_entry(a, b, i, j).tobytes() == prod[i][j].tobytes()

    @pytest.mark.parametrize("top", [3, 7])
    def test_coefficient_stack_matches_fourier(self, top):
        rng = np.random.default_rng(9)
        a = m3(
            [[COS(1, 0.3), SIN(3, 0.2), ZERO],
             [COS(2), const(-0.0), SIN(1)],
             [rng.normal(size=7) + 1j * rng.normal(size=7), COS(3), SIN(2)]]
        )
        stack = stack_entries(a, top)
        assert stack.shape == (2 * top + 1, 3, 3)
        for m in range(-top, top + 1):
            assert stack[m + top].tobytes() == field_fourier(a, m).tobytes()

    def test_identity_product(self):
        rng = np.random.default_rng(5)
        a = random_symmetric_field(rng)
        assert isclose(product(IDENTITY, a), a)

    def test_transpose_symmetric(self):
        rng = np.random.default_rng(6)
        a = random_symmetric_field(rng)
        require_sym_real(a, "a")
        assert isclose(transpose(a), a)

    def test_sym_real_judges_mixed_degrees_as_padded(self):
        # each entry is checked at its own degree, each pair at its larger one,
        # with the verdicts of zero-padding all nine entries to one degree
        def field(**entries):
            rows = [[ZERO] * 3 for _ in range(3)]
            for key, c in entries.items():
                rows[int(key[1])][int(key[2])] = c
            return m3(rows)

        require_sym_real(field(e01=COS(1), e10=resize_degree(COS(1), 5), e22=const(2.0)), "a")
        off = resize_degree(COS(1), 5).copy()
        off[0] = off[-1] = 1e-6  # cos 5x in entry (1, 0) only
        inf = resize_degree(const(1.0), 2).copy()
        inf[0] = np.inf  # an infinite diagonal harmonic: its defect inf - inf is NaN
        nan = COS(1).copy()
        nan[0] = np.nan
        for a, message in ((field(e01=COS(1), e10=off), "a must be symmetric"),
                           (field(e11=inf), "a must be symmetric"),
                           (field(e02=nan, e20=nan), "a must be real-valued")):
            with np.errstate(invalid="ignore"), pytest.raises(ValueError, match=message):
                require_sym_real(a, "a")

    def test_matmul_matches_pointwise(self):
        rng = np.random.default_rng(7)
        a = random_symmetric_field(rng)
        b = random_symmetric_field(rng)
        x = grid_points(32)
        prod = sample(product(a, b), x)
        pointwise = np.einsum("acn,cbn->abn", sample(a, x), sample(b, x))
        assert np.allclose(prod, pointwise, atol=1e-12)


class TestGridEvaluation:
    """``poly_on_grid`` must give the bits of the direct formula that
    ``evaluate`` uses."""

    @pytest.mark.parametrize("n", [64, 256, 416])
    def test_matches_direct_formula_bitwise(self, n):
        rng = np.random.default_rng(n)
        x = grid_points(n)
        for degree in rng.permutation(31):
            coeffs = rng.normal(size=2 * degree + 1) + 1j * rng.normal(size=2 * degree + 1)
            k = np.arange(-degree, degree + 1)
            direct = np.exp(1j * np.multiply.outer(x, k)) @ coeffs
            fast = poly_on_grid(coeffs, n)
            assert np.array_equal(fast.view(np.uint64), direct.view(np.uint64))

    def test_matrix_field_on_grid_matches_sample(self):
        field = random_symmetric_field(np.random.default_rng(3), degree=4)
        n = 128
        assert np.array_equal(
            on_grid(field, n).view(np.uint64), sample(field, grid_points(n)).view(np.uint64)
        )

    def test_grid_is_read_only(self):
        with pytest.raises(ValueError):
            grid_points(64)[0] = 1.0

    def test_padding_matches_np_pad(self):
        f = add(COS(1, 0.3), SIN(1, -0.7))
        assert np.array_equal(resize_degree(f, 4), np.pad(f, (3, 3)))
