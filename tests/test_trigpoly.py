import numpy as np
import pytest

from torusdirac.config import _parse_poly
from torusdirac.geometry import require_sym_real
from torusdirac import CoframeFamily
from torusdirac.geometry import _coframe_samples
from torusdirac.trigpoly import COEFF_TOL, _as_field, _field_product, grid_points, half_spectrum, matmul_entry
from torusdirac.trigpoly import poly_derivative, real_spectrum, resize_degree, stack_field

from conftest import COS, SIN, ZERO, IDENTITY, add, const, degree, entrywise, evaluate
from conftest import field_fourier, fourier, isclose, m3, matmul, on_grid, random_field, random_symmetric_field
from conftest import sample, stacked, transpose


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
        stack = stack_field(a, top)
        assert stack.shape == (3, 3, 2 * top + 1)
        for m in range(-top, top + 1):
            assert np.ascontiguousarray(stack[..., m + top]).tobytes() == field_fourier(a, m).tobytes()

    def test_field_product_forms_each_entry_at_its_own_degree(self, monkeypatch):
        # entries all of one degree: one einsum; one entry of degree 200 among
        # constants: each pair convolved at its own degree, so 1 product of
        # 401 x 401 coefficients, 4 of 401 x 1 and 22 of 1 x 1
        rng = np.random.default_rng(11)
        uniform = stack_field(random_symmetric_field(rng), 2)
        mixed = np.zeros((3, 3, 401), dtype=complex)
        mixed[..., 200] = rng.normal(size=(3, 3))
        mixed[1, 2] = rng.normal(size=401)
        expected = [product(uniform, uniform), product(transpose(mixed), mixed)]
        sizes, einsums = [], []
        convolve, einsum = np.convolve, np.einsum
        monkeypatch.setattr(np, "convolve", lambda a, b: sizes.append(a.size * b.size) or convolve(a, b))
        monkeypatch.setattr(np, "einsum", lambda *args: einsums.append(1) or einsum(*args))
        assert isclose(_field_product(uniform, uniform), expected[0])
        assert (sizes, einsums) == ([], [1])
        einsums.clear()
        assert isclose(_field_product(mixed.transpose(1, 0, 2), mixed), expected[1], 1e-9)
        assert (sorted(sizes), einsums) == ([1] * 22 + [401] * 4 + [401 * 401], [])

    def test_identity_product(self):
        rng = np.random.default_rng(5)
        a = random_symmetric_field(rng)
        assert isclose(product(IDENTITY, a), a)

    def test_transpose_symmetric(self):
        rng = np.random.default_rng(6)
        a = random_symmetric_field(rng)
        require_sym_real(stacked(a), "a")
        assert isclose(transpose(a), a)

    def test_sym_real_judges_mixed_degrees_as_padded(self):
        # entries of mixed degrees, zero-padded to one degree in the stack:
        # the padding neither hides a defect nor makes one
        def field(**entries):
            rows = [[ZERO] * 3 for _ in range(3)]
            for key, c in entries.items():
                rows[int(key[1])][int(key[2])] = c
            return m3(rows)

        require_sym_real(stacked(field(e01=COS(1), e10=resize_degree(COS(1), 5), e22=const(2.0))), "a")
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
                require_sym_real(stacked(a), "a")

    def test_matmul_matches_pointwise(self):
        rng = np.random.default_rng(7)
        a = random_symmetric_field(rng)
        b = random_symmetric_field(rng)
        x = grid_points(32)
        prod = sample(product(a, b), x)
        pointwise = np.einsum("acn,cbn->abn", sample(a, x), sample(b, x))
        assert np.allclose(prod, pointwise, atol=1e-12)


class TestGridEvaluation:
    """The coframe is sampled by one zero-padded ``irfft`` of its half
    spectra; the samples must match the direct formula that ``evaluate``
    uses to rounding."""

    @pytest.mark.parametrize("n", [64, 256, 416])
    def test_coframe_samples_match_direct_formula(self, n):
        # at eps = 1 the samples of e are I + E1 + E2, and those of the
        # derivatives of entries (j, 1), (j, 2) are E1' + E2' there
        rng = np.random.default_rng(n)
        x = grid_points(n)
        for degree in rng.permutation(min(31, (n - 1) // 4 + 1))[:8]:
            e1, e2 = (random_field(rng, int(degree), 0.1) for _ in range(2))
            values = _coframe_samples(CoframeFamily(e1, e2), np.array([1.0]), n)[0][:, 0]
            coframe = sample(e1, x) + sample(e2, x) + np.eye(3)[..., None]
            derivative = sample(entrywise(poly_derivative, e1), x) + sample(entrywise(poly_derivative, e2), x)
            expected = np.concatenate((coframe.reshape(9, n), derivative[:, 1:].reshape(6, n)))
            # the direct formula's phases e^{ikx} carry an error ~ k x ulp, so
            # the bound grows with the degree: the worst case measured was 8.8e-16
            scale = (degree + 1) * np.fmax(1.0, np.abs(expected).max(axis=1, keepdims=True))
            assert np.all(np.abs(values - expected.real) <= 2e-15 * scale)

    def test_matrix_field_on_grid_matches_sample(self):
        # a real function's values from its half spectrum by irfft, against
        # the direct formula of its full coefficients
        field = random_symmetric_field(np.random.default_rng(3), degree=4)
        n = 128
        direct = on_grid(field, n)
        halves = half_spectrum(stack_field(field, 4))
        assert np.max(np.abs(np.fft.irfft(halves, n, norm="forward") - direct)) <= 1e-14

    def test_half_spectrum_round_trip(self):
        field = stack_field(random_symmetric_field(np.random.default_rng(4), degree=3), 3)
        half = half_spectrum(field)
        assert half.shape == (3, 3, 4) and not np.any(half[..., 0].imag)
        assert np.array_equal(real_spectrum(half, 3), field)
        assert np.array_equal(real_spectrum(half, 5), resize_degree(field, 5))
        assert np.array_equal(real_spectrum(half, 1), resize_degree(field, 1))

    def test_grid_is_read_only(self):
        with pytest.raises(ValueError):
            grid_points(64)[0] = 1.0

    def test_padding_matches_np_pad(self):
        f = add(COS(1, 0.3), SIN(1, -0.7))
        assert np.array_equal(resize_degree(f, 4), np.pad(f, (3, 3)))
