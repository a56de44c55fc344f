import sys
import threading
from collections import OrderedDict

import numpy as np
import pytest

from torusdirac import trigpoly
from torusdirac.trigpoly import Matrix3Field, TrigPoly, grid_points

from conftest import COS, SIN, random_symmetric_field


class TestAdd:
    def test_doubling(self):
        s = COS(1) + COS(1)
        assert s.fourier(1) == pytest.approx(1.0)
        assert s.fourier(-1) == pytest.approx(1.0)

    def test_zero_identity(self):
        f = COS(2, 0.7) + SIN(1, -0.3)
        assert (f + TrigPoly.zero()).isclose(f, 0.0)

    def test_cos_plus_sin_coefficients_match_pointwise_sum(self):
        f = COS(1) + SIN(1)
        assert f.fourier(1) == pytest.approx(0.5 - 0.5j)
        assert f.fourier(-1) == pytest.approx(0.5 + 0.5j)
        x = grid_points(16)
        expected = np.cos(x) + np.sin(x)
        assert np.allclose(f.evaluate(x), expected, atol=1e-14)

    def test_degree_is_max(self):
        assert (COS(3) + SIN(1)).degree == 3


class TestMul:
    def test_cosine_square(self):
        f = COS(1) * COS(1)
        assert f.fourier(0) == pytest.approx(0.5)
        assert f.fourier(2) == pytest.approx(0.25)
        assert f.degree == 2

    def test_pythagorean_identity(self):
        f = COS(1) * COS(1) + SIN(1) * SIN(1)
        assert f.isclose(TrigPoly.constant(1.0), 1e-15)

    def test_first_family_h_squared_mean(self, explicit_family_1):
        h, _ = explicit_family_1
        hsq = h @ h
        assert np.allclose(hsq.fourier(0), np.diag([0.0, 4.0, 4.0]))

    def test_matches_pointwise_product(self):
        rng = np.random.default_rng(3)
        a = TrigPoly(rng.normal(size=7) + 1j * rng.normal(size=7))
        b = TrigPoly(rng.normal(size=9) + 1j * rng.normal(size=9))
        n = 2 * (a.degree + b.degree) + 2
        x = grid_points(n)
        assert np.allclose((a * b).evaluate(x), a.evaluate(x) * b.evaluate(x), atol=1e-12)


class TestDerivative:
    def test_cosine(self):
        assert COS(1).derivative().isclose(SIN(1, -1.0), 1e-15)

    def test_constant(self):
        assert TrigPoly.constant(4.2).derivative().isclose(TrigPoly.zero())

    def test_sin3x_finite_difference(self):
        f = SIN(3)
        df = f.derivative()
        x = grid_points(8)
        step = 1e-6
        fd = (f.evaluate(x + step) - f.evaluate(x - step)) / (2 * step)
        assert np.allclose(df.evaluate(x), fd, atol=1e-8)
        assert df.isclose(COS(3, 3.0), 1e-15)


class TestFourier:
    def test_two_cosine(self):
        assert COS(1, 2.0).fourier(1) == pytest.approx(1.0)

    def test_two_sine(self):
        assert COS(1, 0.0).fourier(1) == 0
        assert SIN(1, 2.0).fourier(1) == pytest.approx(-1.0j)

    def test_out_of_band(self):
        f = COS(2) + SIN(1)
        assert f.fourier(5) == 0
        assert f.fourier(-3) == 0


class TestProperties:
    def test_realness_closed_under_operations(self):
        rng = np.random.default_rng(13)
        a = random_symmetric_field(rng)[0, 1]
        b = random_symmetric_field(rng)[2, 2]
        assert a.is_real() and b.is_real()
        assert (a + b).is_real()
        assert (a * b).is_real()
        assert a.derivative().is_real()


class TestSerialization:
    def test_empty_triples_is_zero(self):
        assert TrigPoly.from_triples([]).isclose(TrigPoly.zero())


class TestOwnership:
    def test_constructor_copies_the_callers_array(self):
        arr = np.array([0.5, 1.0, 0.5], dtype=complex)
        f = TrigPoly(arr)
        arr[:] = 7.0
        assert f.coeffs.tolist() == [0.5, 1.0, 0.5]
        assert not f.coeffs.flags.writeable

    def test_constructor_rejects_even_length(self):
        with pytest.raises(ValueError, match="odd length"):
            TrigPoly(np.zeros(2, dtype=complex))

    def test_arithmetic_results_are_read_only(self):
        f = COS(2, 0.7) + SIN(1, -0.3)
        g = SIN(3, 1.1)
        results = {
            "add": f + g,
            "add scalar": f + 2.0,
            "neg": -f,
            "sub": f - g,
            "mul": f * g,
            "mul scalar": 3.0 * f,
            "derivative": f.derivative(),
        }
        for name, r in results.items():
            assert not r.coeffs.flags.writeable, name
            with pytest.raises(ValueError):
                r.coeffs[0] = 1.0
        # the operands are untouched
        assert f.isclose(COS(2, 0.7) + SIN(1, -0.3), 0.0)
        assert g.isclose(SIN(3, 1.1), 0.0)


class TestMatrix3Field:
    def test_product_entry_matches_matmul_bitwise(self):
        rng = np.random.default_rng(8)
        a = random_symmetric_field(rng, degree=3)
        b = random_symmetric_field(rng, degree=1)
        prod = a @ b
        for i in range(3):
            for j in range(3):
                entry = a.product_entry(b, i, j).coeffs
                assert entry.tobytes() == prod[i, j].coeffs.tobytes()

    @pytest.mark.parametrize("top", [3, 7])
    def test_coefficient_stack_matches_fourier(self, top):
        rng = np.random.default_rng(9)
        a = Matrix3Field(
            [[COS(1, 0.3), SIN(3, 0.2), TrigPoly.zero()],
             [COS(2), TrigPoly.constant(-0.0), SIN(1)],
             [TrigPoly(rng.normal(size=7) + 1j * rng.normal(size=7)), COS(3), SIN(2)]]
        )
        stack = a.coefficient_stack(top)
        assert stack.shape == (2 * top + 1, 3, 3)
        for m in range(-top, top + 1):
            assert stack[m + top].tobytes() == a.fourier(m).tobytes()

    def test_identity_product(self):
        rng = np.random.default_rng(5)
        a = random_symmetric_field(rng)
        assert (Matrix3Field.identity() @ a).isclose(a)

    def test_transpose_symmetric(self):
        rng = np.random.default_rng(6)
        a = random_symmetric_field(rng)
        assert a.is_symmetric()
        assert a.transpose().isclose(a)

    def test_matmul_matches_pointwise(self):
        rng = np.random.default_rng(7)
        a = random_symmetric_field(rng)
        b = random_symmetric_field(rng)
        x = grid_points(32)
        prod = (a @ b).sample(x)
        pointwise = np.einsum("acn,cbn->abn", a.sample(x), b.sample(x))
        assert np.allclose(prod, pointwise, atol=1e-12)


class TestGridEvaluation:
    """``on_grid(n)`` reads a cached phase table; it must give the bits of
    the direct formula that ``evaluate`` uses."""

    @pytest.fixture
    def fresh_tables(self, monkeypatch):
        tables = OrderedDict()
        monkeypatch.setattr(trigpoly, "_phase_tables", tables)
        return tables

    @pytest.mark.parametrize("n", [64, 256, 416])
    def test_matches_direct_formula_bitwise(self, n, fresh_tables):
        rng = np.random.default_rng(n)
        x = grid_points(n)
        # mixed order, so the table is rebuilt wider part way through
        for degree in rng.permutation(31):
            coeffs = rng.normal(size=2 * degree + 1) + 1j * rng.normal(size=2 * degree + 1)
            k = np.arange(-degree, degree + 1)
            direct = np.exp(1j * np.multiply.outer(x, k)) @ coeffs
            fast = TrigPoly(coeffs).on_grid(n)
            assert np.array_equal(fast.view(np.uint64), direct.view(np.uint64))
        assert fresh_tables[n].shape == (n, 61)

    def test_matrix_field_on_grid_matches_sample(self, fresh_tables):
        field = random_symmetric_field(np.random.default_rng(3), degree=4)
        n = 128
        assert np.array_equal(
            field.on_grid(n).view(np.uint64), field.sample(grid_points(n)).view(np.uint64)
        )

    def test_table_count_is_bounded(self, fresh_tables):
        sizes = [32, 48, 64, 80, 96, 112]
        for n in sizes:
            COS(3).on_grid(n)
        assert list(fresh_tables) == sizes[-trigpoly.PHASE_TABLE_SIZES:]
        COS(3).on_grid(sizes[-trigpoly.PHASE_TABLE_SIZES])  # most recent again
        COS(3).on_grid(16)
        assert sizes[-trigpoly.PHASE_TABLE_SIZES] in fresh_tables
        assert len(fresh_tables) == trigpoly.PHASE_TABLE_SIZES

    def test_grid_and_table_are_read_only(self, fresh_tables):
        with pytest.raises(ValueError):
            grid_points(64)[0] = 1.0
        COS(2).on_grid(64)
        with pytest.raises(ValueError):
            fresh_tables[64][0, 0] = 0.0

    def test_concurrent_growth_and_eviction(self, fresh_tables):
        # more threads than sizes kept, each growing tables in its own order
        rng = np.random.default_rng(5)
        polys = [TrigPoly(rng.normal(size=2 * d + 1) + 0j) for d in range(13)]
        sizes = [24, 32, 40, 48, 56, 64]
        expected = {(n, d): p.evaluate(grid_points(n)) for n in sizes for d, p in enumerate(polys)}
        errors = []

        def worker(seed):
            order = np.random.default_rng(seed)
            for _ in range(150):
                n, d = int(order.choice(sizes)), int(order.integers(13))
                if not np.array_equal(polys[d].on_grid(n), expected[n, d]):
                    errors.append((n, d))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(s,)) for s in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(fresh_tables) <= trigpoly.PHASE_TABLE_SIZES

    def test_padding_matches_np_pad(self):
        f = COS(1, 0.3) + SIN(1, -0.7)
        assert np.array_equal(f._padded(4), np.pad(f.coeffs, (3, 3)))
