import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from torusdirac import (
    CoframeFamily,
    NumericalContractError,
    SingularCoframeError,
    UnderResolvedError,
    arc_length,
    dirac_operator,
    load_config_file,
    load_example,
)
from torusdirac.config import EXAMPLE_NAMES
from torusdirac.geometry import _arc_lengths, _coframe_samples, coframe_tails, fft_tail, raise_first
from torusdirac.geometry import sample_checks, tail_check
from torusdirac.perturbation import _metric_data
from torusdirac.trigpoly import grid_points, poly_add, poly_derivative, poly_sub, resize_degree

from conftest import COS, IDENTITY, add, SIN, ZERO, ZERO_FIELD, const, entrywise, evaluate, isclose, operator_hats
from conftest import m3, matmul, random_field, random_symmetric_field, reference_coframe, sample
from conftest import scaled, symbol_matrix, transpose

GOLDEN = Path(__file__).parent / "golden"


def pointwise_operator_coefficients(cf, eps, n, degree):
    """B^ and p^ over k = -degree..degree from an independent per-point
    frame: the first frame column solves coframe^T a = (1, 0, 0) at each
    grid point, and sqrt(det g) is np.linalg.det of the coframe samples."""
    x = grid_points(n)
    coframe = reference_coframe(cf, eps)
    csamp = sample(coframe, x).real
    dcsamp = sample(entrywise(poly_derivative, coframe), x).real
    a = np.array([np.linalg.solve(csamp[:, :, i].T, [1.0, 0.0, 0.0]) for i in range(n)]).T
    sqrt_det_g = np.array([np.linalg.det(csamp[:, :, i]) for i in range(n)])
    num = np.sum(csamp[:, 2] * dcsamp[:, 1] - csamp[:, 1] * dcsamp[:, 2], axis=0)
    p = num / (4.0 * sqrt_det_g)

    def coefficients(f):
        # FFT order to k = 1-n/2..n/2-1, then cut to the operator's band
        shifted = np.fft.fftshift(np.fft.fft(f, axis=-1) / n, axes=-1)
        return resize_degree(shifted[..., 1:], degree)

    return coefficients(symbol_matrix(*a)), coefficients(p), sqrt_det_g


def assert_matches_pointwise_frame(cf, eps, n):
    op = dirac_operator(cf, eps, n)
    b_hat, p_hat, sqrt_det_g = pointwise_operator_coefficients(cf, eps, n, op.degree)
    op_b, op_p = operator_hats(op)
    assert np.max(np.abs(op_b - b_hat)) <= 1e-12
    assert np.max(np.abs(op_p - p_hat)) <= 1e-12
    return op, sqrt_det_g


class TestMetricAt:
    def test_unperturbed_is_euclidean(self, rotation_block_coframe):
        coframe = reference_coframe(rotation_block_coframe, 0.0)
        g = matmul(transpose(coframe), coframe)
        assert isclose(g, IDENTITY, 1e-15)
        op, sqrt_det_g = assert_matches_pointwise_frame(rotation_block_coframe, 0.0, 64)
        # frame = I: B = [[0, 1], [1, 0]] and p = 0
        expected = resize_degree(symbol_matrix(np.ones(1), np.zeros(1), np.zeros(1)), op.degree)
        assert np.max(np.abs(operator_hats(op)[0] - expected)) <= 1e-14
        assert np.max(np.abs(op.p_hat)) <= 1e-14
        assert np.allclose(sqrt_det_g, 1.0)

    @pytest.mark.parametrize("eps", [0.5, 0.2, -0.3])
    def test_rotation_block_metric_matches_pointwise_product(
        self, rotation_block_coframe, eps
    ):
        coframe = reference_coframe(rotation_block_coframe, eps)
        x = grid_points(64)
        csamp = sample(coframe, x)
        gsamp = np.einsum("jan,jbn->abn", csamp, csamp)
        g = matmul(transpose(coframe), coframe)
        assert np.allclose(sample(g, x), gsamp, atol=1e-12)
        # closed form: g_22 = 1 + 2 eps cos + eps^2
        g22 = 1 + 2 * eps * np.cos(x) + eps**2
        assert np.allclose(evaluate(g[1][1], x).real, g22, atol=1e-12)

    def test_rotation_block_determinant(self, rotation_block_coframe):
        eps = 0.2
        _, sqrt_det_g = assert_matches_pointwise_frame(rotation_block_coframe, eps, 64)
        # det coframe = 1 - eps^2 pointwise, so det g = (1 - eps^2)^2
        assert np.allclose(sqrt_det_g, 1 - eps**2, atol=1e-12)

    def test_frame_times_coframe_is_identity(self, first_row_coframe):
        for eps in (0.15, 0.05):
            assert_matches_pointwise_frame(first_row_coframe, eps, 128)

    def test_frame_determinant_reciprocal(self, first_row_coframe):
        # p^ divides by sqrt(det g); the reference takes it from np.linalg.det
        assert_matches_pointwise_frame(first_row_coframe, 0.15, 128)

    def test_singular_coframe_reports_location(self):
        E1 = m3([[COS(1, -1.0), ZERO, ZERO], [ZERO, ZERO, ZERO], [ZERO, ZERO, ZERO]])
        cf = CoframeFamily(E1, ZERO_FIELD)
        with pytest.raises(SingularCoframeError, match="eps=1.0"):
            dirac_operator(cf, 1.0, 64)


class TestCoframeFamily:
    def test_compares_and_hashes_by_identity(self, rotation_block_coframe):
        cf = rotation_block_coframe
        twin = CoframeFamily(cf.E1, cf.E2)
        assert cf == cf and cf != twin
        assert len({cf, twin, cf}) == 2

    def test_accepts_nested_sequences_of_arrays_and_scalars(self):
        cf = CoframeFamily([[COS(1), 0, 0.5], [0, 0, 0], [0, 0, 0]], ZERO_FIELD)
        assert isclose(cf.E1, m3([[COS(1), ZERO, const(0.5)], [ZERO] * 3, [ZERO] * 3]), 0.0)
        assert all(c.dtype == complex and not c.flags.writeable for row in cf.E1 for c in row)


def check_samples(det, eps=0.1):
    """``raise_first`` on the ``sample_checks`` of one eps on len(det) points."""
    raise_first(sample_checks(np.array([eps]), np.array([det]), len(det)))


class TestRealSamples:
    def test_nan_fails_every_sampled_check(self):
        # the check reads "not det > floor", which a NaN sample of det e fails:
        # a singular coframe
        check_samples(np.ones(16))
        with pytest.raises(SingularCoframeError, match="det=nan at grid index 0"):
            check_samples(np.full(16, np.nan))
        det = np.ones(16)
        det[3] = -np.inf
        with pytest.raises(SingularCoframeError, match="det=-inf at grid index 3"):
            check_samples(det)

    def test_samples_are_real_by_construction(self):
        # the coframe is checked real once, at construction; its samples come
        # from the half spectra, so a rounding-level imaginary part of E1 or
        # E2 (from_perturbation's E2 carries one) never reaches them
        rng = np.random.default_rng(6)
        h, k = random_symmetric_field(rng, 2, 100.0), random_symmetric_field(rng, 2, 100.0)
        cf = CoframeFamily.from_perturbation(h, k)
        assert max(np.abs(c - np.conj(c[::-1])).max() for row in cf.E2 for c in row) > 1e-12
        values, _, det, _ = _coframe_samples(cf, np.array([1e-3]), 64)
        assert values.dtype == det.dtype == np.float64

    def test_nan_tail_is_under_resolved(self):
        # the operator pass takes the larger of the tails of B and p; a NaN
        # in the band past n/4 of either is kept
        clean, tainted = np.zeros((1, 9), dtype=complex), np.zeros((1, 9), dtype=complex)
        tainted[0, 8] = np.nan
        for a, b in ((clean, tainted), (tainted, clean)):
            tails = np.maximum(fft_tail(a, 16, 1), fft_tail(b, 16, 1))
            with pytest.raises(UnderResolvedError, match="tail nan"):
                raise_first((tail_check(tails),))
        # eps^2 overflows, and inf * 0 makes the E2 coefficients past the band NaN
        cf = CoframeFamily(*(m3([[COS(8, a), 0.0, 0.0], [0.0] * 3, [0.0] * 3]) for a in (1.0, 0.0)))
        tails, harmonics = coframe_tails(cf, np.array([0.1, 1e200]), 16)
        assert tails[0] == 0.05 and np.isnan(tails[1]) and harmonics[0] == 8
        with pytest.raises(UnderResolvedError, match="tail nan"):
            raise_first((tail_check(tails[1:]),))


def first_column(x) -> list:
    """Column 0 of the 3x3 field ``x``, nested or stacked, as ``_metric_data`` builds k."""
    return [row[:1] for row in x]


class TestPerturbationExtraction:
    def test_symmetric_linear_coframe_doubles(
        self, rotation_block_coframe, explicit_family_1
    ):
        h, _ = _metric_data(rotation_block_coframe, 3)
        expected, _ = explicit_family_1
        assert isclose(h, expected, 1e-15)

    def test_zero_and_antisymmetric_give_zero(self):
        assert isclose(_metric_data(CoframeFamily(ZERO_FIELD, ZERO_FIELD), 3)[0], ZERO_FIELD)
        anti = m3([[ZERO, SIN(1), ZERO], [SIN(1, -1.0), ZERO, ZERO], [ZERO, ZERO, ZERO]])
        assert isclose(_metric_data(CoframeFamily(anti, ZERO_FIELD), 3)[0], ZERO_FIELD, 1e-15)

    def test_rotation_block_quadratic_data(self, rotation_block_coframe):
        # the (x^2, x^3) rotation block has k = diag(0, 4, 4), first column 0;
        # adding e^1_1 = 1 to E1 makes k_11 = 4 (E1^T E1)_11 = 4
        _, k = _metric_data(rotation_block_coframe, 3)
        assert k.shape[:2] == (3, 1) and isclose(k, first_column(ZERO_FIELD), 1e-14)
        shifted = CoframeFamily(entrywise(add, rotation_block_coframe.E1, m3([[1.0, 0, 0], [0] * 3, [0] * 3])),
                                rotation_block_coframe.E2)
        assert isclose(_metric_data(shifted, 3)[1], first_column(m3([[4.0, 0, 0], [0] * 3, [0] * 3])), 1e-14)

    def test_pure_second_order_inverts_definition(self):
        rng = np.random.default_rng(21)
        k_given = random_symmetric_field(rng)
        h, k = _metric_data(CoframeFamily(ZERO_FIELD, scaled(k_given, 0.125)), 3)
        assert isclose(k, first_column(k_given), 1e-13)
        assert isclose(h, ZERO_FIELD)

    def test_synthesized_family_round_trips(self, explicit_family_2):
        h_given, k_given = explicit_family_2
        h, k = _metric_data(CoframeFamily.from_perturbation(h_given, k_given), 3)
        assert isclose(h, h_given, 1e-13)
        assert isclose(k, first_column(k_given), 1e-13)

    def test_closed_form_reads_the_first_entry_of_the_column(self):
        # rows = 1 builds k[0, 0] alone, with the bits of the column's first entry
        rng = np.random.default_rng(24)
        for _ in range(5):
            cf = CoframeFamily(random_field(rng), random_field(rng))
            (h1, k1), (h3, k3) = _metric_data(cf, 1), _metric_data(cf, 3)
            assert k1.shape[:2] == (1, 1) and np.array_equal(h1, h3) and np.array_equal(k1[0], k3[0])

    def test_large_perturbation_data_is_accepted(self):
        # E2 = (k - h@h)/8 carries rounding-level imaginary parts, ~1e-12
        # against entries up to ~1e4; seeds 6 and 7 exceed an absolute 1e-12
        for seed in range(20):
            rng = np.random.default_rng(seed)
            h = random_symmetric_field(rng, 2, 100.0)
            k = random_symmetric_field(rng, 2, 100.0)
            CoframeFamily.from_perturbation(h, k)

    @pytest.mark.parametrize("name", ["E1", "E2"])
    def test_large_imaginary_defect_is_rejected(self, name):
        rng = np.random.default_rng(6)
        fields = {"E1": random_field(rng, 2, 100.0), "E2": random_field(rng, 2, 100.0)}
        mat = fields[name]
        fields[name] = m3([[poly_add(mat[a][b], const(1e-4j)) if (a, b) == (1, 2) else mat[a][b]
                            for b in range(3)] for a in range(3)])
        with pytest.raises(ValueError, match=f"{name} must be a real-valued matrix field"):
            CoframeFamily(**fields)

    def test_always_symmetric_real(self):
        # h symmetric by construction, both h and the column of k real
        rng = np.random.default_rng(22)
        for _ in range(5):
            h, k = _metric_data(CoframeFamily(random_field(rng), random_field(rng)), 3)
            assert np.array_equal(h, h.transpose(1, 0, 2))
            for mat in (h, k):
                assert np.max(np.abs(mat - np.conj(mat[..., ::-1]))) <= 1e-13


class TestMetricExpansion:
    def test_cubic_remainder_ratio(self):
        rng = np.random.default_rng(23)
        x = grid_points(64)
        for _ in range(5):
            cf = CoframeFamily(random_field(rng), random_field(rng))
            h, k = _metric_data(cf, 3)

            def residual(eps):
                # the first column of g, the column of k that is built
                coframe = reference_coframe(cf, eps)
                metric = matmul(transpose(coframe), coframe)
                diff = [poly_sub(metric[a][0], add(IDENTITY[a][0], h[a, 0] * eps, k[a, 0] * (eps * eps / 4.0)))
                        for a in range(3)]
                return max(np.max(np.abs(evaluate(c, x))) for c in diff)

            r1, r2 = residual(0.02), residual(0.01)
            assert r1 / r2 >= 7.0


class TestArcLength:
    def test_flat_circle(self, rotation_block_coframe):
        assert arc_length(rotation_block_coframe, 0.0) == pytest.approx(2 * np.pi)

    def test_linear_coefficient_of_constant_h11_family(self, explicit_family_2):
        h, k = explicit_family_2
        cf = CoframeFamily.from_perturbation(h, k)
        # l(eps) = 2 pi (1 + eps/2) + O(eps^2) since mean(h_11) = 1
        quad_coeffs = []
        for eps in (1e-2, 1e-3):
            err = abs(arc_length(cf, eps) - 2 * np.pi * (1 + eps / 2))
            quad_coeffs.append(err / eps**2)
        q1, q2 = quad_coeffs
        assert q1 < 10.0 and q2 < 10.0
        assert 0.5 < q1 / q2 < 2.0

    def test_singular_coframe_raises(self):
        # e^1_1 = 1 - eps vanishes at eps = 1
        E1 = m3([[const(-1.0), ZERO, ZERO], [ZERO] * 3, [ZERO] * 3])
        with pytest.raises(SingularCoframeError, match="eps=1.0"):
            arc_length(CoframeFamily(E1, ZERO_FIELD), 1.0)

    def test_matches_coefficient_g11_to_4_ulp(self):
        # g_11 is formed pointwise from the coframe samples; the reference
        # builds it in coefficients (1 ulp apart at worst, measured)
        rng = np.random.default_rng(11)
        cf = CoframeFamily(random_field(rng, 3, 0.05), random_field(rng, 2, 0.05))
        for eps in (1e-4, -1e-4, 0.2):
            coframe = reference_coframe(cf, eps)
            g = matmul(transpose(coframe), coframe)
            g11 = evaluate(g[0][0], grid_points(256)).real
            expected = float(np.sqrt(g11).sum() * 2.0 * np.pi / 256)
            assert abs(arc_length(cf, eps) - expected) <= 4 * np.spacing(expected)

    def test_zero_mean_h11_stays_second_order(self, explicit_family_1):
        h, k = explicit_family_1
        cf = CoframeFamily.from_perturbation(h, k)
        for eps in (1e-2, 1e-3):
            assert abs(arc_length(cf, eps) - 2 * np.pi) <= 10.0 * eps**2

    def test_harmonic_at_grid_size_is_not_aliased(self):
        # sqrt(g_11) = 1 + 0.1 cos(256 x), whose mean 1 a 256-point grid reads as 1.1
        E1 = m3([[COS(256, 0.5), ZERO, ZERO], [ZERO] * 3, [ZERO] * 3])
        length = arc_length(CoframeFamily(E1, ZERO_FIELD), 0.2)
        assert length / (2 * np.pi) == pytest.approx(1.0, abs=1e-15)

    def test_high_harmonic_arc_length_peaks_under_2_mib(self):
        # default_grid(256) has 2064 points; the coframe is sampled by one
        # irfft of its 30 half spectra of 257 coefficients, with no phase
        # table (one of 2064 x 513 complex values, 17 MB, took a 32.7 MiB
        # peak); the peak measured was 1.3 MiB
        E1 = m3([[COS(256, 0.5), 0, 0], [0, 0, 0], [0, 0, 0]])
        cf = CoframeFamily(E1, ZERO_FIELD)
        tracemalloc.start()
        try:
            length = arc_length(cf, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert length == pytest.approx(2.0 * np.pi, abs=1e-12)
        assert peak <= 2 << 20

    def test_two_eps_from_one_sample_keep_the_bits_of_one_eps_each(self):
        # asympt's central difference reads both probes from one sample
        families = [load_example(name).family() for name in EXAMPLE_NAMES]
        families += [load_config_file(str(path)).family() for path in sorted(GOLDEN.glob("*.cfg"))]
        for cf in families:
            both = _arc_lengths(cf, np.array([1e-4, -1e-4]))
            assert [x.hex() for x in both] == [arc_length(cf, x).hex() for x in (1e-4, -1e-4)]

    def test_each_eps_is_checked_in_turn(self):
        # e^1_1 = 1 - eps: the first eps past 1 raises, with its own eps
        E1 = m3([[const(-1.0), ZERO, ZERO], [ZERO] * 3, [ZERO] * 3])
        for eps, first in (([0.5, 1.5, 2.0], "eps=1.5"), ([2.0, 1.5], "eps=2.0")):
            with pytest.raises(SingularCoframeError, match=first):
                _arc_lengths(CoframeFamily(E1, ZERO_FIELD), np.array(eps))

    def test_near_singular_g11_is_under_resolved(self):
        # g_11 = (1 - 0.99999 cos x)^2 + 1e-6 sin^2 x nearly vanishes at x = 0,
        # so sqrt(g_11) keeps a Fourier tail above 1e-9 at |k| >= 64
        E1 = m3([[COS(1, -0.99999), ZERO, ZERO], [SIN(1, 1e-3), ZERO, ZERO], [ZERO] * 3])
        with pytest.raises(UnderResolvedError, match="Fourier tail"):
            arc_length(CoframeFamily(E1, ZERO_FIELD), 1.0)
