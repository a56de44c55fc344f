import numpy as np
import pytest

from torusdirac import (
    CoframeFamily,
    Matrix3Field,
    SingularCoframeError,
    TrigPoly,
    arc_length,
    first_order_perturbation,
    metric_at,
    second_order_perturbation,
)
from torusdirac.trigpoly import grid_points

from conftest import COS, SIN, ZERO, m3, random_field, random_symmetric_field


class TestMetricAt:
    def test_unperturbed_is_euclidean(self, rotation_block_coframe):
        ms = metric_at(rotation_block_coframe, 0.0, 64)
        g = ms.coframe.transpose() @ ms.coframe
        assert g.isclose(Matrix3Field.identity(), 1e-15)
        eye = np.zeros((3, 3, 64))
        eye[0, 0] = eye[1, 1] = eye[2, 2] = 1.0
        assert np.allclose(ms.frame, eye, atol=1e-14)
        assert np.allclose(ms.sqrt_det_g, 1.0)

    @pytest.mark.parametrize("eps", [0.5, 0.2, -0.3])
    def test_rotation_block_metric_matches_pointwise_product(
        self, rotation_block_coframe, eps
    ):
        ms = metric_at(rotation_block_coframe, eps, 64)
        x = grid_points(64)
        csamp = rotation_block_coframe.coframe_at(eps).sample(x)
        gsamp = np.einsum("jan,jbn->abn", csamp, csamp)
        g = ms.coframe.transpose() @ ms.coframe
        assert np.allclose(g.sample(x), gsamp, atol=1e-12)
        # closed form: g_22 = 1 + 2 eps cos + eps^2
        g22 = 1 + 2 * eps * np.cos(x) + eps**2
        assert np.allclose(g[1, 1].evaluate(x).real, g22, atol=1e-12)

    def test_rotation_block_determinant(self, rotation_block_coframe):
        eps = 0.2
        ms = metric_at(rotation_block_coframe, eps, 64)
        # det coframe = 1 - eps^2 pointwise, so det g = (1 - eps^2)^2
        assert np.allclose(ms.sqrt_det_g, 1 - eps**2, atol=1e-12)

    def test_frame_times_coframe_is_identity(self, first_row_coframe):
        for eps in (0.15, 0.05):
            ms = metric_at(first_row_coframe, eps, 128)
            x = grid_points(128)
            csamp = ms.coframe.sample(x).real
            prod = np.einsum("jan,kan->jkn", ms.frame, csamp)
            eye = np.eye(3)[:, :, None]
            assert np.max(np.abs(prod - eye)) <= 1e-12

    def test_frame_determinant_reciprocal(self, first_row_coframe):
        # sqrt(det g) * det(frame) = 1 pointwise
        ms = metric_at(first_row_coframe, 0.15, 128)
        det_frame = np.linalg.det(np.transpose(ms.frame, (2, 0, 1)))
        assert np.max(np.abs(ms.sqrt_det_g * det_frame - 1.0)) <= 1e-10

    def test_singular_coframe_reports_location(self):
        E1 = m3([[COS(1, -1.0), ZERO, ZERO], [ZERO, ZERO, ZERO], [ZERO, ZERO, ZERO]])
        cf = CoframeFamily(E1, Matrix3Field.zero())
        with pytest.raises(SingularCoframeError, match="eps=1.0"):
            metric_at(cf, 1.0, 64)


class TestPerturbationExtraction:
    def test_symmetric_linear_coframe_doubles(
        self, rotation_block_coframe, explicit_family_1
    ):
        h = first_order_perturbation(rotation_block_coframe)
        expected, _ = explicit_family_1
        assert h.isclose(expected, 1e-15)

    def test_zero_and_antisymmetric_give_zero(self):
        assert first_order_perturbation(
            CoframeFamily(Matrix3Field.zero(), Matrix3Field.zero())
        ).isclose(Matrix3Field.zero())
        anti = m3([[ZERO, SIN(1), ZERO], [SIN(1, -1.0), ZERO, ZERO], [ZERO, ZERO, ZERO]])
        assert first_order_perturbation(CoframeFamily(anti, Matrix3Field.zero())).isclose(
            Matrix3Field.zero(), 1e-15
        )

    def test_rotation_block_quadratic_data(self, rotation_block_coframe):
        k = second_order_perturbation(rotation_block_coframe)
        expected = m3(
            [
                [ZERO, ZERO, ZERO],
                [ZERO, TrigPoly.constant(4.0), ZERO],
                [ZERO, ZERO, TrigPoly.constant(4.0)],
            ]
        )
        assert k.isclose(expected, 1e-14)

    def test_pure_second_order_inverts_definition(self):
        rng = np.random.default_rng(21)
        k_given = random_symmetric_field(rng)
        cf = CoframeFamily(Matrix3Field.zero(), k_given * 0.125)
        assert second_order_perturbation(cf).isclose(k_given, 1e-13)
        assert first_order_perturbation(cf).isclose(Matrix3Field.zero())

    def test_synthesized_family_round_trips(self, explicit_family_2):
        h, k = explicit_family_2
        cf = CoframeFamily.from_perturbation(h, k)
        assert first_order_perturbation(cf).isclose(h, 1e-13)
        assert second_order_perturbation(cf).isclose(k, 1e-13)

    def test_always_symmetric_real(self):
        rng = np.random.default_rng(22)
        for _ in range(5):
            cf = CoframeFamily(random_field(rng), random_field(rng))
            for mat in (first_order_perturbation(cf), second_order_perturbation(cf)):
                assert mat.is_symmetric(1e-13)
                assert mat.is_real(1e-13)


class TestMetricExpansion:
    def test_cubic_remainder_ratio(self):
        rng = np.random.default_rng(23)
        x = grid_points(64)
        for _ in range(5):
            cf = CoframeFamily(random_field(rng), random_field(rng))
            h = first_order_perturbation(cf)
            k = second_order_perturbation(cf)

            def residual(eps):
                model = (
                    Matrix3Field.identity() + h * eps + k * (eps * eps / 4.0)
                )
                coframe = metric_at(cf, eps, 64).coframe
                diff = coframe.transpose() @ coframe - model
                return np.max(np.abs(diff.sample(x)))

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
        E1 = m3([[TrigPoly.constant(-1.0), ZERO, ZERO], [ZERO] * 3, [ZERO] * 3])
        with pytest.raises(SingularCoframeError, match="eps=1.0"):
            arc_length(CoframeFamily(E1, Matrix3Field.zero()), 1.0)

    def test_matches_metric_snapshot_g11_bitwise(self):
        rng = np.random.default_rng(11)
        cf = CoframeFamily(random_field(rng, 3, 0.05), random_field(rng, 2, 0.05))
        for eps in (1e-4, -1e-4, 0.2):
            coframe = metric_at(cf, eps).coframe
            g = coframe.transpose() @ coframe
            g11 = g[0, 0].evaluate(grid_points(256)).real
            expected = float(np.sqrt(g11).sum() * 2.0 * np.pi / 256)
            assert arc_length(cf, eps) == expected

    def test_zero_mean_h11_stays_second_order(self, explicit_family_1):
        h, k = explicit_family_1
        cf = CoframeFamily.from_perturbation(h, k)
        for eps in (1e-2, 1e-3):
            assert abs(arc_length(cf, eps) - 2 * np.pi) <= 10.0 * eps**2
