import numpy as np
import pytest

from torusdirac import (
    CoframeFamily,
    DiracOperator,
    Matrix3Field,
    TrackingError,
    TrigPoly,
    UnderResolvedError,
    charge_conjugate,
    dirac_operator,
    eigenvalues,
    free_operator,
    galerkin_matrix,
    load_example,
    metric_at,
    spectrum_report,
    track_pair,
)
from torusdirac.galerkin import SpectrumReport, basis_spinor, default_grid

from conftest import assert_sigfigs, random_field, rotation_block_shift

# Reference eigenvalue tables for the two bundled coframe families,
# modes -2..2 at eps = 0.2, 0.1, 0.01.
ROTATION_TABLE = {
    0.2: [-2.02083, -1.02083, -0.0208333, 0.979167, 1.97917],
    0.1: [-2.00505, -1.00505, -0.00505051, 0.994949, 1.994950],
    0.01: [-2.00005, -1.00005, -0.000050005, 0.99995, 1.99995],
}
FIRST_ROW_TABLE = {
    0.2: [-2.10913, -1.05372, 0.00169489, 1.0571, 2.11252],
    0.1: [-2.02923, -1.01456, 0.000119453, 1.0148, 2.02947],
    0.01: [-2.0003, -1.00015, 1.24941e-8, 1.00015, 2.0003],
}


class TestBasis:
    def test_orthonormality(self):
        n = 128
        for i in (-2, 0, 3):
            for j in (-2, 0, 3):
                vi, vj = basis_spinor(i, "v", n), basis_spinor(j, "v", n)
                wi, wj = basis_spinor(i, "w", n), basis_spinor(j, "w", n)
                assert vi.inner(vj) == pytest.approx(float(i == j), abs=1e-14)
                assert wi.inner(wj) == pytest.approx(float(i == j), abs=1e-14)
                assert abs(vi.inner(wj)) <= 1e-14

    def test_unit_norm(self):
        assert basis_spinor(0, "v", 64).norm() == pytest.approx(1.0, abs=1e-14)

    def test_w_is_charge_conjugate_of_v(self):
        for i in (-1, 0, 2):
            v = basis_spinor(i, "v", 64)
            w = basis_spinor(i, "w", 64)
            assert (charge_conjugate(v) - w).norm() <= 1e-15


class TestAssembly:
    def test_flat_matrix_is_diagonal(self):
        gm = galerkin_matrix(free_operator(64), 2)
        expected = np.diag([-2, -2, -1, -1, 0, 0, 1, 1, 2, 2]).astype(complex)
        assert np.max(np.abs(gm.entries - expected)) <= 1e-13
        assert gm.herm_residual <= 1e-13

    def test_rotation_block_matrix_is_diagonal_shift(self, rotation_block_coframe):
        eps, m = 0.2, 5
        op = dirac_operator(metric_at(rotation_block_coframe, eps, 256))
        gm = galerkin_matrix(op, m)
        shift = rotation_block_shift(eps)
        diag = np.repeat(np.arange(-m, m + 1), 2) + shift
        assert np.max(np.abs(gm.entries - np.diag(diag.astype(complex)))) <= 1e-12

    def test_order_is_102_for_m_25(self, rotation_block_coframe):
        op = dirac_operator(metric_at(rotation_block_coframe, 0.1, default_grid(25)))
        gm = galerkin_matrix(op, 25)
        assert gm.order == 102
        assert gm.entries.shape == (102, 102)

    def test_row_index_map(self, rotation_block_coframe):
        op = dirac_operator(metric_at(rotation_block_coframe, 0.0, 256))
        gm = galerkin_matrix(op, 3)
        assert gm.row(-3, "v") == 0
        assert gm.row(-3, "w") == 1
        assert gm.row(0, "v") == 6
        assert gm.row(3, "w") == 13


class TestClosedForm:
    @pytest.mark.parametrize("name", ["example-galerkin-1", "example-galerkin-2"])
    def test_matches_quadrature_oracle(self, name):
        m, n = 25, default_grid(25)
        op = dirac_operator(metric_at(load_example(name).family(), 0.1, n))
        gm = galerkin_matrix(op, m)
        phis = [basis_spinor(i, kind, n) for i in range(-m, m + 1) for kind in ("v", "w")]
        images = [op.apply(phi) for phi in phis]
        oracle = np.array([[image.inner(phi) for image in images] for phi in phis])
        assert np.max(np.abs(gm.entries - oracle)) <= 1e-12

    def test_assembly_never_applies_operator(self, monkeypatch, first_row_coframe):
        def refuse(self, v):
            raise AssertionError("galerkin_matrix applied the operator")

        monkeypatch.setattr(DiracOperator, "apply", refuse)
        monkeypatch.setattr(DiracOperator, "__call__", refuse)
        op = dirac_operator(metric_at(first_row_coframe, 0.1, default_grid(25)))
        assert galerkin_matrix(op, 25).order == 102


class TestUnderResolved:
    def test_index_wrap_rejected(self):
        with pytest.raises(UnderResolvedError, match="cannot resolve m=16"):
            galerkin_matrix(free_operator(64), 16)
        assert galerkin_matrix(free_operator(65), 16).order == 66

    def test_aliasing_tail_rejected(self):
        fine = TrigPoly.cosine(100)
        zero = TrigPoly.zero()
        cf = CoframeFamily.linear(
            Matrix3Field([[fine, zero, zero], [zero, zero, zero], [zero, zero, zero]])
        )
        op = dirac_operator(metric_at(cf, 0.1, 256))
        with pytest.raises(UnderResolvedError, match="Fourier tail"):
            galerkin_matrix(op, 10)


class TestEigenvalues:
    def test_flat_spectrum(self):
        ev = eigenvalues(galerkin_matrix(free_operator(64), 3))
        expected = np.repeat(np.arange(-3, 4), 2)
        assert np.max(np.abs(ev - expected)) <= 1e-13

    def test_printed_value_rotation_family(self, rotation_block_coframe):
        rep = spectrum_report(rotation_block_coframe, 0.1, 25, modes=(1,))
        assert_sigfigs(rep.tracked[1], 0.994949, 6)

    def test_printed_value_first_row_family(self, first_row_coframe):
        rep = spectrum_report(first_row_coframe, 0.1, 25, modes=(1,))
        assert_sigfigs(rep.tracked[1], 1.0148, 4)

    def test_backward_stability_spot_check(self, first_row_coframe):
        op = dirac_operator(metric_at(first_row_coframe, 0.2, 256))
        gm = galerkin_matrix(op, 25)
        vals, vecs = np.linalg.eigh(gm.entries)
        scale = np.linalg.norm(gm.entries, 2)
        for idx in (0, gm.order // 2, gm.order - 1):
            residual = np.linalg.norm(gm.entries @ vecs[:, idx] - vals[idx] * vecs[:, idx])
            assert residual <= 1e-10 * scale


class TestTrackPair:
    def test_rotation_block_mode0(self, rotation_block_coframe):
        rep = spectrum_report(rotation_block_coframe, 0.2, 25)
        mean, gap = track_pair(rep, 0)
        assert_sigfigs(mean, -0.0208333, 6)
        assert gap < 1e-10

    def test_unperturbed_modes_are_exact(self, rotation_block_coframe):
        rep = spectrum_report(rotation_block_coframe, 0.0, 25)
        for n in (-20, -3, 0, 7, 20):
            mean, gap = track_pair(rep, n)
            assert mean == pytest.approx(n, abs=1e-12)
            assert gap <= 1e-12

    def test_first_row_family_tiny_shift(self, first_row_coframe):
        rep = spectrum_report(first_row_coframe, 0.01, 25)
        mean, _ = track_pair(rep, 0)
        assert_sigfigs(mean, 1.24941e-8, 4)

    def test_edge_mode_rejected(self, rotation_block_coframe):
        rep = spectrum_report(rotation_block_coframe, 0.1, 25)
        with pytest.raises(TrackingError, match="edge"):
            track_pair(rep, 21)

    def test_split_pair_rejected(self):
        # both within the cluster radius of mode 1, but not a Kramers pair
        ev = np.array([-1.0, -1.0, 0.0, 0.0, 0.95, 1.05, 2.0, 2.0])
        rep = SpectrumReport(eps=0.3, m=5, eigenvalues=ev)
        with pytest.raises(TrackingError, match="pairing tolerance"):
            track_pair(rep, 1)
        assert track_pair(rep, 0) == (0.0, 0.0)

    def test_pairs_derived_from_eigenvalues(self):
        ev = np.array([-2.5, -2.25, -1.0, -1.0, 0.0, 0.5, 1.0, 1.75, 2.0, 2.0, 3.0, 3.5])
        rep = SpectrumReport(eps=0.1, m=2, eigenvalues=ev)
        assert rep.pairs == [
            (-2.375, 0.25), (-1.0, 0.0), (0.25, 0.5), (1.375, 0.75), (2.0, 0.0), (3.25, 0.5)
        ]

    def test_full_printed_tables(self, rotation_block_coframe, first_row_coframe):
        for family, table, nsig in (
            (rotation_block_coframe, ROTATION_TABLE, 5),
            (first_row_coframe, FIRST_ROW_TABLE, 4),
        ):
            for eps, row in table.items():
                rep = spectrum_report(family, eps, 25)
                for n, printed in zip((-2, -1, 0, 1, 2), row):
                    mean, gap = track_pair(rep, n)
                    assert_sigfigs(mean, printed, nsig)
                    assert gap <= 1e-8


class TestSpectralProperties:
    def test_multiplicity_two_random_families(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            cf = CoframeFamily(random_field(rng), random_field(rng))
            rep = spectrum_report(cf, 0.05, 10)
            for _, gap in rep.pairs[2:-2]:  # skip truncation-edge clusters
                assert gap <= 1e-8

    def test_pair_gaps_tiny_even_at_truncation_edge(self, first_row_coframe):
        # the conjugation symmetry survives truncation, so even edge pairs
        # are exactly degenerate up to roundoff
        for eps in (0.2, 0.01):
            rep = spectrum_report(first_row_coframe, eps, 25)
            assert len(rep.eigenvalues) == 2 * (2 * 25 + 1)
            assert max(g for _, g in rep.pairs) <= 1e-8

    def test_truncation_stability(self, first_row_coframe):
        eps = 0.1
        tracked = {}
        for m in (25, 35):
            rep = spectrum_report(first_row_coframe, eps, m)
            tracked[m] = [track_pair(rep, n)[0] for n in (-2, -1, 0, 1, 2)]
        diff = np.max(np.abs(np.array(tracked[25]) - np.array(tracked[35])))
        assert diff <= 1e-9

    def test_small_eps_continuity(self, first_row_coframe):
        # mean(h_11) = 0 for this family, so deviation is O(eps^2)
        for eps in (1e-3, 1e-4):
            rep = spectrum_report(first_row_coframe, eps, 10)
            mean, _ = track_pair(rep, 1)
            assert abs(mean - 1) <= 10 * eps**2

    def test_small_eps_continuity_linear_rate(self, explicit_family_2):
        # mean(h_11) = 1 here: deviation is eps/2 + O(eps^2)
        cf = CoframeFamily.from_perturbation(*explicit_family_2)
        for eps in (1e-3, 1e-4):
            rep = spectrum_report(cf, eps, 10)
            mean, _ = track_pair(rep, 1)
            assert abs(mean - 1) <= eps
            assert abs((mean - 1) + eps / 2) <= 10 * eps**2

    def test_linear_term_cancellation(self):
        rng = np.random.default_rng(42)
        cf = CoframeFamily(random_field(rng), random_field(rng))

        def pair_sum(eps):
            rep = spectrum_report(cf, eps, 10)
            return track_pair(rep, 1)[0] + track_pair(rep, -1)[0]

        assert abs(pair_sum(0.04) / pair_sum(0.02)) >= 3.5
