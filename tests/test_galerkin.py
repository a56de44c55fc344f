import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusdirac import (
    CoframeFamily,
    DiracOperator,
    NumericalContractError,
    SingularCoframeError,
    TrackingError,
    UnderResolvedError,
    dirac_operator,
    eigenvalues,
    fit_expansion,
    galerkin_matrix,
    load_example,
    spectrum_report,
    track_pair,
)
from torusdirac import dirac, galerkin
from torusdirac.config import EXAMPLE_NAMES
from torusdirac.dirac import dirac_operators, inner
from torusdirac.galerkin import PAIRING_TOL, SpectrumReport, basis_spinor, spectrum_sweep
from torusdirac.geometry import default_grid

from conftest import COS, ZERO, ZERO_FIELD, assert_sigfigs, charge_conjugate, coframe_fields, m3
from conftest import free_operator, norm, random_field, rotation_block_shift

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
    @pytest.mark.parametrize("kind", ["u", "V", ""])
    def test_rejects_an_unknown_kind(self, kind):
        with pytest.raises(ValueError, match=f"^kind must be 'v' or 'w', got {kind!r}$"):
            basis_spinor(1, kind)

    def test_orthonormality(self):
        for i in (-2, 0, 3):
            for j in (-2, 0, 3):
                vi, vj = basis_spinor(i, "v"), basis_spinor(j, "v")
                wi, wj = basis_spinor(i, "w"), basis_spinor(j, "w")
                assert inner(vi, vj) == pytest.approx(float(i == j), abs=1e-14)
                assert inner(wi, wj) == pytest.approx(float(i == j), abs=1e-14)
                assert abs(inner(vi, wj)) <= 1e-14

    def test_unit_norm(self):
        assert norm(basis_spinor(0, "v")) == pytest.approx(1.0, abs=1e-14)

    def test_w_is_charge_conjugate_of_v(self):
        for i in (-1, 0, 2):
            v = basis_spinor(i, "v")
            w = basis_spinor(i, "w")
            assert norm(charge_conjugate(v) - w) <= 1e-15


class TestAssembly:
    def test_flat_matrix_is_diagonal(self):
        h = galerkin_matrix(free_operator(), 2)
        expected = np.diag([-2, -2, -1, -1, 0, 0, 1, 1, 2, 2]).astype(complex)
        assert np.max(np.abs(h - expected)) <= 1e-13
        assert np.array_equal(h, h.conj().T)

    def test_rotation_block_matrix_is_diagonal_shift(self, rotation_block_coframe):
        eps, m = 0.2, 5
        op = dirac_operator(rotation_block_coframe, eps, 256)
        h = galerkin_matrix(op, m)
        shift = rotation_block_shift(eps)
        diag = np.repeat(np.arange(-m, m + 1), 2) + shift
        assert np.max(np.abs(h - np.diag(diag.astype(complex)))) <= 1e-12

    def test_order_is_102_for_m_25(self, rotation_block_coframe):
        op = dirac_operator(rotation_block_coframe, 0.1, default_grid(25))
        h = galerkin_matrix(op, 25)
        assert isinstance(h, np.ndarray) and h.dtype == complex
        assert h.shape == (102, 102)
        assert not h.flags.writeable

    def test_assembly_peaks_near_one_matrix_of_memory(self):
        # the matrix plus a few strips of temporaries; symmetrizing the whole
        # matrix out of place needs 3.6 matrices
        op = dirac_operator(load_example("example-galerkin-2").family(), 0.1, default_grid(200))
        tracemalloc.start()
        try:
            h = galerkin_matrix(op, 200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * h.nbytes


class TestPairedSolve:
    """A half-turn family's solve gathers one block of order 2m+1 from the
    operator and never forms the full matrix of order 2(2m+1)."""

    def test_no_full_matrix_is_formed(self, monkeypatch):
        def refuse(op, m):
            raise AssertionError("galerkin_matrix called for a half-turn family")

        monkeypatch.setattr(galerkin, "galerkin_matrix", refuse)
        cf = load_example("example-galerkin-2").family()
        assert [r.eigenvalues.shape for r in spectrum_sweep(cf, (0.2, 0.1), 25)] == [(102,), (102,)]
        assert set(spectrum_report(cf, 0.1, 25, modes=(-1, 0, 1)).tracked) == {-1, 0, 1}
        assert set(fit_expansion(cf, (-1, 0, 1), order=4)) == {-1, 0, 1}

    def test_report_peaks_below_half_a_full_matrix(self):
        m = 200
        cf = load_example("example-galerkin-2").family()
        tracemalloc.start()
        try:
            spectrum_report(cf, 0.1, m, modes=(0,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 16 * (2 * (2 * m + 1)) ** 2


class TestClosedForm:
    @pytest.mark.parametrize("name", ["example-galerkin-1", "example-galerkin-2"])
    def test_matches_quadrature_oracle(self, name):
        m, n = 25, default_grid(25)
        op = dirac_operator(load_example(name).family(), 0.1, n)
        h = galerkin_matrix(op, m)
        phis = [basis_spinor(i, kind) for i in range(-m, m + 1) for kind in ("v", "w")]
        images = [op.apply(phi) for phi in phis]
        oracle = np.array([[inner(image, phi) for image in images] for phi in phis])
        assert np.max(np.abs(h - oracle)) <= 1e-12

    def test_assembly_never_applies_operator(self, monkeypatch, first_row_coframe):
        def refuse(self, v):
            raise AssertionError("galerkin_matrix applied the operator")

        monkeypatch.setattr(DiracOperator, "apply", refuse)
        monkeypatch.setattr(DiracOperator, "__call__", refuse)
        op = dirac_operator(first_row_coframe, 0.1, default_grid(25))
        assert galerkin_matrix(op, 25).shape[0] == 102


class TestUnderResolved:
    def test_coarse_grid_matches_fine_spectrum(self):
        # 64 points keep |k| <= 15, so the m = 16 gather zero-pads from 16 to 32
        worst = 0.0
        for name in EXAMPLE_NAMES:
            cf = load_example(name).family()
            for eps in (0.1, 0.2):
                coarse = dirac_operator(cf, eps, 64)
                fine = dirac_operator(cf, eps, 256)
                assert coarse.degree == 15
                diff = eigenvalues(galerkin_matrix(coarse, 16)) - eigenvalues(galerkin_matrix(fine, 16))
                worst = max(worst, float(np.max(np.abs(diff))))
        assert worst <= 1e-12

    def test_aliasing_tail_rejected(self):
        fine = COS(100)
        cf = CoframeFamily(m3([[fine, ZERO, ZERO], [ZERO, ZERO, ZERO], [ZERO, ZERO, ZERO]]), ZERO_FIELD)
        with pytest.raises(UnderResolvedError, match="Fourier tail"):
            dirac_operator(cf, 0.1, 256)

    @pytest.mark.parametrize("k", [256, 250])
    def test_coframe_harmonic_past_band_counts_as_aliasing(self, k):
        # sampled on 256 points, cos(k x) folds to frequency 256 - k <= 63,
        # inside the kept band, where no Fourier tail of B or p shows it
        fine = COS(k, 0.5)
        cf = CoframeFamily(m3([[fine, ZERO, ZERO], [ZERO, ZERO, ZERO], [ZERO, ZERO, ZERO]]), ZERO_FIELD)
        # the folded coefficient is eps * 0.25 = 5.00e-02
        with pytest.raises(UnderResolvedError, match="Fourier tail 5.00e-02"):
            dirac_operator(cf, 0.2, default_grid(10))


# det e = 1 + eps cos x: singular for |eps| >= 1, and at eps = 0.99 its
# inverse has a Fourier tail of ~1e-4 past the band that 256 points keep
WAVE = CoframeFamily(m3([[COS(1), ZERO, ZERO], [ZERO, ZERO, ZERO], [ZERO, ZERO, ZERO]]), ZERO_FIELD)
# the same with a coframe harmonic past that band, which every eps != 0 fails first
PAST_BAND = CoframeFamily(
    m3([[COS(1), ZERO, ZERO], [ZERO, ZERO, COS(70, 0.01)], [ZERO, ZERO, ZERO]]), ZERO_FIELD
)
FAILING_SWEEPS = [
    (WAVE, (0.1, 0.99, 1.5)),  # a tail after the inversion ahead of a later singular eps
    (WAVE, (0.1, 1.5, 0.99)),
    (WAVE, (1.5, 0.99)),
    (WAVE, (0.99, 2.0)),
    (WAVE, (-0.5, -1.0, 0.3)),
    (WAVE, np.array([0.2, -0.0, 1.5, 3.0])),
    (WAVE, np.linspace(0.9, 1.2, 4)),
    (PAST_BAND, (0.0, -0.0, 0.1)),
    (PAST_BAND, (-0.0, 1.5)),  # the coframe tail is checked before det e
    (PAST_BAND, (0.0, 0.99)),
]


def _raised(build) -> tuple[type, str]:
    with pytest.raises(NumericalContractError) as info:
        build()
    return type(info.value), str(info.value)


class TestOperatorPass:
    """One pass over an eps-list raises what a loop over it raises."""

    @pytest.mark.parametrize("cf,eps_values", FAILING_SWEEPS)
    def test_raises_what_the_loop_raises(self, cf, eps_values):
        expected = _raised(lambda: [dirac_operator(cf, eps, 256) for eps in eps_values])
        assert _raised(lambda: dirac_operators(cf, eps_values, 256)) == expected

    @pytest.mark.parametrize("cf,eps_values", FAILING_SWEEPS)
    def test_sweep_raises_what_the_loop_raises(self, cf, eps_values, monkeypatch):
        expected = _raised(lambda: [spectrum_report(cf, eps, 25) for eps in eps_values])
        built = []
        monkeypatch.setattr(galerkin, "galerkin_matrix", lambda op, m: built.append(m))
        monkeypatch.setattr(galerkin, "_paired_block", lambda op, m, theta: built.append(m))
        assert _raised(lambda: spectrum_sweep(cf, eps_values, 25)) == expected
        assert built == []  # the pass fails before any matrix is built

    def test_first_failure_by_kind(self):
        assert _raised(lambda: dirac_operators(WAVE, (0.1, 0.99, 1.5), 256))[0] is UnderResolvedError
        kind, message = _raised(lambda: dirac_operators(WAVE, (0.1, 1.5, 0.99), 256))
        assert kind is SingularCoframeError and "eps=1.5" in message
        kind, message = _raised(lambda: dirac_operators(PAST_BAND, (-0.0, 1.5), 256))
        assert kind is UnderResolvedError and "Fourier tail" in message

    @pytest.mark.parametrize(
        "cf,eps_values", [(WAVE, (0.1, 0.2, 1.5, 0.3)), (WAVE, (0.1, 0.99, 1.5, 0.2)), (WAVE, (1.5, 0.1)),
                          (WAVE, (0.1, 0.2)), (PAST_BAND, (0.0, -0.0, 0.1))],
    )
    def test_pass_runs_no_inverse_or_convolution(self, cf, eps_values, monkeypatch):
        # every eps comes from one sample of E1 and E2: no frame is inverted,
        # no coframe, det e or numerator is built in coefficients, and the
        # grid is evaluated once per pass, by one inverse real FFT
        def refuse(*args, **kwargs):
            raise AssertionError("the operator pass built a coframe, det e or inverse per eps")

        samples, irfft = [], np.fft.irfft

        def sample_once(*args, **kwargs):
            if samples:
                raise AssertionError("the operator pass sampled the coframe twice")
            samples.append(args)
            return irfft(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "inv", refuse)
        monkeypatch.setattr(np, "convolve", refuse)
        monkeypatch.setattr(np.fft, "irfft", sample_once)
        try:
            assert len(dirac_operators(cf, eps_values, 256)) == len(eps_values)
        except NumericalContractError:
            pass

    def test_passing_pass_runs_no_check_per_eps(self, monkeypatch):
        # every check runs once over the stacks and no error is built; each
        # operator's own constructor checks only its shapes, finiteness and c_0
        def refuse(*args):
            raise AssertionError("a check ran for one eps of a passing pass")

        raise_first, shapes = dirac.raise_first, []

        def stacked_only(checks):
            shapes.extend(np.shape(fails) for fails, _ in checks)
            raise_first([(fails, refuse) for fails, _ in checks])

        monkeypatch.setattr(dirac, "raise_first", stacked_only)
        cf = load_example("example-galerkin-2").family()
        ops = dirac_operators(cf, np.linspace(0.01, 0.08, 12), 256)
        assert shapes == [(12,)] * 3  # the coframe tail, then det e and the FFT tail
        assert len(ops) == 12
        assert all(not (op.a_hat.flags.writeable or op.p_hat.flags.writeable) for op in ops)
        assert all(op.a_hat.flags.c_contiguous and op.a_hat.shape == (3, 64) for op in ops)

    def test_empty_list(self):
        assert dirac_operators(WAVE, (), 256) == []
        assert spectrum_sweep(WAVE, (), 3) == []


class TestEigenvalues:
    @pytest.mark.parametrize("name,order", [("example-galerkin-2", 51), ("example-explicit-2", 102)])
    def test_every_layout_solves_through_eigenvalues(self, name, order, monkeypatch):
        # one call per eps: the half-size block of a half-turn family, the
        # full matrix of a generic one
        orders, solve = [], galerkin.eigenvalues

        def recorded(h):
            orders.append(h.shape[0])
            return solve(h)

        monkeypatch.setattr(galerkin, "eigenvalues", recorded)
        spectrum_sweep(load_example(name).family(), (0.2, 0.1, 0.01), 25)
        assert orders == [order] * 3

    def test_flat_spectrum(self):
        ev = eigenvalues(galerkin_matrix(free_operator(), 3))
        expected = np.repeat(np.arange(-3, 4), 2)
        assert np.max(np.abs(ev - expected)) <= 1e-13

    def test_printed_value_rotation_family(self, rotation_block_coframe):
        rep = spectrum_report(rotation_block_coframe, 0.1, 25, modes=(1,))
        assert_sigfigs(rep.tracked[1], 0.994949, 6)

    def test_tracked_is_read_only(self, rotation_block_coframe):
        # an assignment had made the report disagree with its own eigenvalues
        rep = spectrum_report(rotation_block_coframe, 0.1, 5, modes=(1,))
        with pytest.raises(TypeError):
            rep.tracked[1] = 99.0
        assert rep.tracked == {1: track_pair(rep, 1)[0]}
        moved = dataclasses.replace(rep, tracked={**rep.tracked, 1: 99.0})
        assert moved.tracked == {1: 99.0} and rep.tracked[1] != 99.0
        source = {}
        held = SpectrumReport(eps=0.1, m=5, eigenvalues=rep.eigenvalues, tracked=source)
        source[1] = 99.0
        assert held.tracked == {}

    def test_printed_value_first_row_family(self, first_row_coframe):
        rep = spectrum_report(first_row_coframe, 0.1, 25, modes=(1,))
        assert_sigfigs(rep.tracked[1], 1.0148, 4)

    def test_backward_stability_spot_check(self, first_row_coframe):
        op = dirac_operator(first_row_coframe, 0.2, 256)
        h = galerkin_matrix(op, 25)
        vals, vecs = np.linalg.eigh(h)
        scale = np.linalg.norm(h, 2)
        order = h.shape[0]
        for idx in (0, order // 2, order - 1):
            residual = np.linalg.norm(h @ vecs[:, idx] - vals[idx] * vecs[:, idx])
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

    def test_third_eigenvalue_inside_cluster_radius_rejected(self):
        # a Kramers pair at 0.9 and another at 1.2, both within 0.4 of mode 1
        ev = np.array([-1.0, -1.0, 0.0, 0.0, 0.9, 0.9, 1.2, 1.2, 2.0, 2.0])
        rep = SpectrumReport(eps=0.3, m=5, eigenvalues=ev)
        with pytest.raises(TrackingError, match="third eigenvalue"):
            track_pair(rep, 1)
        assert track_pair(rep, 0) == (0.0, 0.0)
        assert track_pair(rep, 2) == (2.0, 0.0)

    def test_two_eigenvalue_spectrum_has_no_third(self):
        rep = SpectrumReport(eps=0.1, m=0, eigenvalues=np.array([0.25, 0.25]))
        assert track_pair(rep, 0) == (0.25, 0.0)

    def test_pairs_derived_from_eigenvalues(self):
        ev = np.array([-2.5, -2.25, -1.0, -1.0, 0.0, 0.5, 1.0, 1.75, 2.0, 2.0, 3.0, 3.5])
        ev = SpectrumReport(eps=0.1, m=2, eigenvalues=ev).eigenvalues
        assert ((ev[0::2] + ev[1::2]) / 2).tolist() == [-2.375, -1.0, 0.25, 1.375, 2.0, 3.25]
        assert (ev[1::2] - ev[0::2]).tolist() == [0.25, 0.0, 0.5, 0.75, 0.0, 0.5]

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
            ev = spectrum_report(cf, 0.05, 10).eigenvalues
            for gap in (ev[1::2] - ev[0::2])[2:-2]:  # skip truncation-edge clusters
                assert gap <= 1e-8

    def test_pair_gaps_tiny_even_at_truncation_edge(self, first_row_coframe):
        # the conjugation symmetry survives truncation, so even edge pairs
        # are exactly degenerate up to roundoff
        for eps in (0.2, 0.01):
            ev = spectrum_report(first_row_coframe, eps, 25).eigenvalues
            assert len(ev) == 2 * (2 * 25 + 1)
            assert max(ev[1::2] - ev[0::2]) <= 1e-8

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


# ----------------------------------------------------------------------
# properties over random real coframes
# ----------------------------------------------------------------------

COFRAMES = st.builds(CoframeFamily, coframe_fields(), coframe_fields())
EPS = st.floats(0.01, 0.2)


@st.composite
def spinors(draw) -> np.ndarray:
    """Spinor of trig degree 0-4 with complex coefficients of size <= 1."""
    size = 2 * draw(st.integers(0, 4)) + 1
    part = st.lists(st.floats(-1.0, 1.0), min_size=2 * size, max_size=2 * size)
    re, im = np.array(draw(part)).reshape(2, size), np.array(draw(part)).reshape(2, size)
    return re + 1j * im


class TestRandomCoframeProperties:
    @settings(max_examples=30)
    @given(COFRAMES, EPS, spinors())
    def test_charge_conjugation_commutes_with_operator(self, cf, eps, v):
        # the Kramers pairing of the spectrum: C commutes with W
        op = dirac_operator(cf, eps, 256)
        defect = norm(op.apply(charge_conjugate(v)) - charge_conjugate(op.apply(v)))
        assert defect <= 1e-10

    @settings(max_examples=30)
    @given(COFRAMES, EPS, spinors(), spinors())
    def test_operator_is_symmetric_on_random_spinors(self, cf, eps, u, v):
        # <W u, v> = <u, W v>: W is symmetric on trig polynomials, to rounding
        op = dirac_operator(cf, eps, 256)
        assert abs(inner(op.apply(u), v) - inner(u, op.apply(v))) <= 1e-12

    @settings(max_examples=40)
    @given(COFRAMES, EPS)
    def test_tracked_values_independent_of_truncation(self, cf, eps):
        modes = range(-2, 3)
        fine, coarse = (spectrum_report(cf, eps, m, modes=modes).tracked for m in (25, 20))
        for n in modes:
            assert abs(fine[n] - coarse[n]) <= 1e-12

    @settings(max_examples=30)
    @given(COFRAMES, EPS)
    def test_galerkin_eigenvalues_pair(self, cf, eps):
        ev = eigenvalues(galerkin_matrix(dirac_operator(cf, eps, 256), 10))
        assert np.max(np.abs(ev[1::2] - ev[0::2])) <= PAIRING_TOL
