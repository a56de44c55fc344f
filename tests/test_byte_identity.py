"""The lean assembly path against the reference formulas.

``dirac_operators`` builds every eps's operator of a sweep in one pass, and
``dirac_operator`` is that pass over one eps; ``spectrum_sweep`` solves the
pass's operators one eps at a time, a family with a half-turn pairing phase
by the paired solve of one block. Every operator and spectrum of a pass
must have the bits of the pass over its eps alone; a paired spectrum must
also have the bits of the solve of ``reference_paired_block``, read out of
the full matrix, and agree with the full solve of that matrix to rounding.
The pass forms det e, the frame column and the potential pointwise from
samples of E1 and E2, where the reference in conftest builds det e and the
potential numerator in coefficient arithmetic and inverts the coframe
samples: the two agree to rounding, within the bounds below.

An operator holds the half spectra of the real functions a1, a2, a3 and p,
and ``galerkin_matrix`` mirrors them, c_-k = conj(c_k), before it gathers
them through strided views, so each matrix equals its adjoint under ``==``
(a real weight times a complex entry may flip the sign of a zero, which
``==`` ignores). Its entries agree to rounding with the conftest gather,
which reads the full B^ and p^ through ``sliding_window_view`` and
symmetrizes the matrix afterwards.

The closed-form and operator routes build h, the first column of k, W1 and
W2 on stacks of coefficients, h and k by one ``perturbation._metric_data``. h and ``matmul_entry`` must reproduce, byte
for byte, the reference formulas in conftest: the same arithmetic spelled
out entry by entry. Signed zeros count, so eps = -0.0 and +0.0 are both
covered. A product of two stacks whose entries share one degree is one
``einsum`` over a Toeplitz view, and one of mixed degrees convolves entries
cut to their own degree, where the reference convolves each entry at its
given length; the closed form's sums are reductions over the harmonics,
where the reference adds one harmonic after another; the operator route
runs modes +1 and -1 in lockstep, and
``apply`` is one ``_field_product`` of [B^ | k/2 B^ + p^ I] and a stack of
spinors where the reference convolves each spinor row by row. The sums group
differently, so k, both routes, the product and ``apply`` agree with the
reference to rounding, within the bounds below.
A stack through ``apply``, ``inner`` or ``pseudoinverse`` gives, row for row,
what each of its spinors gives alone, under ``==``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusdirac import CoframeFamily, dirac_operator
from torusdirac import galerkin_matrix, load_config_file, load_example, perturbation_report
from torusdirac.config import EXAMPLE_NAMES
from torusdirac.dirac import DiracOperator, dirac_operators, inner
from torusdirac.galerkin import spectrum_sweep
from torusdirac.perturbation import _first_order_operator, _metric_data, pseudoinverse
from torusdirac.geometry import _half_turn_phase, default_grid
from torusdirac.trigpoly import _field_product, matmul_entry, resize_degree, stack_field

from conftest import coframe_fields, matmul, mixed_degree_fields, reference_apply, reference_closed_route
from conftest import EIGENVALUE_TOL, half_turn_families, reference_galerkin, reference_paired_block
from conftest import reference_h, reference_k, reference_operator_hats, reference_operator_route
from conftest import reference_product_entry, same_bytes, stacked

GOLDEN = Path(__file__).parent / "golden"
SEEDED = ("seeded-coframe-4", "seeded-perturbation-3", "cli-sweep-coframe-2", "cli-sweep-perturbation-2")
EPS_VALUES = (0.2, 0.1, 0.01, -0.1, 0.0, -0.0)
GRIDS = (256, 416)
# eps-lists of the sweeps: the fit grids, a table's eps and signed zeros
EPS_LISTS = (
    np.linspace(0.01, 0.08, 12),
    np.logspace(np.log10(0.01), np.log10(0.1), 6),
    (0.2, 0.1, 0.01),
    (0.0, -0.0, -0.1, 0.1),
)
SWEEP_TRUNCATIONS = (3, 25, 40, 64)
TRUNCATIONS = (0, 1, 3, 25, 40)  # 2m below and above the operator degree 63 at n = 256
LARGE_TRUNCATIONS = (64, 100)  # orders 258 and 402, on default_grid(m)
# |pass - reference| bounds on the coefficients of (a1, a2, a3) and p, and on the
# eigenvalues relative to max(1, |lambda|): a few times the worst case
# measured over the families and strategies of this file (see CHANGES.md);
# with the half spectra the worst cases were 4.4e-16, 7.2e-18 and 8.6e-14
# (EIGENVALUE_TOL, in conftest)
A_TOL = 2e-15
P_TOL = 3e-17
# |matrix - reference| relative to max(1, largest |entry|): the worst case
# measured was 3.0e-16 over these families and 300 random coframe draws
MATRIX_TOL = 1e-15
# |route - reference| relative to max(1, |reference|), and |apply - reference|
# relative to max(1, largest |reference coefficient|): the worst cases measured
# were 7.2e-15 (closed form) and 1.1e-14 (operator route) over 1,500 fixed
# draws of the three coframe strategies below and 4.8e-16 over 1,000 draws of
# test_apply_matches_reference; with ``apply`` one field product, 3.4e-16 over
# 1,000 draws. The route bound is relative to the value, not
# to its terms: 6,000 random draws reached 2.9e-14 (closed form) and 1.8e-14
# (operator route) on scaled families whose terms are ~100 times l2, and the
# operator route reached 1.05e-14 on one of them before the stacked products
ROUTE_TOL = 1e-14
APPLY_TOL = 2e-15
# |_field_product - reference| and |k - reference| relative to max(1, largest
# |reference coefficient|): the worst cases measured were 6.9e-18 over 3,000
# draws of test_field_product_matches_entry_sums and 5.6e-16 over 1,500
# draws of the three coframe strategies below
PRODUCT_TOL = 1e-17
K_TOL = 1e-15


def _families(names):
    families = {name: load_example(name).family() for name in EXAMPLE_NAMES}
    families.update({name: load_config_file(str(GOLDEN / f"{name}.cfg")).family() for name in names})
    return families


FAMILIES = _families(SEEDED)
ROUTE_FAMILIES = _families(sorted(path.stem for path in GOLDEN.glob("*.cfg")))
COEFFICIENTS = ("lambda1_plus", "lambda1_minus", "lambda2_plus", "lambda2_minus")


def assert_operator_close(op: DiracOperator, cf: CoframeFamily, eps: float, n: int) -> None:
    a_ref, p_ref = reference_operator_hats(cf, eps, n)
    assert op.a_hat.shape == a_ref.shape and op.p_hat.shape == p_ref.shape
    assert np.max(np.abs(op.a_hat - a_ref)) <= A_TOL, f"a^ differs at eps={eps!r}, n={n}"
    assert np.max(np.abs(op.p_hat - p_ref)) <= P_TOL, f"p^ differs at eps={eps!r}, n={n}"


def assert_operator_matches(cf: CoframeFamily, eps: float, n: int) -> None:
    assert_operator_close(dirac_operator(cf, eps, n), cf, eps, n)


def assert_sweep_operator_matches(cf: CoframeFamily, eps_values, n: int) -> None:
    ops = dirac_operators(cf, eps_values, n)
    assert len(ops) == len(eps_values)
    for eps, op in zip(eps_values, ops):
        alone = dirac_operator(cf, eps, n)
        assert same_bytes(op.a_hat, alone.a_hat), f"a^ differs from one eps at eps={eps!r}, n={n}"
        assert same_bytes(op.p_hat, alone.p_hat), f"p^ differs from one eps at eps={eps!r}, n={n}"
        assert_operator_close(op, cf, eps, n)


def assert_sweep_matches(cf: CoframeFamily, eps_values, m: int) -> None:
    reports = spectrum_sweep(cf, eps_values, m)
    assert [r.eps for r in reports] == [float(eps) for eps in eps_values]
    theta = _half_turn_phase(cf)
    for eps, report in zip(eps_values, reports):
        h = galerkin_matrix(dirac_operator(cf, eps, default_grid(m)), m)
        full = np.linalg.eigvalsh(h)
        alone = full if theta is None else np.repeat(np.linalg.eigvalsh(reference_paired_block(h, theta)), 2)
        assert report.m == m and report.tracked == {}
        assert same_bytes(report.eigenvalues, alone), f"eigenvalues differ from one eps at eps={eps!r}"
        drift = np.abs(report.eigenvalues - full) / np.maximum(1.0, np.abs(full))
        assert np.max(drift) <= EIGENVALUE_TOL, f"eigenvalues differ from the full solve at eps={eps!r}, m={m}"
        op = DiracOperator(*reference_operator_hats(cf, eps, default_grid(m)))
        expected = np.linalg.eigvalsh(reference_galerkin(op, m))
        drift = np.abs(report.eigenvalues - expected) / np.maximum(1.0, np.abs(expected))
        assert np.max(drift) <= EIGENVALUE_TOL, f"eigenvalues differ at eps={eps!r}, m={m}"


def assert_matrix_close(op, m: int) -> None:
    h = galerkin_matrix(op, m)
    entries = reference_galerkin(op, m)
    assert h.shape == entries.shape
    scale = max(1.0, float(np.max(np.abs(entries))))
    assert np.max(np.abs(h - entries)) <= MATRIX_TOL * scale, f"entries differ at m={m}"


def assert_exactly_hermitian(op, m: int) -> None:
    entries = galerkin_matrix(op, m)
    assert np.array_equal(entries, entries.conj().T), f"not Hermitian at m={m}"


def assert_h_bytes_and_routes_close(cf: CoframeFamily) -> None:
    # h is the one stack held byte for byte; k comes from a product that groups
    # its sums unlike the reference, so it is held within K_TOL, as both routes
    # are within ROUTE_TOL
    h, k = _metric_data(cf, 3)
    assert same_bytes(h, stacked(reference_h(cf))), "h differs"
    expected = stacked(reference_k(cf))[:, :1]  # the column of k that is built
    assert k.shape == expected.shape
    assert np.max(np.abs(k - expected)) <= K_TOL * max(1.0, float(np.max(np.abs(expected)))), "k differs"
    assert_route_close(cf, "closed_form", reference_closed_route)
    assert_operator_route_close(cf)


def assert_route_close(cf: CoframeFamily, route: str, reference) -> None:
    report = perturbation_report(cf, route)
    for name, expected in zip(COEFFICIENTS, reference(cf)):
        drift = abs(getattr(report, name) - expected) / max(1.0, abs(expected))
        assert drift <= ROUTE_TOL, f"{route} {name} differs by {drift:.2e}"


def assert_operator_route_close(cf: CoframeFamily) -> None:
    assert_route_close(cf, "operator", reference_operator_route)


@pytest.mark.parametrize("name", ROUTE_FAMILIES)
def test_routes_match_reference(name):
    assert_h_bytes_and_routes_close(ROUTE_FAMILIES[name])


@pytest.mark.parametrize("name", FAMILIES)
def test_operator_matches_reference(name):
    for eps in EPS_VALUES:
        for n in GRIDS:
            assert_operator_matches(FAMILIES[name], eps, n)


@pytest.mark.parametrize("name", FAMILIES)
def test_operator_pass_matches_reference(name):
    for eps_values in EPS_LISTS:
        for n in GRIDS:
            assert_sweep_operator_matches(FAMILIES[name], eps_values, n)


@pytest.mark.parametrize("m", SWEEP_TRUNCATIONS)
@pytest.mark.parametrize("name", ["example-galerkin-1", "seeded-coframe-4", "cli-sweep-perturbation-2"])
def test_sweep_matches_reference(name, m):
    assert_sweep_matches(FAMILIES[name], EPS_LISTS[-1], m)


@pytest.mark.parametrize("name", FAMILIES)
def test_matrix_matches_reference(name):
    for eps in (0.1, -0.0):
        op = dirac_operator(FAMILIES[name], eps, 256)
        for m in TRUNCATIONS:
            assert_matrix_close(op, m)
            assert_exactly_hermitian(op, m)


# the name dates from the row strips of an in-place symmetrization; the test
# covers the orders past the operator degree, on default_grid(m)
@pytest.mark.parametrize("name", FAMILIES)
def test_matrix_matches_reference_in_many_strips(name):
    for m in LARGE_TRUNCATIONS:
        for eps in (0.1, -0.0):
            op = dirac_operator(FAMILIES[name], eps, default_grid(m))
            assert_matrix_close(op, m)
            assert_exactly_hermitian(op, m)


# ----------------------------------------------------------------------
# random coframes: of trig degree 1-2 (``coframe_fields``), and with
# entries that each have their own trig degree 0-3 (``mixed_degree_fields``)
# ----------------------------------------------------------------------

COFRAMES = st.builds(CoframeFamily, coframe_fields(), coframe_fields())
HALF_TURN_COFRAMES = half_turn_families().map(lambda drawn: drawn[0])
MIXED_COFRAMES = st.builds(CoframeFamily, mixed_degree_fields(), mixed_degree_fields())
# entries up to 1e-4 .. 100 in size, one size per coframe
SCALED_FIELDS = st.integers(-4, 2).flatmap(
    lambda e: mixed_degree_fields(st.floats(-(10.0**e), 10.0**e))
)
SCALED_COFRAMES = st.builds(CoframeFamily, SCALED_FIELDS, SCALED_FIELDS)
SIGNED_EPS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-0.2, 0.2))


EPS_LIST = st.lists(SIGNED_EPS, min_size=1, max_size=6)
# entries of their own degree 0-3, with signed zeros among the coefficients,
# or all of one degree 1-2, which the product forms in one einsum
PRODUCT_FIELDS = st.one_of(
    mixed_degree_fields(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-0.1, 0.1))), coframe_fields()
)


class TestRandomCoframes:
    @settings(max_examples=40)
    @given(st.one_of(COFRAMES, MIXED_COFRAMES), EPS_LIST, st.sampled_from(GRIDS))
    def test_operator_pass_matches_reference(self, cf, eps_values, n):
        assert_sweep_operator_matches(cf, eps_values, n)

    @settings(max_examples=15, deadline=None)
    @given(st.one_of(COFRAMES, MIXED_COFRAMES), EPS_LIST, st.sampled_from(SWEEP_TRUNCATIONS))
    def test_sweep_matches_reference(self, cf, eps_values, m):
        assert_sweep_matches(cf, eps_values, m)

    @settings(max_examples=40)
    @given(MIXED_COFRAMES, SIGNED_EPS, st.sampled_from(GRIDS))
    def test_operator_matches_reference(self, cf, eps, n):
        assert_operator_matches(cf, eps, n)

    @settings(max_examples=25)
    @given(MIXED_COFRAMES, SIGNED_EPS, st.sampled_from(TRUNCATIONS))
    def test_matrix_matches_reference(self, cf, eps, m):
        assert_matrix_close(dirac_operator(cf, eps, 256), m)

    @settings(max_examples=25)
    @given(MIXED_COFRAMES, SIGNED_EPS, st.sampled_from(TRUNCATIONS + LARGE_TRUNCATIONS))
    def test_gathered_matrix_is_exactly_hermitian(self, cf, eps, m):
        assert_exactly_hermitian(dirac_operator(cf, eps, default_grid(m)), m)

    @settings(max_examples=25)
    @given(st.one_of(COFRAMES, MIXED_COFRAMES, HALF_TURN_COFRAMES), EPS_LIST, st.sampled_from(SWEEP_TRUNCATIONS))
    def test_sweep_matrices_are_exactly_hermitian(self, cf, eps_values, m):
        # every matrix that spectrum_sweep solves, the gathered one or the
        # paired block of a half-turn family, recorded on its way to eigvalsh
        solved, eigvalsh = [], np.linalg.eigvalsh

        def recorded(entries):
            solved.append(entries)
            return eigvalsh(entries)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np.linalg, "eigvalsh", recorded)
            spectrum_sweep(cf, eps_values, m)
        assert len(solved) == len(eps_values)
        assert all(np.array_equal(entries, entries.conj().T) for entries in solved)

    @settings(max_examples=25)
    @given(mixed_degree_fields(), mixed_degree_fields())
    def test_matmul_entry_matches_trigpoly_sum(self, x, y):
        for a in range(3):
            for b in range(3):
                assert same_bytes(matmul_entry(x, y, a, b), reference_product_entry(x, y, a, b))

    @settings(max_examples=40)
    @given(PRODUCT_FIELDS, PRODUCT_FIELDS, st.integers(1, 3), st.integers(1, 3))
    def test_field_product_matches_entry_sums(self, x, y, rows, cols):
        # the blocks x[:rows] @ y[:, :cols], as the routes form them, at the
        # degree its terms reach: at most that of the two stacks together
        top = (stacked(x).shape[-1] + stacked(y).shape[-1]) // 2 - 1
        product = _field_product(stacked(x)[:rows], stacked(y)[:, :cols])
        assert product.shape[:2] == (rows, cols) and product.shape[-1] <= 2 * top + 1
        product, expected = resize_degree(product, top), stack_field(matmul(x, y), top)[:rows, :cols]
        assert np.max(np.abs(product - expected)) <= PRODUCT_TOL * max(1.0, float(np.max(np.abs(expected))))

    @settings(max_examples=40)
    @given(SCALED_COFRAMES)
    def test_routes_match_reference(self, cf):
        assert_h_bytes_and_routes_close(cf)

    @settings(max_examples=25)
    @given(MIXED_COFRAMES, st.sampled_from([0.0, 0.1]), st.integers(0, 4), st.integers(0, 2**32 - 1))
    def test_apply_matches_reference(self, cf, eps, degree, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=(2, 2 * degree + 1)) + 1j * rng.normal(size=(2, 2 * degree + 1))
        op = dirac_operator(cf, eps, 256)
        expected = reference_apply(op, v)
        assert op.apply(v).shape == expected.shape
        scale = max(1.0, float(np.max(np.abs(expected))))
        assert np.max(np.abs(op.apply(v) - expected)) <= APPLY_TOL * scale

    @settings(max_examples=40)
    @given(st.one_of(COFRAMES, MIXED_COFRAMES))
    def test_operator_route_matches_reference(self, cf):
        # the route on bare arrays against the conftest arithmetic, value by value
        assert_operator_route_close(cf)

    @settings(max_examples=25)
    @given(st.one_of(COFRAMES, MIXED_COFRAMES), st.sampled_from([0.0, 0.1]), st.integers(0, 4),
           st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_stacks_match_rows(self, cf, eps, degree, count, seed):
        rng = np.random.default_rng(seed)
        shape = (count, 2, 2 * degree + 1)
        stack = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for op in (dirac_operator(cf, eps, 256), _first_order_operator(_metric_data(cf, 3)[0])):
            assert np.array_equal(op.apply(stack), [op.apply(c) for c in stack])
            assert np.array_equal(op.apply(stack[None]), [op.apply(stack)])
        # spinors of degree 4 - degree against the stack, every pair at once
        other = rng.normal(size=(3, 2, 9 - 2 * degree)) + 1j * rng.normal(size=(3, 2, 9 - 2 * degree))
        assert np.array_equal(inner(stack[:, None], other), [[inner(u, v) for v in other] for u in stack])
        modes = rng.integers(-3, 4, size=count)
        for c, n in zip(stack, modes):  # into the domain: no content at the kernel's harmonics ±n
            if abs(n) <= degree:
                c[:, [degree + n, degree - n]] = 0
        expected = [pseudoinverse(c, int(n)) for c, n in zip(stack, modes)]
        assert np.array_equal(pseudoinverse(stack, modes), expected)

