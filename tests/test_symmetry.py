"""Orientation reversal, translation, the half turn and the rotation of the
(x^2, x^3) plane as exact laws of the coefficient routes and of the Galerkin
spectra.

The operator depends on x^1 alone. Reversing the orientation, x^1 -> -x^1,
maps a coframe family E(x) to P E(-x) P with P = diag(-1, 1, 1) acting on
the rows and columns of E1 and E2, and it changes the sign of the Dirac
operator (Friedrich, *Dirac Operators in Riemannian Geometry*, AMS Graduate
Studies in Mathematics 25, 2000). The reversed family's spectrum is the
negated spectrum at every eps, so the expansion coefficients of the
eigenvalues +1 and -1 trade places with a sign, c_j'(+-1) = -c_j(-+1), and
the quadratic asymmetry c2(+1) + c2(-1) changes sign. Translation,
E(x) -> E(x + a), maps the coefficients c_k to c_k e^{ika} and is an
isometry, so it leaves the spectrum unchanged. So do the half turn
E(x) -> S E(-x) S, S = diag(-1, -1, 1), which keeps the orientation, and the
rotation E -> R E R^T of the (x^2, x^3) plane, which fixes x^1: under all
three the expansion coefficients of +1 and -1 stay as they are. The laws
need no reference value, so they guard random families, on the coefficient
routes the stacked products and sums of their arithmetic, and on
``spectrum_sweep`` the bits of the Galerkin matrix. The ``galerkin_fit``
route, whose fits round at a far coarser level, is held to the same laws on
the bundled examples, within bounds of its own.

A family that is itself invariant under the half turn S, or under
S' = diag(-1, 1, -1), splits the Galerkin matrix into two conjugate blocks
of order 2m+1, each with one eigenvalue of every Kramers pair; the exact
test ``geometry._half_turn_phase`` finds it, and ``spectrum_sweep`` then
solves one block. The tests below hold the test to the families built with
and without the law, and the paired spectrum to the full solve of the same
matrix.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusdirac import CoframeFamily, dirac_operator, galerkin_matrix, load_config_file, load_example
from torusdirac import perturbation_report
from torusdirac.config import EXAMPLE_NAMES
from torusdirac.galerkin import _paired_eigenvalues, spectrum_sweep
from torusdirac.geometry import _half_turn_phase, default_grid
from torusdirac.trigpoly import field_degree, stack_field

from conftest import EIGENVALUE_TOL, MINUS_I_SIGNS, P_SIGNS, coframe_fields, half_turn_families
from conftest import mixed_degree_fields, parity_families, same_bytes

ROUTES = ("closed_form", "operator")
PAIRS = (("lambda1_plus", "lambda1_minus"), ("lambda2_plus", "lambda2_minus"))

# One ulp of 1, relative to max(1, |c|). Over 1,000 random families from
# both strategies the worst deviation was 2.8e-17 (closed form) and 1.4e-17
# (operator route); on the bundled examples the law holds exactly.
LAW_TOL = np.finfo(float).eps
# Spectra of spectrum_sweep at m = 25, relative to max(1, |lambda|): over the
# four examples and 400 random families from both strategies, at eps 0.15,
# -0.1 and 0.05, the worst deviation was 4.0e-14 (reversal) and 3.7e-14
# (translation); in a second such run, with the examples at the shifts and
# angles of the tests, 2.0e-14 (half turn, a random family) and 3.1e-14
# (rotation, an example), so the bound keeps a factor 5 over every law.
SPECTRUM_LAW_TOL = 2e-13
SWEEP_EPS = (0.15, -0.1, 0.05)
# Coefficients kept by translation, half turn and rotation, relative to
# max(1, |c|): over 1,000 random families from both strategies the worst
# deviation was 4.2e-17 (translation), 0 (half turn) and 1.1e-16 (rotation,
# which rounds E1 and E2 themselves), and 1.1e-16 (rotation) on the examples.
KEPT_LAW_TOL = 2 * np.finfo(float).eps
# The galerkin_fit route under all four laws, relative to max(1, |c|), for
# (c1, c2): on the four examples at the shifts and angles of the tests the
# worst deviation was 8.5e-12 and 1.2e-9 (kept laws) and 2.9e-12 and 4.6e-10
# (reversal; 5.7e-10 in the asymmetry sum), so the bounds keep a factor 8
# over every law and stay far below the fit gates of asympt, 1e-6 and 1e-4.
FIT_LAW_TOL = (1e-10, 1e-8)

FAMILIES = st.one_of(
    st.builds(CoframeFamily, coframe_fields(), coframe_fields()),
    st.builds(CoframeFamily, mixed_degree_fields(), mixed_degree_fields()),
)


def reversed_orientation(cf: CoframeFamily) -> CoframeFamily:
    """The family P E(-x) P: each coefficient array reversed (c_k -> c_-k),
    and entry (a, b) negated when exactly one of a, b is 0."""

    def flip(field):
        return tuple(
            tuple(-c[::-1] if (a == 0) != (b == 0) else c[::-1] for b, c in enumerate(row))
            for a, row in enumerate(field)
        )

    return CoframeFamily(flip(cf.E1), flip(cf.E2))


def translated(cf: CoframeFamily, a: float) -> CoframeFamily:
    """The family E(x + a): each coefficient c_k times e^{ika}."""

    def shift(field):
        return tuple(
            tuple(c * np.exp(1j * a * np.arange(-(c.size // 2), c.size // 2 + 1)) for c in row)
            for row in field
        )

    return CoframeFamily(shift(cf.E1), shift(cf.E2))


def half_turned(cf: CoframeFamily) -> CoframeFamily:
    """The family S E(-x) S: each coefficient array reversed, and entry
    (a, b) negated when exactly one of a, b is 2."""

    def turn(field):
        return tuple(
            tuple(-c[::-1] if (a == 2) != (b == 2) else c[::-1] for b, c in enumerate(row))
            for a, row in enumerate(field)
        )

    return CoframeFamily(turn(cf.E1), turn(cf.E2))


def rotated(cf: CoframeFamily, angle: float) -> CoframeFamily:
    """The family R E R^T, R the rotation by ``angle`` of the (x^2, x^3) plane."""
    c, s = np.cos(angle), np.sin(angle)
    r = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])

    def turn(field):
        return np.einsum("ac,cdk,bd->abk", r, stack_field(field, field_degree(field)), r)

    return CoframeFamily(turn(cf.E1), turn(cf.E2))


def assert_kept_laws(cf: CoframeFamily, shift: float, angle: float, routes=ROUTES,
                     tols=(KEPT_LAW_TOL, KEPT_LAW_TOL)) -> None:
    """Translation, half turn and rotation keep all four coefficients, c1
    within ``tols[0]`` and c2 within ``tols[1]``."""
    for route in routes:
        before = perturbation_report(cf, route)
        for family in (translated(cf, shift), half_turned(cf), rotated(cf, angle)):
            after = perturbation_report(family, route)
            for pair, tol in zip(PAIRS, tols):
                for name in pair:
                    expected = getattr(before, name)
                    assert abs(getattr(after, name) - expected) <= tol * max(1.0, abs(expected)), name


def assert_spectrum_laws(cf: CoframeFamily, a: float, angle: float) -> None:
    """Reversal negates the sorted spectrum, and translation by ``a``, the half
    turn and the rotation by ``angle`` keep it, at each eps."""
    spectra = [r.eigenvalues for r in spectrum_sweep(cf, SWEEP_EPS, 25)]
    kept = (translated(cf, a), half_turned(cf), rotated(cf, angle))
    for family, law in ((reversed_orientation(cf), lambda ev: -ev[::-1]), *((f, lambda ev: ev) for f in kept)):
        for ev, report in zip(spectra, spectrum_sweep(family, SWEEP_EPS, 25)):
            expected = law(ev)
            deviation = np.abs(report.eigenvalues - expected) / np.maximum(1.0, np.abs(expected))
            assert np.max(deviation) <= SPECTRUM_LAW_TOL, f"eps={report.eps}"


def assert_reversal_law(cf: CoframeFamily, routes=ROUTES, tols=(LAW_TOL, LAW_TOL)) -> None:
    """Reversal negates and swaps the coefficients of +1 and -1, c1 within
    ``tols[0]`` and c2 and the asymmetry within ``tols[1]``."""
    for route in routes:
        before = perturbation_report(cf, route)
        after = perturbation_report(reversed_orientation(cf), route)
        for (plus, minus), tol in zip(PAIRS, tols):
            for new, old in ((plus, minus), (minus, plus)):
                expected = -getattr(before, old)
                assert abs(getattr(after, new) - expected) <= tol * max(1.0, abs(expected))
        scale = max(1.0, abs(before.lambda2_plus), abs(before.lambda2_minus))
        assert abs(after.asymmetry2 + before.asymmetry2) <= tols[1] * scale


@settings(max_examples=60)
@given(FAMILIES)
def test_reversal_negates_and_swaps_the_coefficients(cf):
    assert_reversal_law(cf)


@pytest.mark.parametrize(
    "name,asymmetry2",
    [
        ("example-galerkin-1", -1.0),
        ("example-galerkin-2", 0.0),
        ("example-explicit-1", -1.0),
        ("example-explicit-2", -0.25),
    ],
)
def test_reversal_flips_the_asymmetry_of_the_examples(name, asymmetry2):
    cf = load_example(name).family()
    assert_reversal_law(cf)
    before = perturbation_report(cf, "closed_form")
    after = perturbation_report(reversed_orientation(cf), "closed_form")
    assert before.asymmetry2 == pytest.approx(asymmetry2, abs=1e-13)
    assert after.asymmetry2 == pytest.approx(-asymmetry2, abs=1e-13)


@settings(max_examples=60)
@given(FAMILIES, st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi))
def test_translation_half_turn_and_rotation_keep_the_coefficients(cf, shift, angle):
    assert_kept_laws(cf, shift, angle)


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_kept_laws_hold_on_the_examples(name):
    for shift, angle in ((0.7, 0.3), (-2.0, 2.5)):
        assert_kept_laws(load_example(name).family(), shift, angle)


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_fit_route_keeps_the_laws_on_the_examples(name):
    cf = load_example(name).family()
    assert_reversal_law(cf, ("galerkin_fit",), FIT_LAW_TOL)
    for shift, angle in ((0.7, 0.3), (-2.0, 2.5)):
        assert_kept_laws(cf, shift, angle, ("galerkin_fit",), FIT_LAW_TOL)


@settings(max_examples=30)
@given(FAMILIES, st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi))
def test_reversal_negates_and_translation_keeps_the_spectrum(cf, a, angle):
    # and the half turn and the rotation keep it too
    assert_spectrum_laws(cf, a, angle)


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_spectrum_laws_hold_on_the_examples(name):
    for a, angle in ((0.7, 0.3), (-2.0, 2.5)):
        assert_spectrum_laws(load_example(name).family(), a, angle)


# the pinned families with a half-turn pairing phase; the other bundled
# examples and golden configs have none
GOLDEN = Path(__file__).parent / "golden"
PINNED_PHASES = {"example-galerkin-1": 1, "example-galerkin-2": 1}
PINNED_CONFIGS = {name: name for name in EXAMPLE_NAMES}
PINNED_CONFIGS.update({path.stem: str(path) for path in sorted(GOLDEN.glob("*.cfg"))})
# the smallest subnormal: a forbidden part this small still breaks the law
TINY = 5e-324


def conjugate_block(entries: np.ndarray, theta: complex) -> np.ndarray:
    """(1/2) ((vv + ww) + (theta vw + conj(theta) wv)), the block of H on the
    pairs (v_i + theta w_i)/sqrt(2), conjugate to the one that
    ``spectrum_sweep`` solves."""
    vv, vw, wv, ww = entries[0::2, 0::2], entries[0::2, 1::2], entries[1::2, 0::2], entries[1::2, 1::2]
    return 0.5 * ((vv + ww) + (theta * vw + np.conj(theta) * wv))


def assert_close_to_full(ev: np.ndarray, full: np.ndarray) -> None:
    drift = np.abs(ev - full) / np.maximum(1.0, np.abs(full))
    assert np.max(drift) <= EIGENVALUE_TOL, f"drift {np.max(drift):.1e}"


def broken(cf: CoframeFamily, name: str, a: int, b: int) -> CoframeFamily:
    """``cf`` with a forbidden part of the entry (a, b) of its field ``name``,
    E1 or E2, a == b or {a, b} = {1, 2}, set to ``TINY``: the part that both
    half turns forbid there, the odd part TINY sin(x) of a diagonal entry, the
    even part TINY of (1, 2)."""
    fields = {"E1": [list(row) for row in cf.E1], "E2": [list(row) for row in cf.E2]}
    c = fields[name][a][b].copy()
    if a == b:
        d = c.size // 2
        c[d + 1] -= 1j * TINY
        c[d - 1] += 1j * TINY
    else:
        c[c.size // 2] += TINY
    fields[name][a][b] = c
    return CoframeFamily(fields["E1"], fields["E2"])


@pytest.mark.parametrize("name", PINNED_CONFIGS)
def test_half_turn_phase_of_the_pinned_families(name):
    # a parse or representation change that loses the exact split into real
    # and imaginary coefficients fails here, not as a slower solve
    assert _half_turn_phase(load_config_file(PINNED_CONFIGS[name]).family()) == PINNED_PHASES.get(name)


@settings(max_examples=40)
@given(half_turn_families(), st.sampled_from(SWEEP_EPS), st.sampled_from((3, 25)))
def test_half_turn_families_solve_one_paired_block(drawn, eps, m):
    cf, theta = drawn
    assert _half_turn_phase(cf) == theta
    h = galerkin_matrix(dirac_operator(cf, eps, default_grid(m)), m)
    full = np.linalg.eigvalsh(h)
    paired = _paired_eigenvalues(h, theta)
    assert same_bytes(paired, spectrum_sweep(cf, (eps,), m)[0].eigenvalues)
    assert np.array_equal(paired[0::2], paired[1::2])  # the Kramers pairs, gap 0
    assert_close_to_full(paired, full)
    conjugate = np.linalg.eigvalsh(conjugate_block(h, theta))
    assert_close_to_full(np.repeat(conjugate, 2), full)


@settings(max_examples=40)
@given(st.one_of(parity_families(), parity_families(P_SIGNS), parity_families(MINUS_I_SIGNS)))
def test_families_without_a_half_turn_have_no_phase(cf):
    assert _half_turn_phase(cf) is None


# the entries whose forbidden part is the same under both half turns
BROKEN_ENTRIES = [(0, 0), (1, 1), (2, 2), (1, 2), (2, 1)]


@settings(max_examples=40)
@given(half_turn_families(), st.sampled_from(["E1", "E2"]), st.sampled_from(BROKEN_ENTRIES))
def test_a_subnormal_forbidden_part_breaks_the_half_turn(drawn, name, entry):
    assert _half_turn_phase(broken(drawn[0], name, *entry)) is None
