"""Orientation reversal and translation as exact laws of the coefficient
routes and of the Galerkin spectra.

The operator depends on x^1 alone. Reversing the orientation, x^1 -> -x^1,
maps a coframe family E(x) to P E(-x) P with P = diag(-1, 1, 1) acting on
the rows and columns of E1 and E2, and it changes the sign of the Dirac
operator (Friedrich, *Dirac Operators in Riemannian Geometry*, AMS Graduate
Studies in Mathematics 25, 2000). The reversed family's spectrum is the
negated spectrum at every eps, so the expansion coefficients of the
eigenvalues +1 and -1 trade places with a sign, c_j'(+-1) = -c_j(-+1), and
the quadratic asymmetry c2(+1) + c2(-1) changes sign. Translation,
E(x) -> E(x + a), maps the coefficients c_k to c_k e^{ika} and is an
isometry, so it leaves the spectrum unchanged. The laws need no reference
value, so they guard random families, and on ``spectrum_sweep`` they guard
the bits of the Galerkin matrix without reference arithmetic.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusdirac import CoframeFamily, load_example, perturbation_report
from torusdirac.config import EXAMPLE_NAMES
from torusdirac.galerkin import spectrum_sweep

from conftest import coframe_fields, mixed_degree_fields

ROUTES = ("closed_form", "operator")
PAIRS = (("lambda1_plus", "lambda1_minus"), ("lambda2_plus", "lambda2_minus"))

# One ulp of 1, relative to max(1, |c|). Over 1,000 random families from
# both strategies the worst deviation was 2.8e-17 (closed form) and 1.4e-17
# (operator route); on the bundled examples the law holds exactly.
LAW_TOL = np.finfo(float).eps
# Spectra of spectrum_sweep at m = 25, relative to max(1, |lambda|): over the
# four examples and 400 random families from both strategies, at eps 0.15,
# -0.1 and 0.05, the worst deviation was 4.0e-14 (reversal) and 3.7e-14
# (translation).
SPECTRUM_LAW_TOL = 2e-13
SWEEP_EPS = (0.15, -0.1, 0.05)

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


def assert_spectrum_laws(cf: CoframeFamily, a: float) -> None:
    """Reversal negates the sorted spectrum and translation keeps it, at each eps."""
    spectra = [r.eigenvalues for r in spectrum_sweep(cf, SWEEP_EPS, 25)]
    for family, law in ((reversed_orientation(cf), lambda ev: -ev[::-1]), (translated(cf, a), lambda ev: ev)):
        for ev, report in zip(spectra, spectrum_sweep(family, SWEEP_EPS, 25)):
            expected = law(ev)
            deviation = np.abs(report.eigenvalues - expected) / np.maximum(1.0, np.abs(expected))
            assert np.max(deviation) <= SPECTRUM_LAW_TOL, f"eps={report.eps}"


def assert_reversal_law(cf: CoframeFamily) -> None:
    for route in ROUTES:
        before = perturbation_report(cf, route)
        after = perturbation_report(reversed_orientation(cf), route)
        for plus, minus in PAIRS:
            for new, old in ((plus, minus), (minus, plus)):
                expected = -getattr(before, old)
                assert abs(getattr(after, new) - expected) <= LAW_TOL * max(1.0, abs(expected))
        scale = max(1.0, abs(before.lambda2_plus), abs(before.lambda2_minus))
        assert abs(after.asymmetry2 + before.asymmetry2) <= LAW_TOL * scale


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


@settings(max_examples=30)
@given(FAMILIES, st.floats(-np.pi, np.pi))
def test_reversal_negates_and_translation_keeps_the_spectrum(cf, a):
    assert_spectrum_laws(cf, a)


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_spectrum_laws_hold_on_the_examples(name):
    for a in (0.7, -2.0):
        assert_spectrum_laws(load_example(name).family(), a)
