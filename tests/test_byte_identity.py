"""The lean assembly path gives the bits of the object formulas.

``dirac_operator`` builds the coframe, det e and the potential numerator on
bare coefficient arrays, and ``galerkin_matrix`` reads its blocks through
strided views and symmetrizes in place. Both must reproduce, byte for byte,
the reference formulas in conftest: the ``Matrix3Field``/``TrigPoly`` path and
the ``sliding_window_view`` gather they replaced. Signed zeros count, so eps
= -0.0 and +0.0 are both covered.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusdirac import CoframeFamily, Matrix3Field, TrigPoly, dirac_operator, galerkin_matrix
from torusdirac import load_config_file, load_example, trigpoly
from torusdirac.config import EXAMPLE_NAMES

from conftest import reference_det, reference_galerkin, reference_operator_hats, same_bytes

GOLDEN = Path(__file__).parent / "golden"
SEEDED = ("seeded-coframe-4", "seeded-perturbation-3", "cli-sweep-coframe-2", "cli-sweep-perturbation-2")
EPS_VALUES = (0.2, 0.1, 0.01, -0.1, 0.0, -0.0)
GRIDS = (256, 416)
TRUNCATIONS = (0, 1, 3, 25, 40)  # 2m below and above the operator degree 63 at n = 256


def _families():
    families = {name: load_example(name).family() for name in EXAMPLE_NAMES}
    families.update({name: load_config_file(str(GOLDEN / f"{name}.cfg")).family() for name in SEEDED})
    return families


FAMILIES = _families()


def assert_operator_bytes(cf: CoframeFamily, eps: float, n: int) -> None:
    op = dirac_operator(cf, eps, n)
    b_ref, p_ref = reference_operator_hats(cf, eps, n)
    assert same_bytes(op.b_hat, b_ref), f"B^ differs at eps={eps!r}, n={n}"
    assert same_bytes(op.p_hat, p_ref), f"p^ differs at eps={eps!r}, n={n}"


def assert_matrix_bytes(op, m: int) -> None:
    gm = galerkin_matrix(op, m)
    entries, residual = reference_galerkin(op, m)
    assert same_bytes(gm.entries, entries), f"entries differ at m={m}"
    assert gm.herm_residual.hex() == residual.hex()


@pytest.mark.parametrize("name", FAMILIES)
def test_operator_matches_reference(name):
    for eps in EPS_VALUES:
        for n in GRIDS:
            assert_operator_bytes(FAMILIES[name], eps, n)


@pytest.mark.parametrize("name", FAMILIES)
def test_matrix_matches_reference(name):
    for eps in (0.1, -0.0):
        op = dirac_operator(FAMILIES[name], eps, 256)
        for m in TRUNCATIONS:
            assert_matrix_bytes(op, m)


# ----------------------------------------------------------------------
# random coframes whose entries each have their own trig degree 0-3
# ----------------------------------------------------------------------

AMPLITUDE = st.floats(-0.1, 0.1)


@st.composite
def mixed_degree_fields(draw) -> Matrix3Field:
    rows = []
    for _ in range(3):
        row = []
        for _ in range(3):
            poly = TrigPoly.constant(draw(AMPLITUDE))
            for j in range(1, draw(st.integers(0, 3)) + 1):
                poly = poly + TrigPoly.cosine(j, draw(AMPLITUDE)) + TrigPoly.sine(j, draw(AMPLITUDE))
            row.append(poly)
        rows.append(row)
    return Matrix3Field(rows)


MIXED_COFRAMES = st.builds(CoframeFamily, mixed_degree_fields(), mixed_degree_fields())
SIGNED_EPS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-0.2, 0.2))


class TestRandomCoframes:
    @settings(max_examples=40)
    @given(MIXED_COFRAMES, SIGNED_EPS, st.sampled_from(GRIDS))
    def test_operator_matches_reference(self, cf, eps, n):
        assert_operator_bytes(cf, eps, n)

    @settings(max_examples=25)
    @given(MIXED_COFRAMES, SIGNED_EPS, st.sampled_from(TRUNCATIONS))
    def test_matrix_matches_reference(self, cf, eps, m):
        assert_matrix_bytes(dirac_operator(cf, eps, 256), m)

    @settings(max_examples=40)
    @given(mixed_degree_fields())
    def test_det_matches_trigpoly_expansion(self, mat):
        assert same_bytes(mat.det().coeffs, reference_det(mat).coeffs)


def test_operator_assembly_builds_no_coefficient_objects(monkeypatch):
    families = list(FAMILIES.values())

    def refuse(*args, **kwargs):
        raise AssertionError("dirac_operator built a TrigPoly or Matrix3Field")

    monkeypatch.setattr(trigpoly.TrigPoly, "__init__", refuse)
    monkeypatch.setattr(trigpoly.TrigPoly, "_adopt", classmethod(refuse))
    monkeypatch.setattr(trigpoly.Matrix3Field, "__init__", refuse)
    for cf in families:
        assert dirac_operator(cf, 0.1, 256).degree == 63
