"""Shared fixtures: the four reference perturbation families and helpers."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import settings

from torusdirac import CoframeFamily, Matrix3Field, TrigPoly

# Property tests draw the same examples on every run and have no deadline,
# so a slow shared machine cannot make them flaky, and write no example database.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")

COS = TrigPoly.cosine
SIN = TrigPoly.sine
ZERO = TrigPoly.zero()


def m3(rows) -> Matrix3Field:
    return Matrix3Field(rows)


@pytest.fixture(scope="session")
def rotation_block_coframe() -> CoframeFamily:
    """Linear coframe rotating the (x^2, x^3) block; the perturbed operator
    is the free one plus the constant -eps^2/(2(1-eps^2))."""
    E1 = m3(
        [
            [ZERO, ZERO, ZERO],
            [ZERO, COS(1), SIN(1)],
            [ZERO, SIN(1), COS(1, -1.0)],
        ]
    )
    return CoframeFamily.linear(E1)


def rotation_block_shift(eps: float) -> float:
    """Exact eigenvalue shift for the rotation-block family."""
    return -(eps**2) / (2.0 * (1.0 - eps**2))


@pytest.fixture(scope="session")
def first_row_coframe() -> CoframeFamily:
    """Nonsymmetric coframe with harmonics 1..3 in the first row only."""
    a = COS(1) - COS(2) + COS(3)
    b = SIN(1) + SIN(2) - SIN(3)
    E1 = m3([[ZERO, a, b], [ZERO, ZERO, ZERO], [ZERO, ZERO, ZERO]])
    return CoframeFamily.linear(E1)


@pytest.fixture(scope="session")
def explicit_family_1() -> tuple[Matrix3Field, Matrix3Field]:
    """(h, k) with zero first row of h: no linear shift, quadratic -1/2."""
    h = m3(
        [
            [ZERO, ZERO, ZERO],
            [ZERO, COS(1, 2.0), SIN(1, 2.0)],
            [ZERO, SIN(1, 2.0), COS(1, -2.0)],
        ]
    )
    k = m3([[SIN(1), COS(1), ZERO], [COS(1), ZERO, ZERO], [ZERO, ZERO, ZERO]])
    return h, k


@pytest.fixture(scope="session")
def explicit_family_2() -> tuple[Matrix3Field, Matrix3Field]:
    """(h, k) with constant h_11 = 1: linear shifts -+1/2, quadratic 3/4, -1."""
    h = m3(
        [
            [TrigPoly.constant(1.0), COS(1), SIN(1)],
            [COS(1), COS(1), SIN(1)],
            [SIN(1), SIN(1), COS(1, -1.0)],
        ]
    )
    k = m3(
        [
            [SIN(1), COS(1), ZERO],
            [COS(1), SIN(1, -1.0), ZERO],
            [ZERO, ZERO, ZERO],
        ]
    )
    return h, k


def random_symmetric_field(rng: np.random.Generator, degree: int = 2,
                           scale: float = 0.25) -> Matrix3Field:
    """Random real symmetric Matrix3Field of the given trig degree."""
    rows = [[None] * 3 for _ in range(3)]
    for a in range(3):
        for b in range(a, 3):
            poly = TrigPoly.constant(rng.normal(0.0, scale))
            for k in range(1, degree + 1):
                poly = poly + COS(k, rng.normal(0.0, scale)) + SIN(k, rng.normal(0.0, scale))
            rows[a][b] = poly
            rows[b][a] = poly
    return Matrix3Field(rows)


def random_field(rng: np.random.Generator, degree: int = 2,
                 scale: float = 0.25) -> Matrix3Field:
    """Random real (not necessarily symmetric) Matrix3Field."""
    rows = []
    for _ in range(3):
        row = []
        for _ in range(3):
            poly = TrigPoly.constant(rng.normal(0.0, scale))
            for k in range(1, degree + 1):
                poly = poly + COS(k, rng.normal(0.0, scale)) + SIN(k, rng.normal(0.0, scale))
            row.append(poly)
        rows.append(row)
    return Matrix3Field(rows)


def assert_sigfigs(value: float, printed: float, nsig: int) -> None:
    """Check agreement with a printed reference to nsig significant figures."""
    assert printed != 0
    tol = 0.5001 * 10.0 ** (math.floor(math.log10(abs(printed))) - (nsig - 1))
    assert abs(value - printed) <= tol, (
        f"{value!r} differs from printed {printed!r} beyond {nsig} "
        f"significant figures (tol {tol:.2e})"
    )
