"""Shared fixtures: the four reference perturbation families, helpers, and the
reference formulas that the lean operator and matrix assembly must match bit
for bit."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import settings
from numpy.lib.stride_tricks import sliding_window_view

from torusdirac import CoframeFamily, DiracOperator, Matrix3Field, SpinorField, TrigPoly
from torusdirac.dirac import symbol_matrix
from torusdirac.galerkin import basis_spinor
from torusdirac.trigpoly import resize_degree

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
    return CoframeFamily(E1, Matrix3Field.zero())


def rotation_block_shift(eps: float) -> float:
    """Exact eigenvalue shift for the rotation-block family."""
    return -(eps**2) / (2.0 * (1.0 - eps**2))


@pytest.fixture(scope="session")
def first_row_coframe() -> CoframeFamily:
    """Nonsymmetric coframe with harmonics 1..3 in the first row only."""
    a = COS(1) - COS(2) + COS(3)
    b = SIN(1) + SIN(2) - SIN(3)
    E1 = m3([[ZERO, a, b], [ZERO, ZERO, ZERO], [ZERO, ZERO, ZERO]])
    return CoframeFamily(E1, Matrix3Field.zero())


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


def eigenspace_projection(f: SpinorField, lambda0: int) -> SpinorField:
    """Orthogonal projection onto span{v_lambda0, w_lambda0}."""
    v = basis_spinor(lambda0, "v")
    w = basis_spinor(lambda0, "w")
    return f.inner(v) * v + f.inner(w) * w


def assert_sigfigs(value: float, printed: float, nsig: int) -> None:
    """Check agreement with a printed reference to nsig significant figures."""
    assert printed != 0
    tol = 0.5001 * 10.0 ** (math.floor(math.log10(abs(printed))) - (nsig - 1))
    assert abs(value - printed) <= tol, (
        f"{value!r} differs from printed {printed!r} beyond {nsig} "
        f"significant figures (tol {tol:.2e})"
    )


# ----------------------------------------------------------------------
# reference formulas: the object-level arithmetic that ``dirac_operator`` and
# ``galerkin_matrix`` reproduce on bare arrays, operation for operation
# ----------------------------------------------------------------------

def reference_det(mat: Matrix3Field) -> TrigPoly:
    """det of a Matrix3Field in TrigPoly arithmetic, expanded along row 0."""
    return (
        mat[0, 0] * (mat[1, 1] * mat[2, 2] - mat[1, 2] * mat[2, 1])
        - mat[0, 1] * (mat[1, 0] * mat[2, 2] - mat[1, 2] * mat[2, 0])
        + mat[0, 2] * (mat[1, 0] * mat[2, 1] - mat[1, 1] * mat[2, 0])
    )


def reference_operator_hats(cf: CoframeFamily, eps: float, n: int):
    """(B^, p^) of ``dirac_operator(cf, eps, n)`` from ``cf.coframe_at(eps)``,
    its determinant, ``.derivative()`` and ``.on_grid(n)``; no checks."""
    coframe = cf.coframe_at(eps)
    sqrt_det_g = reference_det(coframe).on_grid(n).real
    frame = np.linalg.inv(np.transpose(coframe.on_grid(n).real, (2, 1, 0)))
    num = TrigPoly.zero()
    dcof = coframe.derivative()
    for j in range(3):
        num = num + coframe[j, 2] * dcof[j, 1] - coframe[j, 1] * dcof[j, 2]
    potential = num.on_grid(n).real / (4.0 * sqrt_det_g)
    b_hat = np.fft.fft(symbol_matrix(frame[:, 0, 0], frame[:, 1, 0], frame[:, 2, 0]), axis=-1) / n
    p_hat = np.fft.fft(potential) / n
    top = (n - 1) // 4
    kept = np.r_[n - top : n, 0 : top + 1]
    return b_hat[..., kept], p_hat[kept]


def reference_galerkin(op: DiracOperator, m: int) -> tuple[np.ndarray, float]:
    """(entries, herm_residual) of ``galerkin_matrix(op, m)``, gathering each
    block through ``sliding_window_view`` and symmetrizing out of place."""
    b_hat, p_hat = resize_degree(op.b_hat, 2 * m), resize_degree(op.p_hat, 2 * m)
    w = 2 * m + 1
    i = np.arange(-m, m + 1)
    entries = np.empty((w, 2, w, 2), dtype=complex)
    for a, s_r in enumerate((1, -1)):
        for b, s_col in enumerate((1, -1)):
            sandwich = (
                s_r * s_col * b_hat[0, 0] + s_r * b_hat[0, 1] + s_col * b_hat[1, 0] + b_hat[1, 1]
            )
            flip = (slice(None, None, s_r), slice(None, None, -s_col))
            qsum = s_r * i[:, None] + s_col * i
            block = 0.25 * qsum * sliding_window_view(sandwich, w)[flip]
            if a == b:
                block += sliding_window_view(p_hat, w)[flip]
            entries[:, a, :, b] = block
    entries = entries.reshape(2 * w, 2 * w)
    adjoint = entries.conj().T
    residual = float(np.max(np.abs(entries - adjoint)))
    return 0.5 * (entries + adjoint), residual


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    """True when a and b have one shape and dtype and identical bytes (so +0
    and -0 differ, and equal NaNs agree)."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
