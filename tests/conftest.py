"""Shared fixtures: the four reference perturbation families, helpers, and the
reference formulas that the lean operator and matrix assembly and the lean
coefficient routes must match bit for bit."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import settings
from numpy.lib.stride_tricks import sliding_window_view

from torusdirac import CoframeFamily, DiracOperator, Matrix3Field, Pseudoinverse, SpinorField
from torusdirac import TrigPoly
from torusdirac.dirac import symbol_matrix
from torusdirac.galerkin import basis_spinor
from torusdirac.perturbation import _antisymmetric_flux_sum
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
# reference formulas: the object-level arithmetic that ``dirac_operator``,
# ``galerkin_matrix`` and the closed-form and operator routes reproduce on
# bare arrays, operation for operation
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


def reference_product_entry(x: Matrix3Field, y: Matrix3Field, a: int, b: int) -> TrigPoly:
    """Entry (a, b) of x @ y in TrigPoly arithmetic, summed over c in order."""
    acc = TrigPoly.zero()
    for c in range(3):
        acc = acc + x[a, c] * y[c, b]
    return acc


def reference_h(cf: CoframeFamily) -> Matrix3Field:
    return cf.E1 + cf.E1.transpose()


def reference_k(cf: CoframeFamily) -> Matrix3Field:
    return (cf.E1.transpose() @ cf.E1 + cf.E2 + cf.E2.transpose()) * 4.0


def reference_apply(op: DiracOperator, v: SpinorField) -> SpinorField:
    """``op.apply(v)`` with q * v^ formed once per output row."""
    c = v.coeffs
    q = np.arange(-v.degree, v.degree + 1)
    top = op.degree + v.degree
    k = np.arange(-top, top + 1)
    out = np.empty((2, k.size), dtype=complex)
    for a in range(2):
        bv = np.convolve(op.b_hat[a, 0], c[0]) + np.convolve(op.b_hat[a, 1], c[1])
        bqv = np.convolve(op.b_hat[a, 0], q * c[0]) + np.convolve(op.b_hat[a, 1], q * c[1])
        out[a] = 0.5 * (k * bv + bqv) + np.convolve(op.p_hat, c[a])
    return SpinorField(out)


def reference_closed_route(cf: CoframeFamily) -> list[float]:
    """[l1(+1), l1(-1), l2(+1), l2(-1)] of the closed route, from
    ``reference_h``/``reference_k`` in Matrix3Field/TrigPoly arithmetic; no checks."""
    h, k = reference_h(cf), reference_k(cf)
    d = h.degree
    top = d + 4
    hhat = h.coefficient_stack(top)
    hsq00 = reference_product_entry(h, h, 0, 0)
    l1, l2 = [], []
    for n in (1, -1):
        l1.append(float(-n * 0.5 * h.fourier(0)[0, 0].real))
        lead = n * (0.375 * hsq00.fourier(0) - 0.125 * k[0, 0].fourier(0))
        flux = -(1j / 16.0) * _antisymmetric_flux_sum(hhat, d)
        s_diag = 0.0 + 0.0j
        s_mixed = 0.0 + 0.0j
        for m in range(-d - 3, d + 4):
            if m == n:
                continue
            c11 = hhat[m - n + top, 0, 0]
            s_diag += (m + n) ** 2 / (m - n) * c11 * np.conj(c11)
            z = hhat[m + n + top]
            z1 = z[2, 0] + 1j * z[1, 0]
            z2 = np.conj(z[2, 0]) - 1j * np.conj(z[1, 0])
            s_mixed += (m - n) * z1 * z2
        l2.append(float((lead + flux - s_diag / 16.0 - s_mixed / 16.0).real))
    return l1 + l2


def reference_operator_route(cf: CoframeFamily) -> list[float]:
    """[l1(+1), l1(-1), l2(+1), l2(-1)] of the operator route, with W1 and
    W2 built from ``reference_h``/``reference_k`` in TrigPoly arithmetic and
    W1 v_n applied afresh wherever it is read; no checks."""
    h, k = reference_h(cf), reference_k(cf)
    d1 = max(h[j, 0].degree for j in range(3))
    w1 = DiracOperator(
        -0.5 * symbol_matrix(*(resize_degree(h[j, 0].coeffs, d1) for j in range(3))),
        np.zeros(2 * d1 + 1),
    )
    hcols = [reference_product_entry(h, h, j, 0) for j in range(3)]
    kcols = [k[j, 0] for j in range(3)]
    scalar = TrigPoly.zero()
    dh = h.derivative()
    for a in range(3):
        scalar = scalar + h[a, 1] * dh[a, 2] - h[a, 2] * dh[a, 1]
    d2 = max(poly.degree for poly in (*hcols, *kcols, scalar))
    hb, kb = (symbol_matrix(*(resize_degree(c.coeffs, d2) for c in cols)) for cols in (hcols, kcols))
    w2 = DiracOperator(0.375 * hb - 0.125 * kb, -resize_degree(scalar.coeffs, d2) / 16.0)
    l1, l2 = [], []
    for n in (1, -1):
        v = basis_spinor(n, "v")
        first = float(reference_apply(w1, v).inner(v).real)
        residual = reference_apply(w1, v) - first * v
        corrected = Pseudoinverse(lambda0=n, truncation=h.degree + 4).apply(residual)
        shifted = reference_apply(w1, corrected) - first * corrected
        l1.append(first)
        l2.append(float((reference_apply(w2, v).inner(v) - shifted.inner(v)).real))
    return l1 + l2


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    """True when a and b have one shape and dtype and identical bytes (so +0
    and -0 differ, and equal NaNs agree)."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
