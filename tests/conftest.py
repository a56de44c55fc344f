"""Shared fixtures: the four reference perturbation families, helpers, and the
reference formulas that the lean operator and matrix assembly, the lean
coefficient routes and the sweep-wide pair tracking must match.

Functions of x^1 are coefficient arrays and 3x3 matrices of them are nested
tuples of arrays, as the package holds E1 and E2; ``stacked`` gives the
stack (3, 3, 2D+1) that the package makes of h and k. The helpers below
spell the arithmetic on the nested form: ``add`` sums left to right with ``poly_add``, products are
``np.convolve``, and a scaled array is multiplied by a complex scalar.
Spinors are (2, 2K+1) coefficient arrays, summed and scaled the same way.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from torusdirac import CoframeFamily, DiracOperator
from torusdirac.dirac import inner
from torusdirac.galerkin import CLUSTER_RADIUS, PAIRING_TOL, TrackingError, basis_spinor
from torusdirac.galerkin import tracking_buffer
from torusdirac.trigpoly import COEFF_TOL, _as_field, field_degree, grid_points, poly_add, poly_derivative
from torusdirac.trigpoly import poly_sub, resize_degree, stack_field

# Property tests draw the same examples on every run and have no deadline,
# so a slow shared machine cannot make them flaky, and write no example database.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


# ----------------------------------------------------------------------
# coefficient arrays and 3x3 fields of them
# ----------------------------------------------------------------------

def const(value) -> np.ndarray:
    return np.array([value], dtype=complex)


def COS(k: int, amplitude: float = 1.0) -> np.ndarray:
    """amplitude * cos(kx)."""
    if k == 0:
        return const(amplitude)
    c = np.zeros(2 * k + 1, dtype=complex)
    c[0] = c[-1] = amplitude / 2.0
    return c


def SIN(k: int, amplitude: float = 1.0) -> np.ndarray:
    """amplitude * sin(kx)."""
    if k == 0:
        return const(0.0)
    c = np.zeros(2 * k + 1, dtype=complex)
    c[-1] = amplitude / (2.0j)
    c[0] = -amplitude / (2.0j)
    return c


ZERO = const(0.0)
ZERO.setflags(write=False)


def add(*terms) -> np.ndarray:
    """terms[0] + terms[1] + ..., added left to right."""
    total = terms[0]
    for term in terms[1:]:
        total = poly_add(total, term)
    return total


def degree(c: np.ndarray) -> int:
    return (c.size - 1) // 2


def fourier(c: np.ndarray, m: int) -> complex:
    """Coefficient c_m, zero when |m| exceeds the degree."""
    return complex(c[m + degree(c)]) if abs(m) <= degree(c) else 0j


def evaluate(c: np.ndarray, x) -> np.ndarray:
    """Values at the points x by the direct formula."""
    k = np.arange(-degree(c), degree(c) + 1)
    return np.exp(1j * np.multiply.outer(np.asarray(x, dtype=float), k)) @ c


def m3(rows) -> tuple:
    return _as_field(rows)


def entrywise(f, *fields) -> tuple:
    """The 3x3 field whose entry (a, b) is f of the fields' entries (a, b)."""
    return tuple(tuple(f(*(x[a][b] for x in fields)) for b in range(3)) for a in range(3))


ZERO_FIELD = m3([[0.0] * 3] * 3)
IDENTITY = m3([[1.0 if a == b else 0.0 for b in range(3)] for a in range(3)])


def stacked(x) -> np.ndarray:
    """The 3x3 field ``x``, nested or stacked, as one stack (3, 3, 2D+1) at
    its largest entry degree D, each entry zero-padded."""
    return stack_field(x, field_degree(x))


def harmonic_stack(x, top: int) -> np.ndarray:
    """The 3x3 field ``x`` as one array (2*top+1, 3, 3) whose element
    [m + top] holds the entry coefficients at harmonic m."""
    return np.moveaxis(stack_field(x, top), -1, 0)


def transpose(x) -> tuple:
    return tuple(zip(*x))


def scaled(x, s) -> tuple:
    return entrywise(lambda c: c * complex(s), x)


def matmul(x, y) -> tuple:
    """x @ y, entry by entry as ``reference_product_entry``."""
    return tuple(tuple(reference_product_entry(x, y, a, b) for b in range(3)) for a in range(3))


def field_fourier(x, m: int) -> np.ndarray:
    """3x3 array of entry coefficients at harmonic m."""
    return np.array([[fourier(c, m) for c in row] for row in x])


def sample(x, points) -> np.ndarray:
    """All entries at the points; shape (3, 3, len(points))."""
    return np.array([[evaluate(c, points) for c in row] for row in x])


def on_grid(x, n: int) -> np.ndarray:
    """All entries on ``grid_points(n)``; shape (3, 3, n)."""
    return sample(x, grid_points(n))


def isclose(x, y, tol: float = COEFF_TOL) -> bool:
    """Coefficient-wise comparison of two arrays or two 3x3 fields, each
    nested or stacked."""
    if isinstance(x, np.ndarray) and x.ndim == 1:
        d = max(degree(x), degree(y))
        return bool(np.all(np.abs(resize_degree(x, d) - resize_degree(y, d)) <= tol))
    d = max(field_degree(x), field_degree(y))
    return bool(np.all(np.abs(stack_field(x, d) - stack_field(y, d)) <= tol))


def spinor(upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """The spinor with component coefficients ``upper`` and ``lower``."""
    d = max(degree(upper), degree(lower))
    return np.array([resize_degree(upper, d), resize_degree(lower, d)])


def norm(v: np.ndarray) -> float:
    """L^2 norm of a spinor, from ``inner``."""
    return float(np.sqrt(max(inner(v, v).real, 0.0)))


def free_operator() -> DiracOperator:
    """The unperturbed operator -i [[0, 1], [1, 0]] d/dx^1: a1 = 1."""
    return DiracOperator([[1.0], [0.0], [0.0]], [0.0])


def symbol_matrix(a1: np.ndarray, a2: np.ndarray, a3: np.ndarray) -> np.ndarray:
    """Hermitian trace-free symbol [[a3, a1 - i a2], [a1 + i a2, -a3]] of
    the real functions a1, a2, a3, given by their samples or coefficients
    (the map is linear); the output has shape (2, 2, len(a1))."""
    return np.array([[a3, a1 - 1j * a2], [a1 + 1j * a2, -a3]])


def full_spectrum(half: np.ndarray) -> np.ndarray:
    """c_-L..c_L of the real functions with the half spectra ``half``
    (..., L+1), mirrored one coefficient at a time."""
    top = half.shape[-1] - 1
    full = np.zeros(half.shape[:-1] + (2 * top + 1,), dtype=complex)
    for k in range(top + 1):
        full[..., top + k] = half[..., k]
        full[..., top - k] = np.conj(half[..., k])
    full[..., top] = half[..., 0]
    return full


def operator_hats(op: DiracOperator) -> tuple[np.ndarray, np.ndarray]:
    """(B^, p^) of ``op`` over k = -L..L: the symbol (2, 2, 2L+1) and the
    potential (2L+1,) of its half spectra."""
    return symbol_matrix(*full_spectrum(op.a_hat)), full_spectrum(op.p_hat)


def charge_conjugate(v: np.ndarray) -> np.ndarray:
    """Antilinear map (v1, v2) -> (-conj(v2), conj(v1)); squares to -I.

    The conjugate function of sum_k c_k e^{ikx} has coefficients conj(c_-k).
    """
    c = np.conj(v[:, ::-1])
    return np.array([-c[1], c[0]])


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
    return CoframeFamily(E1, ZERO_FIELD)


def rotation_block_shift(eps: float) -> float:
    """Exact eigenvalue shift for the rotation-block family."""
    return -(eps**2) / (2.0 * (1.0 - eps**2))


@pytest.fixture(scope="session")
def first_row_coframe() -> CoframeFamily:
    """Nonsymmetric coframe with harmonics 1..3 in the first row only."""
    a = add(poly_sub(COS(1), COS(2)), COS(3))
    b = poly_sub(add(SIN(1), SIN(2)), SIN(3))
    E1 = m3([[ZERO, a, b], [ZERO, ZERO, ZERO], [ZERO, ZERO, ZERO]])
    return CoframeFamily(E1, ZERO_FIELD)


@pytest.fixture(scope="session")
def explicit_family_1() -> tuple[tuple, tuple]:
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
def explicit_family_2() -> tuple[tuple, tuple]:
    """(h, k) with constant h_11 = 1: linear shifts -+1/2, quadratic 3/4, -1."""
    h = m3(
        [
            [const(1.0), COS(1), SIN(1)],
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


def random_poly(rng: np.random.Generator, degree: int, scale: float) -> np.ndarray:
    """Random real trig polynomial: a constant, then cos and sin of each
    harmonic 1..degree, drawn and added in that order."""
    poly = const(rng.normal(0.0, scale))
    for k in range(1, degree + 1):
        poly = add(poly, COS(k, rng.normal(0.0, scale)), SIN(k, rng.normal(0.0, scale)))
    return poly


def random_symmetric_field(rng: np.random.Generator, degree: int = 2,
                           scale: float = 0.25) -> tuple:
    """Random real symmetric 3x3 field of the given trig degree."""
    rows = [[None] * 3 for _ in range(3)]
    for a in range(3):
        for b in range(a, 3):
            rows[a][b] = rows[b][a] = random_poly(rng, degree, scale)
    return m3(rows)


def random_field(rng: np.random.Generator, degree: int = 2,
                 scale: float = 0.25) -> tuple:
    """Random real (not necessarily symmetric) 3x3 field."""
    return m3([[random_poly(rng, degree, scale) for _ in range(3)] for _ in range(3)])


def eigenspace_projection(f: np.ndarray, lambda0: int) -> np.ndarray:
    """Orthogonal projection onto span{v_lambda0, w_lambda0}."""
    v = basis_spinor(lambda0, "v")
    w = basis_spinor(lambda0, "w")
    return poly_add(v * inner(f, v), w * inner(f, w))


# ----------------------------------------------------------------------
# hypothesis strategies for random real 3x3 fields
# ----------------------------------------------------------------------

# Entries of E1 and E2 stay below 0.5 and eps below 0.2, so the coframe
# I + eps E1 + eps^2 E2 is within 0.3 of I in norm and det e > 0.
AMPLITUDE = st.floats(-0.1, 0.1)


@st.composite
def coframe_fields(draw) -> tuple:
    """Real (not symmetric) 3x3 field of trig degree 1-2, coefficients <= 0.1."""
    degree = draw(st.integers(1, 2))
    rows = []
    for _ in range(3):
        row = []
        for _ in range(3):
            poly = const(draw(AMPLITUDE))
            for j in range(1, degree + 1):
                poly = add(poly, COS(j, draw(AMPLITUDE)), SIN(j, draw(AMPLITUDE)))
            row.append(poly)
        rows.append(row)
    return m3(rows)


@st.composite
def mixed_degree_fields(draw, amplitude=AMPLITUDE) -> tuple:
    """Real 3x3 field whose entries each have their own trig degree 0-3."""
    rows = []
    for _ in range(3):
        row = []
        for _ in range(3):
            poly = const(draw(amplitude))
            for j in range(1, draw(st.integers(0, 3)) + 1):
                poly = add(poly, COS(j, draw(amplitude)), SIN(j, draw(amplitude)))
            row.append(poly)
        rows.append(row)
    return m3(rows)


# The half turns E(x) -> S E(-x) S that keep the orientation, S = diag(signs),
# each with its Galerkin pairing phase and the wave, cos(x) or sin(x), that it
# allows at entries (0, 1) and (1, 0) and the other half turn forbids there;
# P = diag(-1, 1, 1) reverses the orientation, and -I is the law E(x) = E(-x).
HALF_TURNS = {(-1, -1, 1): (1, COS), (-1, 1, -1): (1j, SIN)}
P_SIGNS, MINUS_I_SIGNS = (-1, 1, 1), (-1, -1, -1)


def with_parity(x, signs) -> tuple:
    """The field ``x`` with the part of each entry (a, b) that E(x) =
    S E(-x) S forbids, S = diag(signs), zeroed: the odd part of the function,
    the imaginary part of its coefficients, where signs[a] signs[b] = 1, and
    the even part, the real part, where it is -1."""
    return m3([[c.real if signs[a] == signs[b] else 1j * c.imag for b, c in enumerate(row)]
               for a, row in enumerate(x)])


@st.composite
def parity_families(draw, signs=None, marker=((1, 2), COS)) -> CoframeFamily:
    """A family from two ``coframe_fields`` draws, each ``with_parity(signs)``
    unless ``signs`` is None, in coframe form or in perturbation form (h and k
    each a draw plus its transpose). The draw's entries ``marker[0]`` and its
    transpose are set to ``marker[1]`` of harmonic 1 at a drawn amplitude
    0.01-0.1, so that the family breaks every law that forbids that wave
    there, whatever the other draws: the default, cos(x) at (1, 2) and (2, 1),
    breaks both half turns and keeps P and -I."""
    x, y = draw(coframe_fields()), draw(coframe_fields())
    if signs is not None:
        x, y = with_parity(x, signs), with_parity(y, signs)
    (a, b), wave = marker
    x = [list(row) for row in x]
    x[a][b] = x[b][a] = wave(1, draw(st.floats(0.01, 0.1)))
    if draw(st.booleans()):
        return CoframeFamily(x, y)
    return CoframeFamily.from_perturbation(*(entrywise(poly_add, f, transpose(f)) for f in (x, y)))


@st.composite
def half_turn_families(draw) -> tuple:
    """(family, theta): a ``parity_families`` draw for S or S' of
    ``HALF_TURNS``, with its pairing phase theta, whose entries (0, 1) and
    (1, 0) carry the wave that the other half turn forbids there."""
    signs = draw(st.sampled_from(sorted(HALF_TURNS)))
    theta, wave = HALF_TURNS[signs]
    return draw(parity_families(signs, ((0, 1), wave))), theta


def assert_sigfigs(value: float, printed: float, nsig: int) -> None:
    """Check agreement with a printed reference to nsig significant figures."""
    assert printed != 0
    tol = 0.5001 * 10.0 ** (math.floor(math.log10(abs(printed))) - (nsig - 1))
    assert abs(value - printed) <= tol, (
        f"{value!r} differs from printed {printed!r} beyond {nsig} "
        f"significant figures (tol {tol:.2e})"
    )


# ----------------------------------------------------------------------
# reference formulas: the arithmetic that ``dirac_operator``,
# ``galerkin_matrix`` and the closed-form and operator routes reproduce,
# spelled out here operation for operation with the helpers above
# ----------------------------------------------------------------------

def reference_det(mat) -> np.ndarray:
    """det of a 3x3 field, expanded along row 0."""
    conv = np.convolve
    return add(
        conv(mat[0][0], poly_sub(conv(mat[1][1], mat[2][2]), conv(mat[1][2], mat[2][1]))),
        -conv(mat[0][1], poly_sub(conv(mat[1][0], mat[2][2]), conv(mat[1][2], mat[2][0]))),
        conv(mat[0][2], poly_sub(conv(mat[1][0], mat[2][1]), conv(mat[1][1], mat[2][0]))),
    )


def reference_coframe(cf: CoframeFamily, eps: float) -> tuple:
    """I + eps*E1 + eps^2*E2, summed in that order."""
    return entrywise(add, IDENTITY, scaled(cf.E1, eps), scaled(cf.E2, eps * eps))


def reference_operator_hats(cf: CoframeFamily, eps: float, n: int):
    """(a^, p^) of ``dirac_operator(cf, eps, n)`` from ``reference_coframe``,
    its determinant, derivative and grid values, by complex FFTs, k = 0..L
    kept; no checks."""
    coframe = reference_coframe(cf, eps)
    sqrt_det_g = evaluate(reference_det(coframe), grid_points(n)).real
    frame = np.linalg.inv(np.transpose(on_grid(coframe, n).real, (2, 1, 0)))
    num = ZERO
    dcof = entrywise(poly_derivative, coframe)
    for j in range(3):
        num = add(num, np.convolve(coframe[j][2], dcof[j][1]), -np.convolve(coframe[j][1], dcof[j][2]))
    potential = evaluate(num, grid_points(n)).real / (4.0 * sqrt_det_g)
    hats = np.fft.fft(np.array([frame[:, 0, 0], frame[:, 1, 0], frame[:, 2, 0], potential]), axis=-1) / n
    hats = hats[:, : (n - 1) // 4 + 1]
    hats[:, 0] = hats[:, 0].real
    return hats[:3], hats[3]


def reference_galerkin(op: DiracOperator, m: int) -> np.ndarray:
    """The entries of ``galerkin_matrix(op, m)``, to rounding: each block
    gathered through ``sliding_window_view`` from B^ and p^ (``operator_hats``),
    then the matrix symmetrized out of place."""
    b_hat, p_hat = (resize_degree(x, 2 * m) for x in operator_hats(op))
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
    return 0.5 * (entries + entries.conj().T)


def reference_paired_block(h: np.ndarray, theta: complex) -> np.ndarray:
    """The block (1/2) ((vv + ww) - (theta vw + conj(theta) wv)) of the
    matrix ``h`` of ``galerkin_matrix`` on the pairs (v_i - theta w_i)/sqrt(2),
    vv, vw, wv, ww its strided blocks between the v and w rows:
    ``galerkin._paired_block`` must equal it under ``==``, with the bits of
    its ``eigvalsh``."""
    vv, vw, wv, ww = h[0::2, 0::2], h[0::2, 1::2], h[1::2, 0::2], h[1::2, 1::2]
    block = theta * vw
    block += np.conj(theta) * wv
    np.subtract(vv + ww, block, out=block)
    block *= 0.5
    return block


def reference_track_pair(report, n: int) -> tuple[float, float]:
    """``galerkin.track_pair`` as one cell at a time: the rules spelled out
    with ``argpartition`` on the 1-d spectrum, raising TrackingError."""
    if abs(n) > report.m - tracking_buffer(report.m):
        raise TrackingError(f"mode {n} too close to truncation edge for m={report.m}")
    ev = report.eigenvalues
    dist = np.abs(ev - n)
    nearest = np.argpartition(dist, range(min(3, dist.size)))[:3]
    pair = ev[nearest[:2]]
    if np.max(np.abs(pair - n)) > CLUSTER_RADIUS:
        raise TrackingError(
            f"no eigenvalue pair within {CLUSTER_RADIUS} of mode {n} at "
            f"eps={report.eps}: nearest {pair}"
        )
    if nearest.size > 2 and dist[nearest[2]] <= CLUSTER_RADIUS:
        raise TrackingError(
            f"third eigenvalue {ev[nearest[2]]} within {CLUSTER_RADIUS} of mode {n} "
            f"at eps={report.eps}, next to the pair {pair}: crossing pairs, or a spurious "
            "eigenvalue of the truncation"
        )
    gap = float(abs(pair[1] - pair[0]))
    if gap > PAIRING_TOL:
        raise TrackingError(
            f"eigenvalues {pair} nearest mode {n} at eps={report.eps} are "
            f"{gap:.2e} apart, more than the pairing tolerance {PAIRING_TOL:.0e}"
        )
    return float(pair.mean()), gap


def reference_product_entry(x, y, a: int, b: int) -> np.ndarray:
    """Entry (a, b) of x @ y, summed over c in order onto the zero polynomial."""
    acc = ZERO
    for c in range(3):
        acc = add(acc, np.convolve(x[a][c], y[c][b]))
    return acc


def reference_h(cf: CoframeFamily) -> tuple:
    return entrywise(add, cf.E1, transpose(cf.E1))


def reference_k(cf: CoframeFamily) -> tuple:
    return scaled(entrywise(add, matmul(transpose(cf.E1), cf.E1), cf.E2, transpose(cf.E2)), 4.0)


def reference_apply(op: DiracOperator, c: np.ndarray) -> np.ndarray:
    """``op.apply(c)`` on one spinor as ten convolutions, q * v^ formed once
    per output row; ``apply`` contracts a Toeplitz view instead, which groups
    the sums differently."""
    q = np.arange(-degree(c[0]), degree(c[0]) + 1)
    top = op.degree + degree(c[0])
    k = np.arange(-top, top + 1)
    b_hat, p_hat = operator_hats(op)
    out = np.empty((2, k.size), dtype=complex)
    for a in range(2):
        bv = np.convolve(b_hat[a, 0], c[0]) + np.convolve(b_hat[a, 1], c[1])
        bqv = np.convolve(b_hat[a, 0], q * c[0]) + np.convolve(b_hat[a, 1], q * c[1])
        out[a] = 0.5 * (k * bv + bqv) + np.convolve(p_hat, c[a])
    return out


def reference_pseudoinverse(c: np.ndarray, n: int) -> np.ndarray:
    """The mode sum of ``perturbation.pseudoinverse(c, n)`` over the
    harmonics of ``c``, weighted per mode with 0 at the vanishing
    denominators; no checks."""
    q = np.arange(c.shape[-1]) - (c.shape[-1] - 1) // 2
    wa = np.array([0.0 if j == n else 0.5 / (j - n) for j in q])
    wb = np.array([0.0 if j == -n else 0.5 / (-j - n) for j in q])
    sym, anti = wa * (c[0] + c[1]), wb * (c[0] - c[1])
    return np.array([sym + anti, sym - anti])


def reference_flux_sum(hhat: np.ndarray, degree: int) -> complex:
    """sum_{0 < |m| <= degree} m * sum_a [conj(hhat_a2(m)) hhat_a3(m)
                                        - conj(hhat_a3(m)) hhat_a2(m)],

    read from ``hhat = harmonic_stack(h, top)`` for any top >= ``degree``,
    the degree of h, one harmonic after another."""
    top = (hhat.shape[0] - 1) // 2
    total = 0.0 + 0.0j
    for m in range(-degree, degree + 1):
        if m == 0:
            continue
        hm = hhat[m + top]
        total += m * np.sum(np.conj(hm[:, 1]) * hm[:, 2] - np.conj(hm[:, 2]) * hm[:, 1])
    return total


def reference_closed_route(cf: CoframeFamily) -> list[float]:
    """[l1(+1), l1(-1), l2(+1), l2(-1)] of the closed route, from
    ``reference_h``/``reference_k``, with one harmonic m after another in
    each sum; no checks."""
    h, k = reference_h(cf), reference_k(cf)
    d = field_degree(h)
    top = d + 4
    hhat = harmonic_stack(h, top)
    hsq00 = reference_product_entry(h, h, 0, 0)
    l1, l2 = [], []
    for n in (1, -1):
        l1.append(float(-n * 0.5 * fourier(h[0][0], 0).real))
        lead = n * (0.375 * fourier(hsq00, 0) - 0.125 * fourier(k[0][0], 0))
        flux = -(1j / 16.0) * reference_flux_sum(hhat, d)
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
    W2 built from ``reference_h``/``reference_k``, one mode after the other
    and W1 v_n applied afresh wherever it is read; no checks."""
    h, k = reference_h(cf), reference_k(cf)
    d1 = max(degree(h[j][0]) for j in range(3))
    a1 = np.array([-0.5 * resize_degree(h[j][0], d1)[d1:] for j in range(3)])
    a1[:, 0] = a1[:, 0].real
    w1 = DiracOperator(a1, np.zeros(d1 + 1))
    hcols = [reference_product_entry(h, h, j, 0) for j in range(3)]
    kcols = [k[j][0] for j in range(3)]
    scalar = ZERO
    dh = entrywise(poly_derivative, h)
    for a in range(3):
        scalar = add(scalar, np.convolve(h[a][1], dh[a][2]), -np.convolve(h[a][2], dh[a][1]))
    d2 = max(degree(c) for c in (*hcols, *kcols, scalar))
    hb, kb, p = (np.array([resize_degree(c, d2)[d2:] for c in cols]) for cols in (hcols, kcols, [scalar]))
    a2 = 0.375 * hb - 0.125 * kb
    a2[:, 0], p[:, 0] = a2[:, 0].real, p[:, 0].real
    w2 = DiracOperator(a2, -p[0] / 16.0)
    l1, l2 = [], []
    for n in (1, -1):
        v = basis_spinor(n, "v")
        first = float(inner(reference_apply(w1, v), v).real)
        residual = poly_sub(reference_apply(w1, v), v * complex(first))
        corrected = reference_pseudoinverse(residual, n)
        shifted = poly_sub(reference_apply(w1, corrected), corrected * complex(first))
        l1.append(first)
        l2.append(float((inner(reference_apply(w2, v), v) - inner(shifted, v)).real))
    return l1 + l2


# |eigenvalue - reference| relative to max(1, |reference|), for the sweep
# against the conftest gather and for the paired solve against the full one
# (see CHANGES.md for the worst cases measured)
EIGENVALUE_TOL = 1e-12


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    """True when a and b have one shape and dtype and identical bytes (so +0
    and -0 differ, and equal NaNs agree)."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
