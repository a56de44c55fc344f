"""Arithmetic on finite complex Fourier series over the circle of period 2*pi.

A trigonometric polynomial of degree D is f(x) = sum_{|k| <= D} c_k e^{ikx}.
Every coefficient function in this package (metric entries, perturbation
matrices, operator symbols, spinors) is held as such coefficients; only
E1 and E2 are sampled, by the one coframe sampler of ``geometry`` that the
operator pass and ``arc_length`` share. ``resize_degree`` pads or cuts any
array of coefficients centred on k = 0.

Degrees in this artifact are small, so a function is the dense 1-d array of
its coefficients, ``c[k + D]`` holding c_k, and products are direct
convolutions: ``np.convolve`` of two arrays, or, for a small product of two
stacks, one ``einsum`` against a Toeplitz view. A coframe (E1, E2) is
nested 3x3 tuples of such arrays, ``e[a][b]`` for entry (a, b), each at its
own degree, as ``_as_field`` makes it from any nested 3x3 sequence of arrays
or scalars; the coefficient routes stack E1, E2, h and k as arrays (3, 3,
2D+1) by ``stack_field``. The arithmetic is module-level functions on the
arrays: ``poly_add``/``poly_sub`` (pad both operands to the larger degree,
then add), ``np.convolve``, ``matmul_entry``, ``_field_product`` (the
product of two stacks: one ``einsum`` when small, else entry by entry, each
entry at its own degree) and ``poly_derivative``.

A real function past parse, such as the symbol components and the potential
of an operator, is held as its half spectrum c_0..c_L, ``numpy.fft.rfft``
layout with c_0 real: ``half_spectrum`` takes it from the coefficients of a
function checked real, and ``real_spectrum`` forms c_-k = conj(c_k) where
the full coefficients are read, so that data is real by construction.

Results keep their bits only while the order of operations holds:

* each operand keeps its own length. Padding everything to one degree before
  ``np.convolve`` is not byte-safe: numpy's complex dot product goes through
  BLAS ``zdotu``, whose grouping of the partial sums depends on the length.
  The rule now binds only ``CoframeFamily.from_perturbation``, whose E2,
  built by ``matmul_entry``, every Galerkin solve of a perturbation family reads;
* a sum pads the shorter operand with +0 and adds, so a -0 coefficient of
  the longer one past the shorter one's degree comes out +0. Copying the
  longer operand and adding the shorter one into it keeps that -0: not the
  same bits.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

#: Coefficient tolerance of the realness and symmetry checks, for data up to 1.
COEFF_TOL = 1e-12

# coefficients of the zero polynomial, shared read-only
_ZERO = np.zeros(1, dtype=complex)
_ZERO.setflags(write=False)


@lru_cache(maxsize=8)
def grid_points(n: int) -> np.ndarray:
    """Uniform grid x_j = 2*pi*j/n, j = 0..n-1 (cached, read-only)."""
    x = 2.0 * np.pi * np.arange(n) / n
    x.setflags(write=False)
    return x


def resize_degree(coeffs: np.ndarray, degree: int) -> np.ndarray:
    """Coefficients over k = -D..D along the last axis, zero-padded or cut to
    k = -degree..degree; the input itself or a view when nothing is padded."""
    d = (coeffs.shape[-1] - 1) // 2
    if degree == d:
        return coeffs
    if degree < d:
        return coeffs[..., d - degree : d + degree + 1]
    out = np.zeros(coeffs.shape[:-1] + (2 * degree + 1,), dtype=complex)
    out[..., degree - d : degree + d + 1] = coeffs
    return out


def poly_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficients of a + b along the last axis: both zero-padded to the
    larger degree, then added; always a new array."""
    na, nb = a.shape[-1], b.shape[-1]
    if na < nb:
        return resize_degree(a, (nb - 1) // 2) + b
    return a + resize_degree(b, (na - 1) // 2)


def poly_sub(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficients of a - b, as ``poly_add(a, -b)``."""
    return poly_add(a, -b)


def poly_derivative(c: np.ndarray) -> np.ndarray:
    """Coefficients of d/dx along the last axis: c_k -> i k c_k."""
    d = (c.shape[-1] - 1) // 2
    return 1j * np.arange(-d, d + 1) * c


def half_spectrum(c: np.ndarray) -> np.ndarray:
    """The half spectra c_0..c_D, along the last axis, of real functions
    whose coefficients c_-D..c_D ``c`` have been checked real: a copy with
    c_0 held real."""
    half = c[..., (c.shape[-1] - 1) // 2 :].copy()
    half[..., 0] = half[..., 0].real
    return half


def real_spectrum(half: np.ndarray, degree: int) -> np.ndarray:
    """Coefficients c_-degree..c_degree, along the last axis, of the real
    functions with the half spectra ``half`` (..., L+1), c_-k = conj(c_k),
    zero past L."""
    half = half[..., : degree + 1]
    return resize_degree(np.concatenate((np.conj(half[..., :0:-1]), half), axis=-1), degree)


def _as_field(rows) -> tuple:
    """The 3x3 matrix of functions ``rows``, ``rows[a][b]`` a coefficient
    array or a scalar (a constant), as nested tuples of read-only complex
    copies. Raises ValueError unless each entry is 1-d of odd length."""
    out = []
    for a in range(3):
        row = []
        for b in range(3):
            c = np.atleast_1d(np.array(rows[a][b], dtype=complex))
            if c.ndim != 1 or c.size % 2 == 0:
                raise ValueError("coefficient array must be 1-d with odd length 2*D+1")
            c.setflags(write=False)
            row.append(c)
        out.append(tuple(row))
    return tuple(out)


def field_degree(entries) -> int:
    """Largest trig degree among the entry coefficient arrays."""
    return max((c.size - 1) // 2 for row in entries for c in row)


def matmul_entry(x, y, a: int, b: int) -> np.ndarray:
    """Coefficients of entry (a, b) of the product x @ y of two matrices of
    trig polynomials, ``x[a][c]`` the coefficient array of entry (a, c):
    sum over c = 0, 1, ... in that order of x[a][c] * y[c][b], added to the
    zero polynomial one term at a time."""
    acc = _ZERO
    for c in range(len(y)):
        acc = poly_add(acc, np.convolve(x[a][c], y[c][b]))
    return acc


def stack_field(entries, degree: int) -> np.ndarray:
    """The complex entry coefficient arrays ``entries`` of a matrix of
    functions, nested rows of them, zero-padded or cut to ``degree`` as one
    stack (rows, columns, 2*degree+1): each entry is copied into the middle
    of one zero stack."""
    out = np.zeros((len(entries), len(entries[0]), 2 * degree + 1), dtype=complex)
    for a, row in enumerate(entries):
        for b, c in enumerate(row):
            d = (c.shape[-1] - 1) // 2
            if d <= degree:
                out[a, b, degree - d : degree + d + 1] = c
            else:
                out[a, b] = c[d - degree : d + degree + 1]
    return out


def _degrees(x: np.ndarray) -> np.ndarray:
    """Largest |k| with a nonzero coefficient in each entry of the stack ``x``, 0 if none."""
    d = (x.shape[-1] - 1) // 2
    return np.where(x != 0, np.abs(np.arange(-d, d + 1)), 0).max(-1)


def _degree(x: np.ndarray) -> int:
    """Largest |k| with a nonzero coefficient in any entry of the stack ``x``, 0 if none."""
    return (x.shape[-1] - 1) // 2 if np.count_nonzero(x[..., 0]) else int(_degrees(x).max())


# einsum multiply-adds per entry pair above which ``_field_product`` convolves
# entry by entry: 4096 of them take about what the calls for one entry pair
# cost (~7 us), and the two paths tie near a 3x3 field of one degree ~22
_EINSUM_LIMIT = 1 << 12


def _field_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients of the matrix product x @ y of the stacks x (A, C, 2Dx+1)
    and y (C, B, 2Dy+1), each cut to its ``_degree``, as a stack (A, B,
    2(Dx+Dy)+1). Up to ``_EINSUM_LIMIT`` multiply-adds a pair, one ``einsum`` of x
    against a copy-free Toeplitz view of y zero-padded by 2Dx a side, [c, b,
    k, j] the coefficient of y[c, b] at k - j; above, ``matmul_entry`` of the
    entries cut to their own ``_degrees``, so mixed degrees cost what entries do."""
    x, y = resize_degree(x, _degree(x)), resize_degree(y, _degree(y))
    width, size = x.shape[-1] - 1, y.shape[-1]
    if (width + size) * (width + 1) > _EINSUM_LIMIT:
        x, y = ([list(map(resize_degree, *row)) for row in zip(s, _degrees(s).tolist())] for s in (x, y))
        z = [[matmul_entry(x, y, a, b) for b in range(len(y[0]))] for a in range(len(x))]
        return stack_field(z, field_degree(z))
    padded = np.zeros(y.shape[:-1] + (size + 2 * width,), dtype=complex)
    padded[..., width : width + size] = y
    *lead, step = padded.strides
    shape = y.shape[:-1] + (size + width, width + 1)
    toeplitz = np.ndarray(shape, complex, padded, width * step, (*lead, step, -step))
    return np.einsum("acj,cbkj->abk", x, toeplitz)
