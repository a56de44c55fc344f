"""Arithmetic on finite complex Fourier series over the circle of period 2*pi.

A trigonometric polynomial of degree D is f(x) = sum_{|k| <= D} c_k e^{ikx}.
Every coefficient function in this package (metric entries, perturbation
matrices, operator symbols, spinors) is held as such coefficients; only
E1 and E2 are sampled, by the one coframe sampler of ``geometry`` that the
operator pass and ``arc_length`` share. ``resize_degree`` pads or cuts any
array of coefficients centred on k = 0.

Degrees in this artifact are small, so coefficients are stored as a dense
array over k = -D..D and products are computed by direct convolution.

A function is its 1-d array of coefficients, ``c[k + D]`` holding c_k, and a
3x3 matrix of functions (a coframe, h, k) is nested 3x3 tuples of such
arrays, ``e[a][b]`` for entry (a, b), each at its own degree. ``_as_field``
brings any nested 3x3 sequence of arrays or scalars to that form. The
arithmetic is module-level functions on the arrays: ``poly_add``/``poly_sub``
(pad both operands to the larger degree, then add), ``np.convolve`` for
products, ``poly_derivative``, ``poly_on_grid``, ``matmul_entry`` and
``stack_entries``. Results keep their bits only while the order of
operations holds:

* each operand keeps its own length. Padding everything to one degree before
  ``np.convolve`` is not byte-safe: numpy's complex dot product goes through
  BLAS ``zdotu``, whose grouping of the partial sums depends on the length;
* a sum pads the shorter operand with +0 and adds, so a -0 coefficient of
  the longer one past the shorter one's degree comes out +0. Copying the
  longer operand and adding the shorter one into it keeps that -0: not the
  same bits.

Evaluation on the uniform grid ``grid_points(n)`` goes through
``poly_on_grid``, which multiplies the coefficients by the phase table
e^{ikx_j}, k = -D..D, built on each call by the direct formula
``np.exp(1j * np.multiply.outer(x, k))``. It runs once per sampled pass, so
no table is kept across calls and none needs a lock.
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


@lru_cache(maxsize=64)
def _ik(degree: int) -> np.ndarray:
    """i*k for k = -degree..degree (cached, read-only)."""
    ik = 1j * np.arange(-degree, degree + 1)
    ik.setflags(write=False)
    return ik


def poly_derivative(c: np.ndarray) -> np.ndarray:
    """Coefficients of d/dx along the last axis: c_k -> i k c_k."""
    return _ik((c.shape[-1] - 1) // 2) * c


def poly_on_grid(c: np.ndarray, n: int) -> np.ndarray:
    """Values on ``grid_points(n)``; a stack (..., 2D+1) of coefficient
    arrays gives (..., n), by one matrix product with the phase table."""
    degree = (c.shape[-1] - 1) // 2
    phases = np.exp(1j * np.multiply.outer(grid_points(n), np.arange(-degree, degree + 1)))
    return phases @ c if c.ndim == 1 else c @ phases.T


def _as_field(rows) -> tuple:
    """The 3x3 matrix of functions ``rows``, ``rows[a][b]`` a coefficient
    array or a scalar (a constant), as nested tuples of read-only complex
    copies. Raises ValueError unless each entry is 1-d of odd length."""
    out = []
    for a in range(3):
        row = []
        for b in range(3):
            c = np.array(rows[a][b], dtype=complex)
            if c.ndim == 0:
                c = c.reshape(1)
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
    """Coefficients of entry (a, b) of the product x @ y of two 3x3 matrices
    of trig polynomials, ``x[a][c]`` the coefficient array of entry (a, c):
    sum over c = 0, 1, 2 in that order of x[a][c] * y[c][b], added to the
    zero polynomial one term at a time."""
    acc = _ZERO
    for c in range(3):
        acc = poly_add(acc, np.convolve(x[a][c], y[c][b]))
    return acc


def stack_entries(entries, degree: int) -> np.ndarray:
    """The 3x3 entry coefficient arrays ``entries`` zero-padded to ``degree``
    (at least the largest entry degree) as one array (2*degree+1, 3, 3),
    whose element [m + degree] holds the coefficients at harmonic m."""
    return np.moveaxis(np.array([[resize_degree(c, degree) for c in row] for row in entries]), -1, 0)

