"""The axisymmetric massless Dirac operator on half-densities.

Every operator here has the normal form

    W v = -(i/2) * (B v' + (B v)') + p v

acting on 2-columns of complex functions of x^1, where B(x) is a pointwise
Hermitian trace-free 2x2 matrix built from three real functions (a1, a2, a3)
as [[a3, a1 - i a2], [a1 + i a2, -a3]] and p(x) is a real potential. The full
operator at fixed eps takes (a1, a2, a3) from the first frame column; the
first and second order terms of its eps-expansion take them from columns of
the metric perturbation matrices.

Spinors and operators are held as Fourier coefficients only. A spinor v is
a complex array of shape (2, 2K+1), ``c[a, k + K]`` the coefficient of
e^{ikx} in component a, and a stack of spinors one of shape (..., 2, 2K+1).
``inner`` is the L^2 product of two spinors, or of two stacks row by row
with broadcasting, and ``DiracOperator.apply`` maps each spinor of a stack
to another. With B^ and p^ the coefficients of B and p, the action is

    (W v)^(k) = sum_q [ (k + q)/2 B^(k - q) + p^(k - q) ] v^(q),

one contraction of the stack against a Toeplitz view of B^ and p^.

Sums of spinors go through ``trigpoly.poly_add``/``poly_sub``, which pad
both operands to the larger degree before they add; a spinor is scaled by
a complex scalar, ``c * complex(s)``, and a stack by one per spinor.

The first and second order terms have trigonometric-polynomial coefficients
and are built in coefficient arithmetic from h and k, entry coefficient
arrays (see ``trigpoly``), by ``_first_order_operator`` and
``_second_order_operator``. The full operator is sampled, in
``dirac_operators(cf, eps_values, n)``, one pass over an eps-sweep: from
``geometry._coframe_samples`` of every eps it forms B and p pointwise,
takes their FFT and keeps the frequencies |k| < n/4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CoframeFamily, NumericalContractError, _coframe_samples, coframe_tails, fft_tail
from .geometry import raise_first, tail_check
from .trigpoly import _ZERO, matmul_entry, poly_add, poly_derivative, poly_sub, resize_degree


def _spinor(c) -> np.ndarray:
    """``c`` as a complex array, after checking that it is a spinor or a stack
    of them, of shape (..., 2, 2K+1)."""
    c = np.asarray(c, dtype=complex)
    if c.ndim < 2 or c.shape[-2] != 2 or c.shape[-1] % 2 == 0:
        raise ValueError("spinor coefficients must have shape (2, 2K+1)")
    return c


def inner(u, v):
    """<u, v> = int_0^2pi v^* u dx = 2pi sum_k conj(v^_k) u^_k, summed over
    the harmonics that both spinors hold: a complex for two spinors, and an
    array over the broadcast leading axes for stacks."""
    u, v = _spinor(u), _spinor(v)
    d = (min(u.shape[-1], v.shape[-1]) - 1) // 2
    overlap = np.conj(resize_degree(v, d)) * resize_degree(u, d)
    total = 2.0 * np.pi * overlap.reshape(overlap.shape[:-2] + (-1,)).sum(axis=-1)
    return complex(total) if total.ndim == 0 else total


def symbol_matrix(a1: np.ndarray, a2: np.ndarray, a3: np.ndarray) -> np.ndarray:
    """Hermitian trace-free symbol [[a3, a1 - i a2], [a1 + i a2, -a3]].

    The map is linear, so the inputs may be grid samples or Fourier
    coefficients of real functions; the output has shape (2, 2, len(a1)).
    """
    return np.array([[a3, a1 - 1j * a2], [a1 + 1j * a2, -a3]])


def _contract_checks(b: np.ndarray, p: np.ndarray):
    """The contracts of ``DiracOperator`` over stacks b (..., 2, 2, 2L+1) and
    p (..., 2L+1), in order, as checks for ``geometry.raise_first``."""
    # B^ = (B^)^H entry by entry at k and -k: the defect of entry (1, 0)
    # mirrors that of (0, 1), and the diagonal ones are realness defects
    herm = np.abs(b - np.conj(b.swapaxes(-3, -2)[..., ::-1])).max(axis=(-3, -2, -1))
    b_tol = 1e-10 * np.fmax(1.0, np.abs(b).max(axis=(-3, -2, -1)))
    trace = np.abs(b[..., 0, 0, :] + b[..., 1, 1, :]).max(axis=-1)
    # a complex potential signals an index error upstream
    p_scale = np.fmax(1.0, np.abs(p).max(axis=-1))
    p_imag = np.abs(p - np.conj(p[..., ::-1])).max(axis=-1)

    def check(fails, message, value):
        return fails, lambda i: NumericalContractError(message.format(value.flat[i]))

    # each check reads "not defect <= tol", which a NaN defect fails
    return (
        check(~(herm <= b_tol), "symbol matrix not Hermitian: residual {:.2e}", herm),
        check(~(trace <= b_tol), "symbol matrix not trace-free: residual {:.2e}", trace),
        check(~(p_imag <= 1e-12 * p_scale), "potential has nonreal part above 1e-12 * {:.3e}", p_scale),
    )


@dataclass(frozen=True)
class DiracOperator:
    """First order operator v -> -(i/2)(B v' + (B v)') + p v, held as the
    Fourier coefficients of B and p over k = -L..L.

    B must be Hermitian and trace-free and p real, each to a tolerance times
    max(1, largest |coefficient|) of B or of p: rounding grows with the
    size of the data, so data of magnitude up to 1 keep the absolute
    tolerance. A NaN coefficient fails the checks.
    """

    b_hat: np.ndarray  # (2, 2, 2L+1), Hermitian and trace-free pointwise
    p_hat: np.ndarray  # (2L+1,), a real function

    def __post_init__(self):
        b = np.array(self.b_hat, dtype=complex, order="C")
        p = np.array(self.p_hat, dtype=complex, order="C")
        if b.ndim != 3 or b.shape[:2] != (2, 2) or b.shape[2] % 2 == 0 or p.shape != b.shape[2:]:
            raise ValueError("inconsistent symbol/potential shapes")
        raise_first(_contract_checks(b, p))
        self._hold(b, p)

    @classmethod
    def _checked(cls, b: np.ndarray, p: np.ndarray) -> "DiracOperator":
        """The operator on C-ordered complex ``b`` and ``p`` that passed
        ``_contract_checks``, built without running them again."""
        op = object.__new__(cls)
        op._hold(b, p)
        return op

    def _hold(self, b: np.ndarray, p: np.ndarray) -> None:
        for name, coeffs in (("b_hat", b), ("p_hat", p)):
            coeffs.setflags(write=False)
            object.__setattr__(self, name, coeffs)

    @property
    def degree(self) -> int:
        return (self.p_hat.size - 1) // 2

    def apply(self, c: np.ndarray) -> np.ndarray:
        """(W v)^(k) = sum_q [(k + q)/2 B^(k - q) + p^(k - q)] v^(q), exactly,
        for the spinor v with coefficients ``c``, or for each spinor of a
        stack (..., 2, 2K+1); raises ValueError on any other shape."""
        c = _spinor(c)
        d, top = (c.shape[-1] - 1) // 2, self.degree
        rows, cols = 2 * (top + d) + 1, 2 * d + 1
        # [B^00, B^01, B^10, B^11, p^] padded by 2K zeros a side; the Toeplitz
        # view [j, k + top + K, q + K] reads row j at the frequency k - q
        coeffs = resize_degree(np.concatenate((self.b_hat.reshape(4, -1), self.p_hat[None])), top + 2 * d)
        s0, s1 = coeffs.strides
        toeplitz = np.ndarray((5, rows, cols), complex, coeffs, 2 * d * s1, (s0, s1, -s1))
        weights = 0.5 * np.add.outer(np.arange(-top - d, top + d + 1), np.arange(-d, d + 1))  # (k + q)/2
        kernel = (weights * toeplitz[:4]).reshape(2, 2, rows, cols)
        kernel[0, 0] += toeplitz[4]
        kernel[1, 1] += toeplitz[4]
        return np.einsum("abir,...br->...ai", kernel, c)

    __call__ = apply


def dirac_operator(cf: CoframeFamily, eps: float, n: int) -> DiracOperator:
    """The operator of the family at ``eps`` on a grid of n points:
    ``dirac_operators(cf, (eps,), n)[0]``."""
    return dirac_operators(cf, (eps,), n)[0]


def dirac_operators(cf: CoframeFamily, eps_values, n: int) -> list[DiracOperator]:
    """Assemble the operator of the family at each of ``eps_values`` on a
    grid of n points, in one pass with the bits of one pass per eps.

    The symbol components are the first frame column e_j^1 = C_j1 / det e,
    C_j1 the cofactors of the coframe's first column, and the potential is

        p = sum_j (e^j_3 (e^j_2)' - e^j_2 (e^j_3)') / (4 sqrt(det g)),

    with sqrt(det g) = det e. Every eps's coframe and derivative samples,
    det e and the cofactors come from ``geometry._coframe_samples``, one
    sample of E1, E2 and their derivatives at the harmonics |k| < n/4; the
    numerator of p is formed on them pointwise. B and p take one FFT each,
    divided by n and kept at |k| < n/4.

    Raises what ``[dirac_operator(cf, eps, n) for eps in eps_values]``
    raises: the first failing eps, at its first failing check of the coframe
    tail (``coframe_tails``, before anything is sampled), the realness of
    the samples and det e (``sample_checks``), the ``DiracOperator``
    contracts and the FFT tail.
    """
    eps = np.asarray(eps_values, dtype=float)
    past, error = tail_check(coframe_tails(cf, eps, n))
    stop = int(np.argmax(past)) if past.any() else eps.size  # nothing past it is sampled
    ops = _sampled_operators(cf, eps[:stop], n) if stop else []
    raise_first(((past, error),))
    return ops


def _sampled_operators(cf: CoframeFamily, eps: np.ndarray, n: int) -> list[DiracOperator]:
    """``dirac_operators`` at the 1-d ``eps``, whose coframe tails passed. The
    checks run once over the stacks, in the order of ``dirac_operators``."""
    top = (n - 1) // 4  # the largest |k| below n/4
    values, cofactors, det, checks = _coframe_samples(cf, eps, n)
    _, e01, e02, _, e11, e12, _, e21, e22, d01, d02, d11, d12, d21, d22 = values
    with np.errstate(all="ignore"):  # det e may vanish, or samples overflow, at an eps that fails below
        num = (e02 * d01 - e01 * d02) + (e12 * d11 - e11 * d12) + (e22 * d21 - e21 * d22)
        b_hat = np.fft.fft(symbol_matrix(*(cofactors / det)), axis=-1) / n
        p_hat = np.fft.fft(num / (4.0 * det), axis=-1) / n
    kept = np.arange(-top, top + 1) % n  # FFT indices of the frequencies |k| < n/4
    # (E, 2, 2, 2L+1) and (E, 2L+1): each eps's operator is a C-ordered block
    b, p = np.ascontiguousarray(np.moveaxis(b_hat[..., kept], 2, 0)), p_hat[:, kept]
    tails = np.maximum(fft_tail(b_hat, n, (0, 1, 3)), fft_tail(p_hat, n, 1))
    raise_first((*checks, *_contract_checks(b, p), tail_check(tails)))
    return [DiracOperator._checked(b[e], p[e]) for e in range(eps.size)]


# The two builders below take h and k as entry coefficient arrays, ``h[a][b]``
# for entry (a, b), and do not check them: ``perturbation.perturbation_report``
# builds h and k itself and checks that both are real and symmetric.

def _first_order_operator(h) -> DiracOperator:
    """Linear term W1 of the eps-expansion of the operator family.

    Expanding the frame gives the symbol -(1/2) * B_h with B_h built from the
    first column of h; the action is then +(i/4)(B_h d/dx + d/dx B_h). The
    potential only enters at second order.
    """
    d = max((h[j][0].size - 1) // 2 for j in range(3))
    cols = [resize_degree(h[j][0], d) for j in range(3)]
    return DiracOperator(-0.5 * symbol_matrix(*cols), np.zeros(2 * d + 1))


def _second_order_operator(h, k) -> DiracOperator:
    """Quadratic term W2 of the eps-expansion.

    Symbol (3/8) B_{h^2} - (1/8) B_k from the frame expansion, plus the real
    scalar potential -(1/16) * sum_a (h_{a2} h_{a3}' - h_{a3} h_{a2}'), the
    antisymmetrized first-column-free part of the half-density term. Of h^2
    only the first column is built, each entry by ``matmul_entry``.
    """
    hcols = [matmul_entry(h, h, j, 0) for j in range(3)]
    kcols = [k[j][0] for j in range(3)]
    scalar = _ZERO
    for a in range(3):
        scalar = poly_sub(
            poly_add(scalar, np.convolve(h[a][1], poly_derivative(h[a][2]))),
            np.convolve(h[a][2], poly_derivative(h[a][1])),
        )
    d = max((c.size - 1) // 2 for c in (*hcols, *kcols, scalar))
    hb, kb = (symbol_matrix(*(resize_degree(c, d) for c in cols)) for cols in (hcols, kcols))
    return DiracOperator(0.375 * hb - 0.125 * kb, -resize_degree(scalar, d) / 16.0)
