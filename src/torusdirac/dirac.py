"""The axisymmetric massless Dirac operator on half-densities.

Every operator here has the normal form

    W v = -(i/2) * (B v' + (B v)') + p v

acting on 2-columns of complex functions of x^1, where B(x) is the pointwise
Hermitian trace-free 2x2 matrix [[a3, a1 - i a2], [a1 + i a2, -a3]] of three
real functions (a1, a2, a3) and p(x) is a real potential. The full operator
at fixed eps takes (a1, a2, a3) from the first frame column; the first and
second order terms of its eps-expansion take them from columns of the
metric perturbation matrices.

Spinors and operators are held as Fourier coefficients only. An operator
holds the half spectra c_0..c_L of a1, a2, a3 and p (``numpy.fft.rfft``
layout, c_0 real) and forms c_-k = conj(c_k) by ``trigpoly.real_spectrum``
where it reads them, so B is Hermitian and trace-free and p real by
construction. A spinor v is a complex array of shape (2, 2K+1), ``c[a, k +
K]`` the coefficient of e^{ikx} in component a, and a stack of spinors one
of shape (..., 2, 2K+1). ``inner`` is the L^2 product of two spinors, or of
two stacks row by row with broadcasting, and ``DiracOperator.apply`` maps
each spinor of a stack to another. With B^ and p^ the coefficients of B and
p, the action is

    (W v)^(k) = sum_q [ (k + q)/2 B^(k - q) + p^(k - q) ] v^(q)
              = sum_q [ B^(k - q) q v^(q) + ((k - q)/2 B^(k - q) + p^(k - q)) v^(q) ],

one ``trigpoly._field_product`` of the field [B^ | k/2 B^ + p^ I] and the
stack [q v^; v^].

Sums of spinors go through ``trigpoly.poly_add``/``poly_sub``, which pad
both operands to the larger degree before they add; a spinor is scaled by
a complex scalar, ``c * complex(s)``, and a stack by one per spinor.

The first and second order terms have trigonometric-polynomial coefficients
and are built in coefficient arithmetic from the stacks of h and of the
first column of k (see ``trigpoly``), by ``_first_order_operator`` and
``_second_order_operator``. The full operator is sampled, in
``dirac_operators(cf, eps_values, n)``, one pass over an eps-sweep: from
``geometry._coframe_samples`` of every eps it forms (a1, a2, a3) and p
pointwise, takes their real FFT and keeps the frequencies k < n/4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CoframeFamily, NumericalContractError, _coframe_samples, coframe_tails, fft_tail
from .geometry import raise_first, tail_check
from .trigpoly import _degree, _field_product, half_spectrum, poly_derivative, real_spectrum, resize_degree


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


# the field [B | k/2 B + p I] of ``DiracOperator.apply`` is sum_j c_j F_j over the
# coefficients c = (a1, a2, a3, k/2 a1, k/2 a2, k/2 a3, p), B = a1 s1 + a2 s2 + a3 s3
# with the Pauli matrices s_j: F_j is [s_j | 0], then [0 | s_j], then [0 | I]
_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_FIELD_BASIS = np.zeros((7, 2, 4), dtype=complex)
_FIELD_BASIS[:3, :, :2], _FIELD_BASIS[3:6, :, 2:], _FIELD_BASIS[6, :, 2:] = _PAULI, _PAULI, np.eye(2)
_FIELD_BASIS.setflags(write=False)


@dataclass(frozen=True)
class DiracOperator:
    """First order operator v -> -(i/2)(B v' + (B v)') + p v, held as the
    half spectra c_0..c_L (``numpy.fft.rfft`` layout) of the real functions
    a1, a2, a3 of B = [[a3, a1 - i a2], [a1 + i a2, -a3]] and of p.

    The constructor checks the shapes (else ValueError), that every
    coefficient is finite and that each c_0 is real (else
    NumericalContractError); B is Hermitian and trace-free and p real by
    construction.
    """

    a_hat: np.ndarray  # (3, L+1): a1, a2, a3
    p_hat: np.ndarray  # (L+1,)

    def __post_init__(self):
        a = np.array(self.a_hat, dtype=complex)
        p = np.array(self.p_hat, dtype=complex)
        if a.ndim != 2 or a.shape[0] != 3 or a.shape[1] == 0 or p.shape != a.shape[1:]:
            raise ValueError("a_hat must have shape (3, L+1) and p_hat shape (L+1,)")
        if not (np.isfinite(a).all() and np.isfinite(p).all()):
            raise NumericalContractError("operator coefficient is not finite")
        if a[:, 0].imag.any() or p[0].imag:
            raise NumericalContractError("c_0 of a real function has a nonzero imaginary part")
        for name, coeffs in (("a_hat", a), ("p_hat", p)):
            coeffs.setflags(write=False)
            object.__setattr__(self, name, coeffs)

    @property
    def degree(self) -> int:
        return self.p_hat.size - 1

    def apply(self, c: np.ndarray) -> np.ndarray:
        """(W v)^(k) = sum_q [(k + q)/2 B^(k - q) + p^(k - q)] v^(q), exactly,
        for the spinor v with coefficients ``c``, or for each spinor of a
        stack (..., 2, 2K+1), as (..., 2, 2(L+K)+1); raises ValueError on
        any other shape."""
        c = _spinor(c)
        d, top = (c.shape[-1] - 1) // 2, self.degree
        if not c.size:  # an empty stack
            return np.zeros(c.shape[:-1] + (2 * (top + d) + 1,), dtype=complex)
        a = real_spectrum(self.a_hat, top)
        coeffs = np.concatenate((a, 0.5 * np.arange(-top, top + 1) * a, real_spectrum(self.p_hat, top)[None]))
        v = c.reshape(-1, 2, 2 * d + 1)
        stack = np.concatenate((np.arange(-d, d + 1) * v, v), axis=1).transpose(1, 0, 2)  # (4, S, 2K+1)
        out = _field_product(np.einsum("jac,jk->ack", _FIELD_BASIS, coeffs), stack)
        return resize_degree(out, top + d).transpose(1, 0, 2).reshape(c.shape[:-1] + (-1,))

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
    numerator of p is formed on them pointwise. (a1, a2, a3) and p take one
    real FFT each, divided by n and kept at k < n/4.

    Raises what ``[dirac_operator(cf, eps, n) for eps in eps_values]``
    raises: the first failing eps, at its first failing check of the coframe
    tail (``coframe_tails``, before anything is sampled), det e
    (``sample_checks``) and the FFT tail, each of which a NaN or an overflow
    fails.
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
        a_hat = np.fft.rfft(cofactors / det, axis=-1, norm="forward")  # (3, E, n//2 + 1)
        p_hat = np.fft.rfft(num / (4.0 * det), axis=-1, norm="forward")
    tails = np.maximum(fft_tail(a_hat, n, (0, 2)), fft_tail(p_hat, n, 1))
    raise_first((*checks, tail_check(tails)))
    return [DiracOperator(a_hat[:, e, : top + 1], p_hat[e, : top + 1]) for e in range(eps.size)]


# The two builders below take h, a stack (3, 3, 2D+1) with ``h[a][b]`` for
# entry (a, b), and the first column of k, a stack (3, 1, 2D'+1), as
# ``geometry._metric_data`` builds them, and check neither: they keep the
# k >= 0 half of what they build, so W1 and W2 are real by construction.

def _first_order_operator(h: np.ndarray) -> DiracOperator:
    """Linear term W1 of the eps-expansion of the operator family.

    Expanding the frame gives the symbol -(1/2) * B_h with B_h built from the
    first column of h; the action is then +(i/4)(B_h d/dx + d/dx B_h). The
    potential only enters at second order.
    """
    d = _degree(h[:, 0])  # the column's own degree, not that of all of h
    return DiracOperator(-0.5 * half_spectrum(resize_degree(h[:, 0], d)), np.zeros(d + 1))


def _second_order_operator(h: np.ndarray, k: np.ndarray) -> DiracOperator:
    """Quadratic term W2 of the eps-expansion.

    Symbol (3/8) B_{h^2} - (1/8) B_k from the frame expansion, plus the real
    scalar potential -(1/16) * sum_a (h_{a2} h_{a3}' - h_{a3} h_{a2}'), the
    antisymmetrized first-column-free part of the half-density term. Of h^2
    only the first column is built; the potential's numerator is the product
    of the row [h_a2, h_a3] and the column [h_a3', -h_a2'], a = 1, 2, 3.
    """
    dh = poly_derivative(h)
    hcols = _field_product(h, h[:, :1])[:, 0]
    row, col = np.concatenate((h[:, 1], h[:, 2])), np.concatenate((dh[:, 2], -dh[:, 1]))
    scalar = _field_product(row[None], col[:, None])[0, 0]
    d = max(map(_degree, (hcols, k[:, 0], scalar)))  # the degree each really has
    hb, kb, p = (half_spectrum(resize_degree(x, d)) for x in (hcols, k[:, 0], scalar))
    return DiracOperator(0.375 * hb - 0.125 * kb, -p / 16.0)
