"""The axisymmetric massless Dirac operator on half-densities.

Every operator here has the normal form

    W v = -(i/2) * (B v' + (B v)') + p v

acting on 2-columns of complex functions of x^1, where B(x) is the pointwise
Hermitian trace-free 2x2 matrix [[a3, a1 - i a2], [a1 + i a2, -a3]] of three
real functions (a1, a2, a3) and p(x) is a real potential. This module holds
that normal form, ``DiracOperator.apply``, ``inner`` and the sampled pass that
builds the full operator of a family at fixed eps, whose (a1, a2, a3) is the
first frame column; ``perturbation`` builds the terms of its eps-expansion.

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
stack [q v^; v^]. An operator builds that field on its first ``apply`` and
holds it, read-only, for every later one; a Galerkin solve never applies its
operator, so it never builds one. W1 and W2 of ``perturbation``, real by
construction, are held by ``DiracOperator._of``: no copy, a finiteness check.

Sums of spinors go through ``trigpoly.poly_add``/``poly_sub``, which pad
both operands to the larger degree before they add; a spinor is scaled by
a complex scalar, ``c * complex(s)``, and a stack by one per spinor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import CoframeFamily, NumericalContractError, _coframe_samples, coframe_tails, fft_tail
from .geometry import raise_first, tail_check
from .trigpoly import _degree, _field_product, real_spectrum, resize_degree


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
# with the Pauli matrices s_j: F_j is [s_j | 0], then [0 | s_j], then [0 | I]. Its
# eight entries are the rows of _FIELD_MAP @ c. Each is a sum of at most two c_j, each
# times 1, -1, i or -i, so every product is exact and the sum rounds once, in any
# order; + 0.0 turns a -0 entry into the +0 of a sum begun at 0, so the field keeps
# the bytes of the einsum over the F_j.
_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_FIELD_BASIS = np.zeros((7, 2, 4), dtype=complex)
_FIELD_BASIS[:3, :, :2], _FIELD_BASIS[3:6, :, 2:], _FIELD_BASIS[6, :, 2:] = _PAULI, _PAULI, np.eye(2)
_FIELD_BASIS.setflags(write=False)
_FIELD_MAP = np.ascontiguousarray(_FIELD_BASIS.reshape(7, 8).T)  # (8, 7): entry (a, c) is row 4a + c
_FIELD_MAP.setflags(write=False)


def _require_finite(a_hat: np.ndarray, p_hat: np.ndarray) -> None:
    if not (np.isfinite(a_hat).all() and np.isfinite(p_hat).all()):
        raise NumericalContractError("operator coefficient is not finite")


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
        _require_finite(a, p)
        if a[:, 0].imag.any() or p[0].imag:
            raise NumericalContractError("c_0 of a real function has a nonzero imaginary part")
        for name, coeffs in (("a_hat", a), ("p_hat", p)):
            coeffs.setflags(write=False)
            object.__setattr__(self, name, coeffs)

    @classmethod
    def _of(cls, a_hat: np.ndarray, p_hat: np.ndarray) -> DiracOperator:
        """The operator of the half spectra ``a_hat`` (3, L+1) and ``p_hat``
        (L+1,), complex arrays that no one else holds, of that shape and with
        c_0 real by construction: held as they are, with no copy, and checked
        finite only (else NumericalContractError)."""
        _require_finite(a_hat, p_hat)
        op = object.__new__(cls)
        for name, coeffs in (("a_hat", a_hat), ("p_hat", p_hat)):
            coeffs.setflags(write=False)
            object.__setattr__(op, name, coeffs)
        return op

    @property
    def degree(self) -> int:
        return self.p_hat.size - 1

    @cached_property
    def _field(self) -> np.ndarray:
        """The field [B^ | k/2 B^ + p^ I] of ``apply``, (2, 4, 2F+1) at its
        own degree F <= L: built on the first ``apply``, then read-only."""
        top = self.degree
        spectra = real_spectrum(np.concatenate((self.a_hat, self.p_hat[None])), top)  # a1, a2, a3, p
        a = spectra[:3]
        coeffs = np.concatenate((a, 0.5 * np.arange(-top, top + 1) * a, spectra[3:]))
        field = (_FIELD_MAP @ coeffs).reshape(2, 4, -1) + 0.0
        field = resize_degree(field, _degree(field))
        field.setflags(write=False)
        return field

    def apply(self, c: np.ndarray) -> np.ndarray:
        """(W v)^(k) = sum_q [(k + q)/2 B^(k - q) + p^(k - q)] v^(q), exactly,
        for the spinor v with coefficients ``c``, or for each spinor of a
        stack (..., 2, 2K+1), as (..., 2, 2(L+K)+1); raises ValueError on
        any other shape."""
        c = _spinor(c)
        d, top = (c.shape[-1] - 1) // 2, self.degree
        if not c.size:  # an empty stack
            return np.zeros(c.shape[:-1] + (2 * (top + d) + 1,), dtype=complex)
        v = c.reshape(-1, 2, 2 * d + 1)
        stack = np.concatenate((np.arange(-d, d + 1) * v, v), axis=1).transpose(1, 0, 2)  # (4, S, 2K+1)
        out = _field_product(self._field, stack)
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
    tails, harmonics = coframe_tails(cf, eps, n)
    top = (n - 1) // 4  # the largest |k| below n/4
    past, error = tail_check(tails, lambda e: f"harmonic {harmonics[e]} of the coframe lies past the band "
                             f"|k| <= {top} that {n} sample points keep")
    stop = int(np.argmax(past)) if past.any() else eps.size
    ops = []
    if stop:  # nothing at or past the first eps whose tail fails is sampled
        values, cofactors, det, checks = _coframe_samples(cf, eps[:stop], n)
        _, e01, e02, _, e11, e12, _, e21, e22, d01, d02, d11, d12, d21, d22 = values
        with np.errstate(all="ignore"):  # det e may vanish, or samples overflow, at an eps that fails below
            num = (e02 * d01 - e01 * d02) + (e12 * d11 - e11 * d12) + (e22 * d21 - e21 * d22)
            a_hat = np.fft.rfft(cofactors / det, axis=-1, norm="forward")  # (3, E, n//2 + 1)
            p_hat = np.fft.rfft(num / (4.0 * det), axis=-1, norm="forward")
        tails = np.maximum(fft_tail(a_hat, n, (0, 2)), fft_tail(p_hat, n, 1))
        raise_first((*checks, tail_check(tails)))
        ops = [DiracOperator(a_hat[:, e, : top + 1], p_hat[e, : top + 1]) for e in range(stop)]
    raise_first(((past, error),))
    return ops
