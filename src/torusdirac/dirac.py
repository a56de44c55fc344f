"""The axisymmetric massless Dirac operator on half-densities.

Every operator here has the normal form

    W v = -(i/2) * (B v' + (B v)') + p v

acting on 2-columns of complex functions of x^1, where B(x) is a pointwise
Hermitian trace-free 2x2 matrix built from three real functions (a1, a2, a3)
as [[a3, a1 - i a2], [a1 + i a2, -a3]] and p(x) is a real potential. The full
operator at fixed eps takes (a1, a2, a3) from the first frame column; the
first and second order terms of its eps-expansion take them from columns of
the metric perturbation matrices.

Spinors and operators are held as Fourier coefficients only. With B^ and p^
the coefficients of B and p, the action is the finite convolution

    (W v)^(k) = sum_q [ (k + q)/2 B^(k - q) + p^(k - q) ] v^(q).

The first and second order terms have trigonometric-polynomial coefficients
and are built in coefficient arithmetic. The frame is rational, so
``dirac_operator`` is the one place that samples: it takes the FFT of B and p
on the snapshot's grid and keeps the frequencies |k| < n/4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import MetricSnapshot, NumericalContractError, require_sym_real
from .trigpoly import Matrix3Field, TrigPoly, resize_degree

#: Largest Fourier coefficient that sampling may drop at |k| >= n/4.
ALIASING_LIMIT = 1e-9


class UnderResolvedError(NumericalContractError):
    """Grid too coarse for the Fourier tail of the operator coefficients."""


def _real_defect(coeffs: np.ndarray) -> float:
    """Largest |c_k - conj(c_-k)|: zero exactly when the function is real."""
    return float(np.max(np.abs(coeffs - np.conj(coeffs[..., ::-1]))))


@dataclass(frozen=True)
class SpinorField:
    """2-column complex function of x^1 held as Fourier coefficients:
    ``coeffs[c, k + K]`` is the coefficient of e^{ikx} in component c."""

    coeffs: np.ndarray  # shape (2, 2K+1)

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=complex)
        if c.ndim != 2 or c.shape[0] != 2 or c.shape[1] % 2 == 0:
            raise ValueError("spinor coefficients must have shape (2, 2K+1)")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return (self.coeffs.shape[1] - 1) // 2

    @classmethod
    def from_components(cls, upper: TrigPoly, lower: TrigPoly) -> "SpinorField":
        d = max(upper.degree, lower.degree)
        return cls(np.array([resize_degree(upper.coeffs, d), resize_degree(lower.coeffs, d)]))

    # ------------------------------------------------------------------
    # Hilbert space structure: <u, v> = int_0^2pi v^* u dx = 2pi sum_k v^_k^* u^_k
    # ------------------------------------------------------------------

    def inner(self, other: "SpinorField") -> complex:
        d = min(self.degree, other.degree)
        overlap = np.conj(resize_degree(other.coeffs, d)) * resize_degree(self.coeffs, d)
        return complex(2.0 * np.pi * np.sum(overlap))

    def norm(self) -> float:
        return float(np.sqrt(max(self.inner(self).real, 0.0)))

    def bandwidth(self) -> int:
        """Largest |k| carrying a coefficient above 1e-13."""
        live = np.nonzero(np.abs(self.coeffs).max(axis=0) > 1e-13)[0]
        return int(np.abs(live - self.degree).max()) if live.size else 0

    def __add__(self, other: "SpinorField") -> "SpinorField":
        d = max(self.degree, other.degree)
        return SpinorField(resize_degree(self.coeffs, d) + resize_degree(other.coeffs, d))

    def __sub__(self, other: "SpinorField") -> "SpinorField":
        return self + (-other)

    def __mul__(self, scalar) -> "SpinorField":
        return SpinorField(self.coeffs * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "SpinorField":
        return SpinorField(-self.coeffs)


def charge_conjugate(v: SpinorField) -> SpinorField:
    """Antilinear map (v1, v2) -> (-conj(v2), conj(v1)); squares to -I.

    The conjugate function of sum_k c_k e^{ikx} has coefficients conj(c_-k).
    """
    c = np.conj(v.coeffs[:, ::-1])
    return SpinorField(np.array([-c[1], c[0]]))


def symbol_matrix(a1: np.ndarray, a2: np.ndarray, a3: np.ndarray) -> np.ndarray:
    """Hermitian trace-free symbol [[a3, a1 - i a2], [a1 + i a2, -a3]].

    The map is linear, so the inputs may be grid samples or Fourier
    coefficients of real functions; the output has shape (2, 2, len(a1)).
    """
    return np.array([[a3, a1 - 1j * a2], [a1 + 1j * a2, -a3]])


@dataclass(frozen=True)
class DiracOperator:
    """First order operator v -> -(i/2)(B v' + (B v)') + p v, held as the
    Fourier coefficients of B and p over k = -L..L.

    ``aliasing`` is the largest coefficient that sampling dropped (see
    ``dirac_operator``); 0 for an operator built from exact coefficients.
    """

    b_hat: np.ndarray  # (2, 2, 2L+1), Hermitian and trace-free pointwise
    p_hat: np.ndarray  # (2L+1,), a real function
    aliasing: float = 0.0

    def __post_init__(self):
        b = np.array(self.b_hat, dtype=complex)
        p = np.array(self.p_hat, dtype=complex)
        if b.ndim != 3 or b.shape[:2] != (2, 2) or b.shape[2] % 2 == 0 or p.shape != b.shape[2:]:
            raise ValueError("inconsistent symbol/potential shapes")
        herm = max(
            float(np.max(np.abs(b[0, 1] - np.conj(b[1, 0, ::-1])))),
            _real_defect(b[0, 0]),
            _real_defect(b[1, 1]),
        )
        if herm > 1e-10:
            raise NumericalContractError(f"symbol matrix not Hermitian: residual {herm:.2e}")
        trace = np.max(np.abs(b[0, 0] + b[1, 1]))
        if trace > 1e-10:
            raise NumericalContractError(f"symbol matrix not trace-free: residual {trace:.2e}")
        # a complex potential signals an index error upstream
        if _real_defect(p) > 1e-12:
            raise NumericalContractError("potential has nonreal part above 1e-12")
        b.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "b_hat", b)
        object.__setattr__(self, "p_hat", p)

    @property
    def degree(self) -> int:
        return (self.p_hat.size - 1) // 2

    def require_resolved(self) -> None:
        """Raise UnderResolvedError when sampling dropped a coefficient above
        ``ALIASING_LIMIT``: the kept coefficients are then aliased."""
        if self.aliasing > ALIASING_LIMIT:
            raise UnderResolvedError(
                f"Fourier tail {self.aliasing:.2e} of the coefficients exceeds "
                f"{ALIASING_LIMIT:.0e}; the sampling grid under-resolves them"
            )

    def apply(self, v: SpinorField) -> SpinorField:
        """(W v)^(k) = sum_q [(k + q)/2 B^(k - q) + p^(k - q)] v^(q), exactly."""
        self.require_resolved()
        c = v.coeffs
        q = np.arange(-v.degree, v.degree + 1)
        top = self.degree + v.degree
        k = np.arange(-top, top + 1)
        out = np.empty((2, k.size), dtype=complex)
        for a in range(2):
            bv = np.convolve(self.b_hat[a, 0], c[0]) + np.convolve(self.b_hat[a, 1], c[1])
            bqv = np.convolve(self.b_hat[a, 0], q * c[0]) + np.convolve(self.b_hat[a, 1], q * c[1])
            out[a] = 0.5 * (k * bv + bqv) + np.convolve(self.p_hat, c[a])
        return SpinorField(out)

    __call__ = apply


def free_operator() -> DiracOperator:
    """The unperturbed operator -i [[0, 1], [1, 0]] d/dx^1."""
    one, zero = np.ones(1), np.zeros(1)
    return DiracOperator(symbol_matrix(one, zero, zero), zero)


def dirac_operator(ms: MetricSnapshot) -> DiracOperator:
    """Assemble the operator at fixed eps from a metric snapshot.

    The symbol components are the first frame column e_j^1. The potential is

        p = sum_j (e^j_3 (e^j_2)' - e^j_2 (e^j_3)') / (4 sqrt(det g)),

    whose numerator is evaluated exactly in coefficient arithmetic. The
    frame is rational, so B and p are sampled on the snapshot's grid of n
    points and their coefficients are the FFT divided by n. Only |k| < n/4
    is kept; the largest coefficient at |k| >= n/4, the aliasing tail of an
    under-resolved coefficient, is recorded as ``aliasing``. A coframe
    harmonic past the kept band can fold back into it on the grid, where no
    tail shows it, so the largest such coframe coefficient counts as
    ``aliasing`` too.
    """
    a1, a2, a3 = ms.frame[0, 0], ms.frame[1, 0], ms.frame[2, 0]

    num = TrigPoly.zero()
    dcof = ms.coframe.derivative()
    for j in range(3):
        num = num + ms.coframe[j, 2] * dcof[j, 1] - ms.coframe[j, 1] * dcof[j, 2]
    n = ms.num_points
    num_samples = num.on_grid(n)
    if np.max(np.abs(num_samples.imag)) > 1e-12:
        raise NumericalContractError("potential numerator is not real; index error upstream")
    potential = num_samples.real / (4.0 * ms.sqrt_det_g)

    b_hat = np.fft.fft(symbol_matrix(a1, a2, a3), axis=-1) / n
    p_hat = np.fft.fft(potential) / n
    top = (n - 1) // 4  # the largest |k| below n/4
    # FFT order: indices top+1 .. n-top-1 hold the frequencies |k| > top
    aliasing = max(
        np.max(np.abs(b_hat[..., top + 1 : n - top]), initial=0.0),
        np.max(np.abs(p_hat[top + 1 : n - top]), initial=0.0),
    )
    d = ms.coframe.degree
    if d > top:
        coframe_hat = np.abs(ms.coframe.coefficient_stack(d))
        aliasing = max(aliasing, coframe_hat[: d - top].max(), coframe_hat[d + top + 1 :].max())
    kept = np.r_[n - top : n, 0 : top + 1]  # frequencies -top..top
    return DiracOperator(b_hat[..., kept], p_hat[kept], float(aliasing))


def first_order_operator(h: Matrix3Field, *, check: bool = True) -> DiracOperator:
    """Linear term of the eps-expansion of the operator family.

    Expanding the frame gives the symbol -(1/2) * B_h with B_h built from the
    first column of h; the action is then +(i/4)(B_h d/dx + d/dx B_h). The
    potential only enters at second order. ``check=False`` skips the check
    that h is real and symmetric, for a caller that has made it already.
    """
    if check:
        require_sym_real(h, "h")
    d = max(h[j, 0].degree for j in range(3))
    cols = [resize_degree(h[j, 0].coeffs, d) for j in range(3)]
    return DiracOperator(-0.5 * symbol_matrix(*cols), np.zeros(2 * d + 1))


def second_order_operator(
    h: Matrix3Field, k: Matrix3Field, *, check: bool = True
) -> DiracOperator:
    """Quadratic term of the eps-expansion.

    Symbol (3/8) B_{h^2} - (1/8) B_k from the frame expansion, plus the real
    scalar potential -(1/16) * sum_a (h_{a2} h_{a3}' - h_{a3} h_{a2}'), the
    antisymmetrized first-column-free part of the half-density term. Only
    the first column of h^2 is built. ``check=False`` skips the check that
    h and k are real and symmetric, for a caller that has made it already.
    """
    if check:
        require_sym_real(h, "h")
        require_sym_real(k, "k")
    hcols = [h.product_entry(h, j, 0) for j in range(3)]
    kcols = [k[j, 0] for j in range(3)]
    scalar = TrigPoly.zero()
    dh = h.derivative()
    for a in range(3):
        scalar = scalar + h[a, 1] * dh[a, 2] - h[a, 2] * dh[a, 1]

    d = max(poly.degree for poly in (*hcols, *kcols, scalar))
    hb, kb = (symbol_matrix(*(resize_degree(c.coeffs, d) for c in cols)) for cols in (hcols, kcols))
    return DiracOperator(0.375 * hb - 0.125 * kb, -resize_degree(scalar.coeffs, d) / 16.0)
