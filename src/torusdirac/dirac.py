"""The axisymmetric massless Dirac operator on half-densities.

Every operator here has the normal form

    W v = -(i/2) * (B v' + (B v)') + p v

acting on 2-columns of complex functions of x^1, where B(x) is a pointwise
Hermitian trace-free 2x2 matrix built from three real functions (a1, a2, a3)
as [[a3, a1 - i a2], [a1 + i a2, -a3]] and p(x) is a real potential. The full
operator at fixed eps takes (a1, a2, a3) from the first frame column; the
first and second order terms of its eps-expansion take them from columns of
the metric perturbation matrices.

Derivatives are spectral (Fourier), exact for band-limited data and accurate
to machine precision for the analytic coefficients appearing here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    DEFAULT_GRID,
    MetricSnapshot,
    NumericalContractError,
    require_sym_real,
)
from .trigpoly import Matrix3Field, TrigPoly


def spectral_derivative(samples: np.ndarray) -> np.ndarray:
    """d/dx of a periodic grid function along the last axis, via FFT."""
    n = samples.shape[-1]
    k = np.fft.fftfreq(n, d=1.0 / n)
    if n % 2 == 0:
        k = k.copy()
        k[n // 2] = 0.0  # derivative of the unpaired Nyquist mode is dropped
    return np.fft.ifft(1j * k * np.fft.fft(samples, axis=-1), axis=-1)


@dataclass(frozen=True)
class SpinorField:
    """2-column complex function of x^1 held as samples on the uniform grid."""

    samples: np.ndarray  # shape (2, n)

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=complex)
        if s.shape[0] != 2 or s.ndim != 2:
            raise ValueError("spinor samples must have shape (2, n)")
        s = s.copy()
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)

    @property
    def num_points(self) -> int:
        return self.samples.shape[1]

    @classmethod
    def from_components(
        cls, upper: TrigPoly, lower: TrigPoly, num_points: int = DEFAULT_GRID
    ) -> "SpinorField":
        return cls(np.array([upper.on_grid(num_points), lower.on_grid(num_points)]))

    # ------------------------------------------------------------------
    # Hilbert space structure: <u, v> = int_0^2pi v^* u dx
    # ------------------------------------------------------------------

    def inner(self, other: "SpinorField") -> complex:
        self._check_grid(other)
        w = 2.0 * np.pi / self.num_points
        return complex(np.sum(np.conj(other.samples) * self.samples) * w)

    def norm(self) -> float:
        return float(np.sqrt(max(self.inner(self).real, 0.0)))

    def derivative(self) -> "SpinorField":
        return SpinorField(spectral_derivative(self.samples))

    def mode_coefficients(self, max_mode: int) -> np.ndarray:
        """Fourier view: array (2, 2*max_mode+1) of coefficients c_k,
        k = -max_mode..max_mode, per component."""
        return np.stack(
            [
                TrigPoly.from_samples(self.samples[c], max_mode).coeffs
                for c in range(2)
            ]
        )

    def bandwidth(self) -> int:
        """Largest |k| carrying a coefficient above 1e-13."""
        spec = np.abs(np.fft.fft(self.samples, axis=-1)) / self.num_points
        k = np.abs(np.fft.fftfreq(self.num_points, d=1.0 / self.num_points)).astype(int)
        live = np.nonzero(spec.max(axis=0) > 1e-13)[0]
        return int(k[live].max()) if live.size else 0

    def _check_grid(self, other: "SpinorField") -> None:
        if self.num_points != other.num_points:
            raise ValueError("spinor fields live on different grids")

    def __add__(self, other: "SpinorField") -> "SpinorField":
        self._check_grid(other)
        return SpinorField(self.samples + other.samples)

    def __sub__(self, other: "SpinorField") -> "SpinorField":
        self._check_grid(other)
        return SpinorField(self.samples - other.samples)

    def __mul__(self, scalar) -> "SpinorField":
        return SpinorField(self.samples * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "SpinorField":
        return SpinorField(-self.samples)


def charge_conjugate(v: SpinorField) -> SpinorField:
    """Antilinear map (v1, v2) -> (-conj(v2), conj(v1)); squares to -I."""
    return SpinorField(
        np.array([-np.conj(v.samples[1]), np.conj(v.samples[0])])
    )


def symbol_matrix(a1: np.ndarray, a2: np.ndarray, a3: np.ndarray) -> np.ndarray:
    """Hermitian trace-free symbol [[a3, a1 - i a2], [a1 + i a2, -a3]].

    Inputs are real grid functions; output has shape (2, 2, n).
    """
    return np.array([[a3, a1 - 1j * a2], [a1 + 1j * a2, -a3]])


@dataclass(frozen=True)
class DiracOperator:
    """First order operator v -> -(i/2)(B v' + (B v)') + p v on the grid."""

    b_matrix: np.ndarray  # (2, 2, n), Hermitian and trace-free pointwise
    potential: np.ndarray  # (n,), real

    def __post_init__(self):
        b = np.asarray(self.b_matrix, dtype=complex)
        p = np.asarray(self.potential)
        if b.shape[:2] != (2, 2) or b.ndim != 3 or p.shape != (b.shape[2],):
            raise ValueError("inconsistent symbol/potential shapes")
        herm = max(
            np.max(np.abs(b[0, 1] - np.conj(b[1, 0]))),
            np.max(np.abs(b[0, 0].imag)),
            np.max(np.abs(b[1, 1].imag)),
        )
        if herm > 1e-10:
            raise NumericalContractError(f"symbol matrix not Hermitian: residual {herm:.2e}")
        trace = np.max(np.abs(b[0, 0] + b[1, 1]))
        if trace > 1e-10:
            raise NumericalContractError(f"symbol matrix not trace-free: residual {trace:.2e}")
        # a complex potential signals an index error upstream
        if np.max(np.abs(np.imag(p))) > 1e-12:
            raise NumericalContractError("potential has nonreal part above 1e-12")
        b = b.copy()
        b.setflags(write=False)
        p = np.asarray(p.real, dtype=float).copy()
        p.setflags(write=False)
        object.__setattr__(self, "b_matrix", b)
        object.__setattr__(self, "potential", p)

    @property
    def num_points(self) -> int:
        return self.b_matrix.shape[2]

    def apply(self, v: SpinorField) -> SpinorField:
        if v.num_points != self.num_points:
            raise ValueError("spinor grid does not match operator grid")
        dv = spectral_derivative(v.samples)
        bv = np.einsum("abn,bn->an", self.b_matrix, v.samples)
        bdv = np.einsum("abn,bn->an", self.b_matrix, dv)
        dbv = spectral_derivative(bv)
        return SpinorField(-0.5j * (bdv + dbv) + self.potential * v.samples)

    __call__ = apply

    def __add__(self, other: "DiracOperator") -> "DiracOperator":
        if other.num_points != self.num_points:
            raise ValueError("operators live on different grids")
        return DiracOperator(
            self.b_matrix + other.b_matrix, self.potential + other.potential
        )

    def __mul__(self, scalar: float) -> "DiracOperator":
        return DiracOperator(self.b_matrix * scalar, self.potential * scalar)

    __rmul__ = __mul__


def free_operator(num_points: int = DEFAULT_GRID) -> DiracOperator:
    """The unperturbed operator -i [[0, 1], [1, 0]] d/dx^1."""
    ones = np.ones(num_points)
    zeros = np.zeros(num_points)
    return DiracOperator(symbol_matrix(ones, zeros, zeros), zeros)


def dirac_operator(ms: MetricSnapshot) -> DiracOperator:
    """Assemble the operator at fixed eps from a metric snapshot.

    The symbol components are the first frame column e_j^1. The potential is

        p = sum_j (e^j_3 (e^j_2)' - e^j_2 (e^j_3)') / (4 sqrt(det g)),

    whose numerator is evaluated exactly in coefficient arithmetic.
    """
    a1, a2, a3 = ms.frame[0, 0], ms.frame[1, 0], ms.frame[2, 0]

    num = TrigPoly.zero()
    dcof = ms.coframe.derivative()
    for j in range(3):
        num = num + ms.coframe[j, 2] * dcof[j, 1] - ms.coframe[j, 1] * dcof[j, 2]
    num_samples = num.on_grid(ms.num_points)
    if np.max(np.abs(num_samples.imag)) > 1e-12:
        raise NumericalContractError("potential numerator is not real; index error upstream")
    potential = num_samples.real / (4.0 * ms.sqrt_det_g)
    return DiracOperator(symbol_matrix(a1, a2, a3), potential)


def first_order_operator(
    h: Matrix3Field, num_points: int = DEFAULT_GRID, *, check: bool = True
) -> DiracOperator:
    """Linear term of the eps-expansion of the operator family.

    Expanding the frame gives the symbol -(1/2) * B_h with B_h built from the
    first column of h; the action is then +(i/4)(B_h d/dx + d/dx B_h). The
    potential only enters at second order. ``check=False`` skips the check
    that h is real and symmetric, for a caller that has made it already.
    """
    if check:
        require_sym_real(h, "h")
    cols = [h[j, 0].on_grid(num_points).real for j in range(3)]
    return DiracOperator(-0.5 * symbol_matrix(*cols), np.zeros(num_points))


def second_order_operator(
    h: Matrix3Field,
    k: Matrix3Field,
    num_points: int = DEFAULT_GRID,
    *,
    check: bool = True,
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
    hcols = [h.product_entry(h, j, 0).on_grid(num_points).real for j in range(3)]
    kcols = [k[j, 0].on_grid(num_points).real for j in range(3)]
    b = 0.375 * symbol_matrix(*hcols) - 0.125 * symbol_matrix(*kcols)

    scalar = TrigPoly.zero()
    dh = h.derivative()
    for a in range(3):
        scalar = scalar + h[a, 1] * dh[a, 2] - h[a, 2] * dh[a, 1]
    potential = -scalar.on_grid(num_points).real / 16.0
    return DiracOperator(b, potential)
