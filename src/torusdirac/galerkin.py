"""Galerkin discretization of the eigenvalue problem.

The operator is projected onto the span of the unperturbed eigenfunctions
v_i, w_i for i = -m..m, giving a Hermitian matrix of order 2(2m+1) whose
spectrum approximates the perturbed one. The basis consists of plane waves,
so every matrix entry is a closed form in the Fourier coefficients of the
symbol B and the potential p that the operator holds: the matrix is a gather
of those coefficients, never built by applying the operator to the basis.
The basis couples only through the finitely many harmonics of the
coefficient functions, so interior eigenvalues converge extremely fast in m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dirac import DiracOperator, SpinorField, dirac_operator
from .geometry import DEFAULT_GRID, CoframeFamily, NumericalContractError, metric_at
from .trigpoly import resize_degree

PAIRING_TOL = 1e-8
CLUSTER_RADIUS = 0.4


class TrackingError(NumericalContractError):
    """No unambiguous eigenvalue pair near the requested mode."""


def default_grid(m: int) -> int:
    """Grid size resolving basis degree m plus coefficient harmonics."""
    return max(DEFAULT_GRID, 8 * m + 16)


def basis_spinor(i: int, kind: str) -> SpinorField:
    """Unperturbed eigenfunctions: unit-norm spinors

        v_i = (1, 1)^T e^{i i x} / (2 sqrt(pi)),
        w_i = (-1, 1)^T e^{-i i x} / (2 sqrt(pi)),

    both with eigenvalue i; w_i is the charge conjugate of v_i.
    """
    if kind not in ("v", "w"):
        raise ValueError(f"kind must be 'v' or 'w', got {kind!r}")
    c = 1.0 / (2.0 * np.sqrt(np.pi))
    coeffs = np.zeros((2, 2 * abs(i) + 1), dtype=complex)
    if kind == "v":
        coeffs[:, abs(i) + i] = (c, c)
    else:
        coeffs[:, abs(i) - i] = (-c, c)
    return SpinorField(coeffs)


@dataclass(frozen=True)
class GalerkinMatrix:
    """Hermitian Galerkin matrix of order 2(2m+1).

    Rows are indexed by (i, kind) with i = -m..m and the v row preceding the
    w row within each i: (i, v) is row 2(i + m) and (i, w) the next one.
    ``herm_residual`` is the max-norm Hermiticity defect of the closed-form
    entries before symmetrization. The closed form is Hermitian by
    construction, so it measures floating-point rounding only, ~1e-16 of the
    largest entry; grid resolution is checked on the Fourier tail of the
    operator instead.
    """

    m: int
    entries: np.ndarray
    herm_residual: float

    def __post_init__(self):
        self.entries.setflags(write=False)

    @property
    def order(self) -> int:
        return 2 * (2 * self.m + 1)


def galerkin_matrix(op: DiracOperator, m: int) -> GalerkinMatrix:
    """Assemble H[(j, b), (i, a)] = <W phi_i^a, phi_j^b> in closed form.

    Each basis function is a plane wave phi = c u e^{iqx} with c^2 = 1/(4pi):
    v_i has q = i, u = (1, 1) and w_i has q = -i, u = (-1, 1). With B^ and p^
    the Fourier coefficients of the symbol and the potential,

        H[r, col] = (1/2) u_r^T ((q_r + q_col)/2 B^(q_r - q_col)
                                 + p^(q_r - q_col)) u_col.

    The entries read B^ and p^ at frequencies -2m..2m, zero past the
    operator's degree. An operator whose sampling dropped a Fourier tail
    above the aliasing limit raises UnderResolvedError. The result is
    symmetrized.
    """
    op.require_resolved()
    # frequencies -2m..2m, so that sliding_window_view(c, w)[i_r + m, i_col + m]
    # is c at frequency i_r + i_col
    b_hat, p_hat = resize_degree(op.b_hat, 2 * m), resize_degree(op.p_hat, 2 * m)
    w = 2 * m + 1
    i = np.arange(-m, m + 1)
    entries = np.empty((w, 2, w, 2), dtype=complex)
    # u = (s, 1) and q = s*i, with s = +1 for v_i and -1 for w_i
    for a, s_r in enumerate((1, -1)):
        for b, s_col in enumerate((1, -1)):
            sandwich = (
                s_r * s_col * b_hat[0, 0] + s_r * b_hat[0, 1] + s_col * b_hat[1, 0] + b_hat[1, 1]
            )
            # reversing an axis negates its i: frequency s_r*i_r - s_col*i_col
            flip = (slice(None, None, s_r), slice(None, None, -s_col))
            qsum = s_r * i[:, None] + s_col * i
            block = 0.25 * qsum * sliding_window_view(sandwich, w)[flip]
            if a == b:  # u_r^T u_col is 2 within a kind and 0 across kinds
                block += sliding_window_view(p_hat, w)[flip]
            entries[:, a, :, b] = block
    entries = entries.reshape(2 * w, 2 * w)
    adjoint = entries.conj().T
    residual = float(np.max(np.abs(entries - adjoint)))
    entries = 0.5 * (entries + adjoint)
    return GalerkinMatrix(m=m, entries=entries, herm_residual=residual)


def assemble(cf: CoframeFamily, eps: float, m: int) -> GalerkinMatrix:
    """Galerkin matrix of the family at ``eps``, on the grid ``default_grid(m)``."""
    return galerkin_matrix(dirac_operator(metric_at(cf, eps, default_grid(m))), m)


def eigenvalues(gm: GalerkinMatrix) -> np.ndarray:
    """All 2(2m+1) eigenvalues, ascending (LAPACK Hermitian solver)."""
    return np.linalg.eigvalsh(gm.entries)


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues of one Galerkin solve plus multiplicity-two bookkeeping."""

    eps: float
    m: int
    eigenvalues: np.ndarray
    tracked: dict = field(default_factory=dict)  # mode n -> pair mean

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)

    @property
    def pairs(self) -> list[tuple[float, float]]:
        """(mean, gap) of each consecutive 2-cluster of the ascending spectrum."""
        ev = self.eigenvalues
        return [
            (float(ev[j : j + 2].mean()), float(ev[j + 1] - ev[j]))
            for j in range(0, ev.size - 1, 2)
        ]


def tracking_buffer(m: int) -> int:
    return math.ceil(m / 5)


def track_pair(report: SpectrumReport, n: int) -> tuple[float, float]:
    """Mean and gap of the two eigenvalues nearest the integer mode n.

    Requires |n| <= m - ceil(m/5) to stay clear of truncation-edge pollution,
    both cluster members within 0.4 of n, and a gap of at most 1e-8: charge
    conjugation pairs every eigenvalue exactly, so a wider gap means the two
    nearest eigenvalues belong to different pairs.
    """
    if abs(n) > report.m - tracking_buffer(report.m):
        raise TrackingError(
            f"mode {n} too close to truncation edge for m={report.m}"
        )
    ev = report.eigenvalues
    order = np.argsort(np.abs(ev - n))[:2]
    pair = ev[order]
    if np.max(np.abs(pair - n)) > CLUSTER_RADIUS:
        raise TrackingError(
            f"no eigenvalue pair within {CLUSTER_RADIUS} of mode {n} at "
            f"eps={report.eps}: nearest {pair}"
        )
    gap = float(abs(pair[1] - pair[0]))
    if gap > PAIRING_TOL:
        raise TrackingError(
            f"eigenvalues {pair} nearest mode {n} at eps={report.eps} are "
            f"{gap:.2e} apart, more than the pairing tolerance {PAIRING_TOL:.0e}"
        )
    return float(pair.mean()), gap


def spectrum_report(cf: CoframeFamily, eps: float, m: int, modes=()) -> SpectrumReport:
    """Assemble, solve and track one eps point of a coframe family.

    The solve checks the coframe: ``metric_at`` raises SingularCoframeError
    on the grid ``default_grid(m)``, before any mode is tracked. Every mode
    in ``modes`` is then tracked with ``track_pair``, so a mode without an
    unambiguous eigenvalue pair raises TrackingError. Callers that must
    report a singular eps ahead of a tracking failure at an earlier eps
    solve every eps with ``modes=()`` first and track afterwards.
    """
    ev = eigenvalues(assemble(cf, eps, m))
    report = SpectrumReport(eps=float(eps), m=m, eigenvalues=ev)
    for mode in modes:
        report.tracked[int(mode)] = track_pair(report, int(mode))[0]
    return report
