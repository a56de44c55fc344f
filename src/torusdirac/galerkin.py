"""Galerkin discretization of the eigenvalue problem.

The operator is projected onto the span of the unperturbed eigenfunctions
v_i, w_i for i = -m..m, giving a Hermitian matrix of order 2(2m+1) whose
spectrum approximates the perturbed one. The basis consists of plane waves,
so every matrix entry is a closed form in the Fourier coefficients of the
symbol B and the potential p that the operator holds: the matrix is a gather
of those coefficients, never built by applying the operator to the basis.
The basis couples only through the finitely many harmonics of the
coefficient functions, so interior eigenvalues converge extremely fast in m.
Every eps-sweep of the package goes through ``spectrum_sweep``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .dirac import DiracOperator, dirac_operator, dirac_operators
from .geometry import CoframeFamily, NumericalContractError, default_grid
from .trigpoly import resize_degree

PAIRING_TOL = 1e-8
CLUSTER_RADIUS = 0.4
# bytes of one row strip in the in-place symmetrization of a Galerkin matrix
_STRIP_BYTES = 1 << 20


class TrackingError(NumericalContractError):
    """No unambiguous eigenvalue pair near the requested mode."""


@lru_cache(maxsize=64)
def basis_spinor(i: int, kind: str) -> np.ndarray:
    """Unperturbed eigenfunctions: unit-norm spinors

        v_i = (1, 1)^T e^{i i x} / (2 sqrt(pi)),
        w_i = (-1, 1)^T e^{-i i x} / (2 sqrt(pi)),

    both with eigenvalue i; w_i is the charge conjugate of v_i. Returned as
    cached read-only (2, 2|i|+1) coefficient arrays.
    """
    if kind not in ("v", "w"):
        raise ValueError(f"kind must be 'v' or 'w', got {kind!r}")
    c = 1.0 / (2.0 * np.sqrt(np.pi))
    coeffs = np.zeros((2, 2 * abs(i) + 1), dtype=complex)
    if kind == "v":
        coeffs[:, abs(i) + i] = (c, c)
    else:
        coeffs[:, abs(i) - i] = (-c, c)
    coeffs.setflags(write=False)
    return coeffs


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


def _hankel(c: np.ndarray, w: int, s_r: int, s_col: int) -> np.ndarray:
    """Copy-free (w, w) view of the 1-d contiguous ``c`` (2w - 1 entries) with
    element [r, col] = c[R + C], where R = r for s_r = 1 and w-1-r for s_r = -1,
    and C = w-1-col for s_col = 1 and col for s_col = -1: the element of
    ``sliding_window_view(c, w)[::s_r, ::-s_col]``."""
    step = c.strides[0]
    start = (0 if s_r > 0 else w - 1) + (w - 1 if s_col > 0 else 0)
    return np.ndarray(
        (w, w), c.dtype, buffer=c, offset=start * step, strides=(s_r * step, -s_col * step)
    )


@lru_cache(maxsize=64)
def _weights(m: int) -> np.ndarray:
    """0.25 * q for q = -2m..2m (cached, read-only):
    ``_hankel(_weights(m), 2m+1, s_r, -s_col)[r, col]`` is the weight
    0.25 * (s_r i_r + s_col i_col) of entry (r, col) of a Galerkin block."""
    q = 0.25 * np.arange(-2 * m, 2 * m + 1)
    q.setflags(write=False)
    return q


def galerkin_matrix(op: DiracOperator, m: int) -> GalerkinMatrix:
    """Assemble H[(j, b), (i, a)] = <W phi_i^a, phi_j^b> in closed form.

    Each basis function is a plane wave phi = c u e^{iqx} with c^2 = 1/(4pi):
    v_i has q = i, u = (1, 1) and w_i has q = -i, u = (-1, 1). With B^ and p^
    the Fourier coefficients of the symbol and the potential,

        H[r, col] = (1/2) u_r^T ((q_r + q_col)/2 B^(q_r - q_col)
                                 + p^(q_r - q_col)) u_col.

    The entries read B^ and p^ at frequencies -2m..2m, zero past the
    operator's degree, through strided Hankel views: no block is gathered
    into a copy, and each is multiplied straight into the matrix, by weights
    (q_r + q_col)/4 copied from one cached array per m. The result
    is symmetrized in place by ``_symmetrize``, in row strips, so the call
    peaks at about 1.5 matrices of memory (the matrix and a few strips of
    ``_STRIP_BYTES``), not the 3.6 of an out-of-place 0.5 * (H + H^H).
    """
    # frequencies -2m..2m, so that _hankel(c, w, 1, -1)[i_r + m, i_col + m]
    # is c at frequency i_r + i_col
    b_hat, p_hat = resize_degree(op.b_hat, 2 * m), resize_degree(op.p_hat, 2 * m)
    w = 2 * m + 1
    weights = _weights(m)
    entries = np.empty((w, 2, w, 2), dtype=complex)
    # u = (s, 1) and q = s*i, with s = +1 for v_i and -1 for w_i
    for a, s_r in enumerate((1, -1)):
        for b, s_col in enumerate((1, -1)):
            sandwich = (
                s_r * s_col * b_hat[0, 0] + s_r * b_hat[0, 1] + s_col * b_hat[1, 0] + b_hat[1, 1]
            )
            # reversing an axis negates its i: frequency s_r*i_r - s_col*i_col
            block = entries[:, a, :, b]
            # a contiguous copy, where the strided view left 2.8 MB more of
            # glibc's heap resident over the truncation ladder (peak RSS +4%)
            weight = np.ascontiguousarray(_hankel(weights, w, s_r, -s_col))
            np.multiply(weight, _hankel(sandwich, w, s_r, s_col), out=block)
            if a == b:  # u_r^T u_col is 2 within a kind and 0 across kinds
                np.add(block, _hankel(p_hat, w, s_r, s_col), out=block)
    entries = entries.reshape(2 * w, 2 * w)
    residual = _symmetrize(entries)
    return GalerkinMatrix(m=m, entries=entries, herm_residual=residual)


def _symmetrize(entries: np.ndarray) -> float:
    """Replace the square ``entries`` E by 0.5 * (E + E^H) in place and
    return max |E - E^H|, with the bits of the out-of-place formulas.

    The rows go in strips of ``_STRIP_BYTES``. Each strip does its diagonal
    block, then its strictly lower part and the mirrored upper part, both
    adjoints copied before either is written. Every entry is computed as
    (E[r, c] + conj(E[c, r])) * 0.5, in that operand order: mirroring the
    lower result into the upper triangle would flip signed zeros. The upper
    part's defect is not computed, since |x - conj(y)| = |y - conj(x)| bit
    for bit.
    """
    n = entries.shape[0]
    rows = max(1, _STRIP_BYTES // (n * entries.itemsize))
    defects = []
    for i0 in range(0, n, rows):
        i1 = min(i0 + rows, n)
        diagonal = entries[i0:i1, i0:i1]
        adjoint = diagonal.conj().T
        defects.append(np.max(np.abs(diagonal - adjoint)))
        np.add(diagonal, adjoint, out=diagonal)
        np.multiply(0.5, diagonal, out=diagonal)
        if i0:
            lower, upper = entries[i0:i1, :i0], entries[:i0, i0:i1]
            lower_adjoint, upper_adjoint = upper.conj().T, lower.conj().T
            defects.append(np.max(np.abs(lower - lower_adjoint)))
            for block, adjoint in ((lower, lower_adjoint), (upper, upper_adjoint)):
                np.add(block, adjoint, out=block)
                np.multiply(0.5, block, out=block)
    return float(np.max(defects))


def assemble(cf: CoframeFamily, eps: float, m: int) -> GalerkinMatrix:
    """Galerkin matrix of the family at ``eps``, on the grid ``default_grid(m)``."""
    return galerkin_matrix(dirac_operator(cf, eps, default_grid(m)), m)


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
    both cluster members within 0.4 of n, the third-nearest eigenvalue
    farther than 0.4 from n, and a gap of at most 1e-8: charge conjugation
    pairs every eigenvalue exactly, so a wider gap means the two nearest
    eigenvalues belong to different pairs, and a third eigenvalue inside the
    cluster radius means two pairs are crossing near n.
    """
    if abs(n) > report.m - tracking_buffer(report.m):
        raise TrackingError(
            f"mode {n} too close to truncation edge for m={report.m}"
        )
    ev = report.eigenvalues
    dist = np.abs(ev - n)
    # the three nearest, in order of distance
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
            f"at eps={report.eps}, next to the pair {pair}: crossing pairs"
        )
    gap = float(abs(pair[1] - pair[0]))
    if gap > PAIRING_TOL:
        raise TrackingError(
            f"eigenvalues {pair} nearest mode {n} at eps={report.eps} are "
            f"{gap:.2e} apart, more than the pairing tolerance {PAIRING_TOL:.0e}"
        )
    return float(pair.mean()), gap


def spectrum_report(cf: CoframeFamily, eps: float, m: int, modes=()) -> SpectrumReport:
    """``spectrum_sweep(cf, (eps,), m)[0]``, then every mode in ``modes``
    tracked by ``track_pair``: the solve raises SingularCoframeError or
    UnderResolvedError before any mode is tracked, and a mode without an
    unambiguous eigenvalue pair raises TrackingError."""
    report = spectrum_sweep(cf, (eps,), m)[0]
    for mode in modes:
        report.tracked[int(mode)] = track_pair(report, int(mode))[0]
    return report


def spectrum_sweep(cf: CoframeFamily, eps_values, m: int) -> list[SpectrumReport]:
    """The untracked spectra at ``eps_values`` on ``default_grid(m)``, from
    one ``dirac_operators`` pass, which raises before any matrix is built,
    each with the bits of the pass over its eps alone; the matrices are
    solved one eps at a time."""
    ops = dirac_operators(cf, eps_values, default_grid(m))
    return [
        SpectrumReport(eps=float(eps), m=m, eigenvalues=eigenvalues(galerkin_matrix(op, m)))
        for eps, op in zip(eps_values, ops)
    ]
