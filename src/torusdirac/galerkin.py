"""Galerkin discretization of the eigenvalue problem.

The operator is projected onto the span of the unperturbed eigenfunctions
v_i, w_i for i = -m..m, giving a Hermitian matrix of order 2(2m+1) whose
spectrum approximates the perturbed one; ``galerkin_matrix`` returns it as a
plain read-only ndarray, which the solves take. The basis consists of plane
waves, so every matrix entry is a closed form in the Fourier coefficients of the
symbol B and the potential p that the operator holds: the matrix is a gather
of those coefficients, never built by applying the operator to the basis.
The basis couples only through the finitely many harmonics of the
coefficient functions, so interior eigenvalues converge extremely fast in m.
The gather reads the real functions of the operator through
``trigpoly.real_spectrum``, c_-k = conj(c_k), so the matrix equals its
adjoint by construction. Every eps-sweep of the package goes through
``spectrum_sweep``; ``track_pairs`` tracks all (eps, mode) cells of one.
The matrix of a family with a half turn (``geometry._half_turn_phase``)
splits into two conjugate blocks of order 2m+1, each with one eigenvalue of
every Kramers pair; ``spectrum_sweep`` gathers one alone (``_paired_block``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .dirac import DiracOperator, dirac_operators
from .geometry import CoframeFamily, NumericalContractError, _half_turn_phase, default_grid
from .trigpoly import real_spectrum

PAIRING_TOL = 1e-8
CLUSTER_RADIUS = 0.4


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
    """0.25 * q for q = -2m..2m, complex (cached, read-only):
    ``_hankel(_weights(m), 2m+1, s_r, -s_col)[r, col]`` is the weight
    0.25 * (s_r i_r + s_col i_col) of entry (r, col) of a Galerkin block."""
    q = 0.25 * np.arange(-2 * m, 2 * m + 1, dtype=complex)
    q.setflags(write=False)
    return q


def galerkin_matrix(op: DiracOperator, m: int) -> np.ndarray:
    """The Hermitian Galerkin matrix H[(j, b), (i, a)] = <W phi_i^a, phi_j^b>
    of order 2(2m+1), assembled in closed form as a read-only complex array.
    Rows are indexed by (i, kind) with i = -m..m and the v row preceding the
    w row within each i: (i, v) is row 2(i + m) and (i, w) the next one.

    Each basis function is a plane wave phi = c u e^{iqx} with c^2 = 1/(4pi):
    v_i has q = i, u = (1, 1) and w_i has q = -i, u = (-1, 1). With B^ and p^
    the Fourier coefficients of the symbol and the potential,

        H[r, col] = (1/2) u_r^T ((q_r + q_col)/2 B^(q_r - q_col)
                                 + p^(q_r - q_col)) u_col,

    where the sandwich (1/2) u_r^T B^ u_col is a1^ within v, -a1^ within w
    and -(a3^ + i a2^) from w to v. The entries read a^ and p^ at
    frequencies -2m..2m, zero past the operator's degree, through
    ``real_spectrum``: each entry is a real weight times c(k) plus p^(k),
    and its mirror the same weight times conj(c(k)) plus conj(p^(k)), so the
    matrix equals its adjoint under ``==``. Each block is written in place
    from strided Hankel views, the cached weights (q_r + q_col)/4 times
    twice the sandwich plus p^; the (w, v) block is the adjoint of the
    (v, w) block.
    """
    # frequencies -2m..2m, so that _hankel(c, w, 1, -1)[i_r + m, i_col + m]
    # is c at frequency i_r + i_col
    (a1, a2, a3), p_hat = real_spectrum(op.a_hat, 2 * m), real_spectrum(op.p_hat, 2 * m)
    w = 2 * m + 1
    weights = _weights(m)
    entries = np.empty((w, 2, w, 2), dtype=complex)
    # u = (s, 1) and q = s*i, with s = +1 for v_i and -1 for w_i
    for a, b, s_r, s_col, sandwich in ((0, 0, 1, 1, 2.0 * a1), (0, 1, 1, -1, -2.0 * (a3 + 1j * a2)),
                                       (1, 1, -1, -1, -2.0 * a1)):
        # reversing an axis negates its i: frequency s_r*i_r - s_col*i_col
        block = entries[:, a, :, b]
        np.multiply(_hankel(weights, w, s_r, -s_col), _hankel(sandwich, w, s_r, s_col), out=block)
        if a == b:  # u_r^T u_col is 2 within a kind and 0 across kinds
            np.add(block, _hankel(p_hat, w, s_r, s_col), out=block)
    np.conjugate(entries[:, 0, :, 1].T, out=entries[:, 1, :, 0])
    h = entries.reshape(2 * w, 2 * w)
    h.setflags(write=False)
    return h


def eigenvalues(h: np.ndarray) -> np.ndarray:
    """All eigenvalues of the Hermitian ``h``, ascending (LAPACK Hermitian
    solver): the one solve of every layout, the 2(2m+1) of the matrix of
    ``galerkin_matrix`` or the 2m+1 of a ``_paired_block``."""
    return np.linalg.eigvalsh(h)


def _paired_block(op: DiracOperator, m: int, theta: complex) -> np.ndarray:
    """The Hermitian block on the pairs (v_i - theta w_i)/sqrt(2) of a family
    with the half-turn pairing phase ``theta``, whose operator commutes with
    v_i -> theta w_i, w_i -> conj(theta) v_i: one eigenvalue of each Kramers
    pair, the other in the conjugate block. With k = i_r - i_col, K = i_r + i_col,

        P[r, col] = (K/2) Re a1^(k) + Re p^(k) + i (k/2) t(K),
        t = Im a3^ + Re a2^ (theta = 1),  t = Re a3^ - Im a2^ (theta = i),

    gathered as ``galerkin_matrix`` gathers, equal under ``==`` to (1/2) ((vv +
    ww) - (theta vw + conj(theta) wv)) over the blocks of that matrix."""
    (a1, a2, a3), p_hat = real_spectrum(op.a_hat, 2 * m), real_spectrum(op.p_hat, 2 * m)
    t = a3.imag + a2.real if theta == 1 else a3.real - a2.imag
    w, weights = 2 * m + 1, _weights(m)
    block = np.empty((w, w), dtype=complex)
    re, im = block.real, block.imag
    np.multiply(_hankel(weights, w, 1, -1).real, _hankel(2.0 * a1.real, w, 1, 1), out=re)
    np.add(re, _hankel(p_hat.real.copy(), w, 1, 1), out=re)
    np.multiply(_hankel(weights, w, 1, 1).real, _hankel(2.0 * t, w, 1, -1), out=im)
    return block


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues of one Galerkin solve plus multiplicity-two bookkeeping."""

    eps: float
    m: int
    eigenvalues: np.ndarray
    tracked: MappingProxyType = field(default_factory=dict)  # mode n -> pair mean, held read-only

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)
        object.__setattr__(self, "tracked", MappingProxyType(dict(self.tracked)))


# the TrackingError of each rule of ``track_pairs``, in the order they are checked
_TRACKING_ERRORS = (
    "mode {n} too close to truncation edge for m={report.m}",
    f"no eigenvalue pair within {CLUSTER_RADIUS} of mode {{n}} at eps={{report.eps}}: nearest {{pair}}",
    f"third eigenvalue {{third[0]}} within {CLUSTER_RADIUS} of mode {{n}} at eps={{report.eps}}, "
    "next to the pair {pair}: crossing pairs",
    "eigenvalues {pair} nearest mode {n} at eps={report.eps} are {gap:.2e} apart, more than the "
    f"pairing tolerance {PAIRING_TOL:.0e}",
)


def tracking_buffer(m: int) -> int:
    return math.ceil(m / 5)


def track_pair(report: SpectrumReport, n: int) -> tuple[float, float]:
    """Mean and gap of the two eigenvalues nearest the integer mode n, by the
    rules of ``track_pairs``; raises TrackingError where they fail."""
    means, gaps, failures = track_pairs([report], [n])
    if failures:
        raise failures[0, 0]
    return float(means[0, 0]), float(gaps[0, 0])


def track_pairs(reports, modes) -> tuple[np.ndarray, np.ndarray, dict]:
    """Mean and gap of the two eigenvalues nearest each integer mode n of
    ``modes`` in each of ``reports``, every cell at once: (means, gaps,
    failures), (E, M) arrays and the TrackingError of each failing cell by
    (row, column), in row order. A cell requires, in this order, |n| <= m -
    ceil(m/5), clear of truncation-edge pollution; both of the pair within
    0.4 of n; the third-nearest eigenvalue farther; a gap of at most 1e-8.
    Charge conjugation pairs every eigenvalue exactly, so a wider gap means
    the two belong to different pairs, and a third eigenvalue within 0.4
    means two pairs cross near n.
    """
    modes = list(modes)
    if not reports:
        return np.zeros((0, len(modes))), np.zeros((0, len(modes))), {}
    ev = np.array([report.eigenvalues for report in reports])
    n = np.array(modes, dtype=float)[:, None]
    dist = np.abs(ev[:, None, :] - n)  # (E, M, N)
    # the three nearest, in order of distance
    nearest = np.argpartition(dist, range(min(3, ev.shape[1])), axis=-1)
    rows = np.arange(len(reports))[:, None, None]
    pairs, thirds = ev[rows, nearest[..., :2]], ev[rows, nearest[..., 2:3]]
    gaps = np.abs(pairs[..., 1] - pairs[..., 0])
    edges = np.array([report.m - tracking_buffer(report.m) for report in reports])
    rules = (
        np.abs(n.T) > edges[:, None],
        np.abs(pairs - n).max(axis=-1) > CLUSTER_RADIUS,
        (np.abs(thirds - n) <= CLUSTER_RADIUS).any(axis=-1),
        gaps > PAIRING_TOL,
    )
    failures = {}
    for e, i in zip(*np.nonzero(np.logical_or.reduce(rules))):
        rule = next(j for j, failed in enumerate(rules) if failed[e, i])
        cell = dict(n=modes[i], report=reports[e], pair=pairs[e, i], third=thirds[e, i], gap=gaps[e, i])
        failures[int(e), int(i)] = TrackingError(_TRACKING_ERRORS[rule].format(**cell))
    return (pairs[..., 0] + pairs[..., 1]) / 2, gaps, failures  # the bits of pair.mean()


def spectrum_report(cf: CoframeFamily, eps: float, m: int, modes=()) -> SpectrumReport:
    """``spectrum_sweep(cf, (eps,), m)[0]``, then every mode in ``modes``
    tracked by ``track_pair``: the solve raises SingularCoframeError or
    UnderResolvedError before any mode is tracked, and a mode without an
    unambiguous eigenvalue pair raises TrackingError."""
    report = spectrum_sweep(cf, (eps,), m)[0]
    return replace(report, tracked={int(mode): track_pair(report, int(mode))[0] for mode in modes})


def spectrum_sweep(cf: CoframeFamily, eps_values, m: int) -> list[SpectrumReport]:
    """The untracked spectra at ``eps_values`` on ``default_grid(m)``, from
    one ``dirac_operators`` pass, which raises before any matrix is built,
    each with the bits of the pass over its eps alone; solved one eps at a
    time, by ``eigenvalues`` of ``galerkin_matrix``, or by one solve of the
    ``_paired_block`` when the family has a half-turn pairing phase, each
    eigenvalue repeated, which gives each of its pairs a gap of exactly 0."""
    ops = dirac_operators(cf, eps_values, default_grid(m))
    theta = _half_turn_phase(cf)
    if theta is None:
        solved = (eigenvalues(galerkin_matrix(op, m)) for op in ops)
    else:
        solved = (np.repeat(eigenvalues(_paired_block(op, m, theta)), 2) for op in ops)
    return [SpectrumReport(eps=float(eps), m=m, eigenvalues=ev) for eps, ev in zip(eps_values, solved)]
