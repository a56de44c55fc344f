"""The perturbed coframe family on the unit 3-torus, axisymmetric case.

A family of coframes e(x^1; eps) = I + eps*E1(x^1) + eps^2*E2(x^1) determines
the metric g = e^T e. All data depend on x^1 only: E1 and E2 are 3x3 matrix
functions on the circle, held as nested tuples of coefficient arrays (see
``trigpoly``) and checked real once, at construction. This module holds the
family, its checks and samples, ``arc_length`` and the half turn
(``_half_turn_phase``); the eps-expansion of g is in ``perturbation``. The
coframe is sampled in one place, ``_coframe_samples``, by one zero-padded
inverse real FFT of the half spectra, which the operator pass of ``dirac``
and ``arc_length`` share. Sampled steps share one grid rule, ``default_grid``,
and the checks ``sample_checks`` (det e) and ``tail_check`` (the band
sampling drops, read in ``rfft`` layout by ``fft_tail``) of a whole
eps-sweep. Every stacked check of the package fails by ``raise_first``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .trigpoly import COEFF_TOL, _as_field, field_degree, grid_points, half_spectrum, matmul_entry
from .trigpoly import poly_add, poly_derivative, poly_sub, stack_field

#: Largest Fourier coefficient that sampling may drop at |k| >= n/4, and
#: the smallest sample of det e that counts as nonsingular.
ALIASING_LIMIT, DET_FLOOR = 1e-9, 1e-12


def default_grid(degree: int) -> int:
    """Sampling grid for trig degree ``degree``: at least 256 points, and
    enough that the kept band |k| < n/4 reaches 2*degree + 3."""
    return max(256, 8 * degree + 16)


class NumericalContractError(ValueError):
    """A numerical contract failed: an internal invariant (a finite
    operator coefficient, ...) or a check such as a singular coframe, an
    under-resolved grid or an ambiguous eigenvalue pair.

    Unlike a plain ValueError it signals a numerical fault, not bad input.
    Every numerical failure of the package derives from it, and the command
    line maps it to exit code 3.
    """


class SingularCoframeError(NumericalContractError):
    """Coframe determinant vanishes (or goes negative) at a grid point."""


class UnderResolvedError(NumericalContractError):
    """Grid too coarse for the Fourier tail of a sampled function."""


def raise_first(checks) -> None:
    """Raise the error of the first row of a stack that fails any of
    ``checks``, at the first check it fails. ``checks`` is a non-empty
    sequence of pairs ``(fails, error)``: ``fails`` a boolean array over the
    rows, of one shape for every check, and ``error(i)`` the exception of
    row i, i its index in C order."""
    fails = np.array([fails for fails, _ in checks])  # one count is cheaper than an any() per check
    if np.count_nonzero(fails):
        fails = fails.reshape(len(checks), -1)
        i = int(np.argmax(fails.any(axis=0)))
        raise checks[int(np.argmax(fails[:, i]))][1](i)


def _require_real(coeffs: np.ndarray, mirror: np.ndarray, message: str) -> float:
    """Raise ValueError(message) unless the coefficients ``coeffs`` of trig
    polynomials are those of real functions, ``mirror`` holding conj(c_-k)
    at the place of each c_k; return the tolerance.

    The defect |c_k - conj(c_-k)|, all in one reduction, is judged against
    ``COEFF_TOL`` times max(1, largest |c_k|): rounding in the products that
    build the data grows with the size of its entries, so data of magnitude
    up to 1 keep the absolute tolerance and larger data a relative one.
    """
    tol = COEFF_TOL * max(1.0, float(np.max(np.abs(coeffs))))
    if not np.all(np.abs(coeffs - mirror) <= tol):
        raise ValueError(message)
    return tol


def require_sym_real(x: np.ndarray, name: str) -> None:
    """Raise ValueError unless the 3x3 matrix of trig polynomials held as the
    stack ``x`` (3, 3, 2D+1) is real-valued, then unless it is symmetric, each
    in one reduction at the tolerance of ``_require_real`` (the symmetry defect
    |c_k(a, b) - c_k(b, a)| of an infinite diagonal, inf - inf, fails)."""
    tol = _require_real(x, np.conj(x[..., ::-1]), f"{name} must be real-valued")
    if not np.all(np.abs(x - x.swapaxes(0, 1)) <= tol):
        raise ValueError(f"{name} must be symmetric")


@dataclass(frozen=True, eq=False)
class CoframeFamily:
    """Coframe family e(x^1; eps) = I + eps*E1 + eps^2*E2 with real entries.

    Row index j labels the covector, column index the tensor component, so
    ``E1[j][a]`` perturbs e^j_a. E1 and E2 are given as nested 3x3 sequences
    of coefficient arrays or scalars and held as ``trigpoly._as_field``
    makes them. Families compare and hash by identity.
    """

    E1: tuple
    E2: tuple

    def __post_init__(self):
        # scaled as in require_sym_real: E2 = (k - h@h)/8 of large h and k
        # carries a rounding-level imaginary part
        for name in ("E1", "E2"):
            entries = _as_field(getattr(self, name))
            flat = np.concatenate([c for row in entries for c in row])  # each entry at its own degree
            mirror = np.concatenate([np.conj(c[::-1]) for row in entries for c in row])
            _require_real(flat, mirror, f"{name} must be a real-valued matrix field")
            object.__setattr__(self, name, entries)

    @classmethod
    def from_perturbation(cls, h, k) -> "CoframeFamily":
        """Synthesize a coframe from metric perturbation data.

        Taking E1 = h/2 and E2 = (k - h^2)/8 gives a family whose metric is
        I + eps*h + (eps^2/4)*k up to O(eps^3), which pins every second-order
        quantity computed here.
        """
        h, k = _as_field(h), _as_field(k)
        for name, x in (("h", h), ("k", k)):
            require_sym_real(stack_field(x, field_degree(x)), name)
        E1 = [[c * complex(0.5) for c in row] for row in h]
        E2 = [[poly_sub(k[a][b], matmul_entry(h, h, a, b)) * complex(1.0 / 8.0) for b in range(3)]
              for a in range(3)]
        return cls(E1, E2)


# the pairing phase of each half turn E(x) -> S E(-x) S, S = diag(signs), in the
# order they are tried
_HALF_TURNS = ((1.0 + 0j, (-1, -1, 1)), (1j, (-1, 1, -1)))


def _half_turn_phase(cf: CoframeFamily) -> complex | None:
    """The pairing phase theta of a family invariant under a half turn
    E(x) -> S E(-x) S: 1 for S = diag(-1, -1, 1), tried first, i for
    S' = diag(-1, 1, -1), None for neither. A real function is even in x
    exactly when its coefficients are real and odd exactly when they are
    imaginary, so S holds when every coefficient of E1 and E2 is real where
    S_aa S_bb = +1 and imaginary where it is -1: an exact test, ``== 0`` on
    the other part, with no tolerance (see ``galerkin._paired_block``)."""
    entries = [(a, b, c) for e in (cf.E1, cf.E2) for a, row in enumerate(e) for b, c in enumerate(row)]
    for theta, s in _HALF_TURNS:
        if all(np.all((c.imag if s[a] == s[b] else c.real) == 0) for a, b, c in entries):
            return theta
    return None


def sample_checks(eps: np.ndarray, det: np.ndarray, n: int) -> tuple:
    """The check, for ``raise_first``, of the coframe samples at each of the
    1-d ``eps``: det e > ``DET_FLOOR`` on ``grid_points(n)``, which NaN fails."""
    singular = ~(det > DET_FLOOR)

    def singular_error(e):
        j = int(np.argmax(singular[e]))
        return SingularCoframeError(
            f"coframe is singular at eps={eps[e]}: det={det[e, j]:.3e} "
            f"at grid index {j} (x={grid_points(n)[j]:.6f})"
        )

    return ((singular.any(axis=1), singular_error),)


def coframe_tails(cf: CoframeFamily, eps: np.ndarray, n: int) -> tuple:
    """For each of the 1-d ``eps``, the largest |eps E1_k + eps^2 E2_k| at
    |k| >= n/4, from the coefficients there alone: on n points such a
    harmonic folds into the kept band, where no FFT tail shows it. A NaN
    is kept. Returns the tails and, for each, the harmonic |k| it is at."""
    top = (n - 1) // 4  # the largest |k| below n/4
    tails, harmonics = np.zeros(len(eps)), np.zeros(len(eps), dtype=int)
    for e1, e2 in zip(chain(*cf.E1), chain(*cf.E2)):
        d = (max(e1.size, e2.size) - 1) // 2
        for i, x in enumerate(eps if d > top else ()):
            with np.errstate(over="ignore", invalid="ignore"):  # a tail_check fails the overflow
                c = np.abs(poly_add(e1 * x, e2 * (x * x)))
            c = np.maximum(c[: d - top][::-1], c[d + top + 1 :])  # at |k| = top + 1, ..., d
            j = int(np.argmax(c))  # the first NaN, if any
            if not (c[j] <= tails[i] or np.isnan(tails[i])):
                tails[i], harmonics[i] = c[j], top + 1 + j
    return tails, harmonics


def fft_tail(hat: np.ndarray, n: int, axis):
    """Largest |coefficient| over ``axis`` of ``hat``, real FFTs (``rfft``
    layout) of samples on n points divided by n, at k >= n/4; a NaN is kept."""
    return np.max(np.abs(hat[..., (n - 1) // 4 + 1 :]), axis=axis, initial=0.0)


def tail_check(tails: np.ndarray, why=lambda e: "the sampling grid under-resolves them") -> tuple:
    """The check, for ``raise_first``, that each of ``tails``, from
    ``coframe_tails`` or ``fft_tail`` (the band that sampling drops), is at
    most ``ALIASING_LIMIT``, which NaN is not (else UnderResolvedError,
    whose message ``why(i)`` ends for row i)."""
    return ~(tails <= ALIASING_LIMIT), lambda e: UnderResolvedError(
        f"Fourier tail {tails[e]:.2e} of the coefficients exceeds {ALIASING_LIMIT:.0e}; {why(e)}"
    )


@np.errstate(over="ignore", invalid="ignore")
def _coframe_samples(cf: CoframeFamily, eps: np.ndarray, n: int):
    """The coframe e = I + eps*E1 + eps^2*E2 on ``grid_points(n)`` at each
    of the 1-d ``eps``, from one sample of E1, E2 and their derivatives at
    the harmonics |k| < n/4: ``(values, cofactors, det, checks)``.

    The sample is one zero-padded ``irfft`` of the half spectra, so it is
    real: E1 and E2 were checked real at construction. ``values`` (15, E, n)
    holds the entries e^j_a at index 3j + a, then the derivatives of entries
    (j, 1), (j, 2); ``cofactors`` (3, E, n) are those of the first column,
    ``det`` (E, n) is det e and ``checks`` the ``sample_checks`` of det e,
    which judge an overflow: none warns.
    """
    rows = (*cf.E1, *cf.E2)
    coeffs = stack_field(rows, min(field_degree(rows), (n - 1) // 4)).reshape(2, 3, 3, -1)
    # for E1 and for E2: entries (a, b), then the derivatives of entries (a, 1), (a, 2)
    stack = np.concatenate([coeffs.reshape(2, 9, -1), poly_derivative(coeffs[:, :, 1:]).reshape(2, 6, -1)], 1)
    samples = np.fft.irfft(half_spectrum(stack), n, axis=-1, norm="forward")  # (2, 15, n)
    values = samples[0, :, None] * eps[:, None]
    values[[0, 4, 8]] += 1.0
    values += samples[1, :, None] * (eps * eps)[:, None]
    (e00, e01, e02), (e10, e11, e12), (e20, e21, e22) = values[:9].reshape(3, 3, *values.shape[1:])
    cofactors = np.array([e11 * e22 - e12 * e21, e02 * e21 - e01 * e22, e01 * e12 - e02 * e11])
    det = e00 * cofactors[0] + e10 * cofactors[1] + e20 * cofactors[2]
    return values, cofactors, det, sample_checks(eps, det, n)


def arc_length(cf: CoframeFamily, eps: float) -> float:
    """Length of the x^1 coordinate circle: int_0^2pi sqrt(g_11) dx^1.

    Trapezoidal quadrature on ``default_grid`` of the coframe degree, exact
    to rounding once ``tail_check`` passes on sqrt(g_11), from the
    ``_coframe_samples`` checked as the operator pass checks them (det e > 0,
    else SingularCoframeError), with g_11 = sum_j (e^j_1)^2. The grid keeps
    every coframe harmonic in band, so only the tail of sqrt(g_11) is checked.
    """
    return _arc_lengths(cf, np.array([eps], dtype=float))[0]


def _arc_lengths(cf: CoframeFamily, eps: np.ndarray) -> list[float]:
    """``arc_length`` at each of the 1-d ``eps``, from one ``_coframe_samples``,
    with the bits and the failure of one call per eps, one after another."""
    n = default_grid(field_degree((*cf.E1, *cf.E2)))
    values, _, _, checks = _coframe_samples(cf, eps, n)
    with np.errstate(over="ignore", invalid="ignore"):  # the checks below fail an overflow
        g11 = values[0] ** 2 + values[3] ** 2 + values[6] ** 2
        sqrt_g11 = np.sqrt(g11)
        tails = fft_tail(np.fft.rfft(sqrt_g11, axis=-1, norm="forward"), n, axis=-1)
    positive = (~(g11 > 0).all(axis=1), lambda e: SingularCoframeError(f"g_11 not positive at eps={eps[e]}"))
    raise_first((*checks, positive, tail_check(tails)))
    return (sqrt_g11.sum(axis=1) * 2.0 * np.pi / n).tolist()
