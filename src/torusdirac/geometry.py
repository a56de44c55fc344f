"""Perturbed coframe and metric on the unit 3-torus, axisymmetric case.

A family of coframes e(x^1; eps) = I + eps*E1(x^1) + eps^2*E2(x^1) determines
the metric g = e^T e. All data depend on x^1 only, so each object reduces to
matrix-valued functions on the circle, held as nested 3x3 tuples of entry
coefficient arrays (see ``trigpoly``). The coframe is sampled in one place,
``_coframe_samples``, which the operator pass of ``dirac`` and
``arc_length`` share; sampled steps share one grid rule, ``default_grid``,
and the checks ``sample_checks`` and ``tail_check`` of a whole eps-sweep.
Every stacked check of the package fails by ``raise_first``, as its rows would.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .trigpoly import COEFF_TOL, _as_field, field_degree, grid_points, matmul_entry
from .trigpoly import poly_add, poly_derivative, poly_on_grid, poly_sub, resize_degree

#: Largest Fourier coefficient that sampling may drop at |k| >= n/4, and
#: the smallest sample of det e that counts as nonsingular.
ALIASING_LIMIT, DET_FLOOR = 1e-9, 1e-12


def default_grid(degree: int) -> int:
    """Sampling grid for trig degree ``degree``: at least 256 points, and
    enough that the kept band |k| < n/4 reaches 2*degree + 3."""
    return max(256, 8 * degree + 16)


class NumericalContractError(ValueError):
    """A numerical contract failed: an internal invariant (realness,
    Hermiticity, ...) or a check such as a singular coframe, an
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


def _require_real(entries, message: str) -> float:
    """Raise ValueError(message) unless the 3x3 matrix of trig polynomials
    whose entry coefficient arrays are ``entries`` is real-valued; return the
    tolerance.

    The defect |c_k - conj(c_-k)|, of each entry at its own degree and all
    in one reduction, is judged against ``COEFF_TOL`` times max(1, largest
    |c_k|): rounding in the products that build the data grows with the
    size of its entries, so data of magnitude up to 1 keep the absolute
    tolerance and larger data a relative one.
    """
    flat = np.concatenate([c for row in entries for c in row])
    mirror = np.concatenate([np.conj(c[::-1]) for row in entries for c in row])
    tol = COEFF_TOL * max(1.0, float(np.max(np.abs(flat))))
    if not np.all(np.abs(flat - mirror) <= tol):
        raise ValueError(message)
    return tol


def require_sym_real(entries, name: str) -> None:
    """Raise ValueError unless the 3x3 matrix of trig polynomials whose entry
    coefficient arrays are ``entries`` is real-valued and symmetric, both
    judged at the tolerance of ``_require_real``: the symmetry defect is
    |c_k(a, b) - c_k(b, a)| over all nine (a, b), each pair at its larger
    degree, so an infinite diagonal coefficient (defect inf - inf) fails.
    """
    tol = _require_real(entries, f"{name} must be real-valued")
    pairs = [(a, b, max(entries[a][b].size, entries[b][a].size) // 2) for a in range(3) for b in range(3)]
    x = np.concatenate([resize_degree(entries[a][b], d) for a, b, d in pairs])
    xt = np.concatenate([resize_degree(entries[b][a], d) for a, b, d in pairs])
    if not np.all(np.abs(x - xt) <= tol):
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
            _require_real(entries, f"{name} must be a real-valued matrix field")
            object.__setattr__(self, name, entries)

    @classmethod
    def from_perturbation(cls, h, k) -> "CoframeFamily":
        """Synthesize a coframe from metric perturbation data.

        Taking E1 = h/2 and E2 = (k - h^2)/8 gives a family whose metric is
        I + eps*h + (eps^2/4)*k up to O(eps^3), which pins every second-order
        quantity computed here.
        """
        h, k = _as_field(h), _as_field(k)
        require_sym_real(h, "h")
        require_sym_real(k, "k")
        E1 = [[c * complex(0.5) for c in row] for row in h]
        E2 = [
            [poly_sub(k[a][b], matmul_entry(h, h, a, b)) * complex(1.0 / 8.0) for b in range(3)]
            for a in range(3)
        ]
        return cls(E1, E2)


def _k_coefficient(e1, e2, a: int, b: int) -> np.ndarray:
    """Coefficients of entry (a, b) of k = 4*(E1^T E1 + E2 + E2^T) from the
    entry coefficient arrays of E1 and E2: (E1^T E1)[a, b] by
    ``matmul_entry``, then + E2[a, b], + E2[b, a] and * 4, in that order."""
    e1t = tuple(zip(*e1))
    return poly_add(poly_add(matmul_entry(e1t, e1, a, b), e2[a][b]), e2[b][a]) * 4.0


def first_order_perturbation(cf: CoframeFamily) -> tuple:
    """Linear-in-eps coefficient of the metric: h = E1 + E1^T, as entry
    coefficient arrays."""
    e1 = cf.E1
    return tuple(tuple(poly_add(e1[a][b], e1[b][a]) for b in range(3)) for a in range(3))


def second_order_perturbation(cf: CoframeFamily) -> tuple:
    """Quadratic metric data k, from g = I + eps*h + (eps^2/4)*k + O(eps^3),
    as entry coefficient arrays.

    The eps^2 Taylor coefficient of e^T e is E1^T E1 + E2 + E2^T, so
    k = 4*(E1^T E1 + E2 + E2^T). Each entry is built by ``_k_coefficient``,
    which the closed-form route of ``perturbation_report`` calls for k[0, 0]
    alone (3 of the 27 convolutions of E1^T E1).
    """
    return tuple(tuple(_k_coefficient(cf.E1, cf.E2, a, b) for b in range(3)) for a in range(3))


def sample_checks(eps: np.ndarray, imag: np.ndarray, scale: np.ndarray, det: np.ndarray, n: int) -> tuple:
    """The checks, for ``raise_first``, of coframe samples at each of the 1-d
    ``eps``: ``imag``, their largest imaginary part, at most 1e-10 * max(1,
    ``scale``), their largest |value|, as rounding grows with the data; then
    det e > ``DET_FLOOR`` on ``grid_points(n)``, which NaN fails."""
    singular = ~(det > DET_FLOOR)

    def singular_error(e):
        j = int(np.argmax(singular[e]))
        return SingularCoframeError(
            f"coframe is singular at eps={eps[e]}: det={det[e, j]:.3e} "
            f"at grid index {j} (x={grid_points(n)[j]:.6f})"
        )

    def complex_error(e):
        return NumericalContractError(f"coframe samples has imaginary part {imag[e]:.2e}; expected real data")

    return (~(imag <= 1e-10 * np.fmax(1.0, scale)), complex_error), (singular.any(axis=1), singular_error)


def coframe_tails(cf: CoframeFamily, eps: np.ndarray, n: int) -> np.ndarray:
    """For each of the 1-d ``eps``, the largest |eps E1_k + eps^2 E2_k| at
    |k| >= n/4, from the coefficients there alone: on n points such a
    harmonic folds into the kept band, where no FFT tail shows it. A NaN
    is kept."""
    top = (n - 1) // 4  # the largest |k| below n/4
    tails = np.zeros(len(eps))
    for e1, e2 in zip(chain(*cf.E1), chain(*cf.E2)):
        d = (max(e1.size, e2.size) - 1) // 2
        for i, x in enumerate(eps if d > top else ()):
            with np.errstate(over="ignore", invalid="ignore"):  # a tail_check fails the overflow
                c = np.abs(poly_add(e1 * x, e2 * (x * x)))
            tails[i] = np.max([tails[i], c[: d - top].max(), c[d + top + 1 :].max()])
    return tails


def fft_tail(hat: np.ndarray, n: int, axis):
    """Largest |coefficient| over ``axis`` of ``hat``, FFTs of
    samples on n points divided by n, at |k| >= n/4; a NaN is kept."""
    top = (n - 1) // 4  # the largest |k| below n/4
    # FFT order: indices top+1 .. n-top-1 hold the frequencies |k| > top
    return np.max(np.abs(hat[..., top + 1 : n - top]), axis=axis, initial=0.0)


def tail_check(tails: np.ndarray) -> tuple:
    """The check, for ``raise_first``, that each of ``tails``, from
    ``coframe_tails`` or ``fft_tail`` (the band that sampling drops), is at
    most ``ALIASING_LIMIT``, which NaN is not (else UnderResolvedError)."""
    return ~(tails <= ALIASING_LIMIT), lambda e: UnderResolvedError(
        f"Fourier tail {tails[e]:.2e} of the coefficients exceeds "
        f"{ALIASING_LIMIT:.0e}; the sampling grid under-resolves them"
    )


@np.errstate(over="ignore", invalid="ignore")
def _coframe_samples(cf: CoframeFamily, eps: np.ndarray, n: int):
    """The coframe e = I + eps*E1 + eps^2*E2 on ``grid_points(n)`` at each
    of the 1-d ``eps``, from one sample of E1, E2 and their derivatives at
    the harmonics |k| < n/4: ``(values, cofactors, det, checks)``.

    ``values`` (15, E, n) holds the real entries e^j_a at index 3j + a, then
    the derivatives of entries (j, 1), (j, 2); ``cofactors`` (3, E, n) are
    those of the first column, ``det`` (E, n) is det e and ``checks`` are
    the ``sample_checks`` of them all, which judge an overflow: none warns.
    """
    d = min(field_degree((*cf.E1, *cf.E2)), (n - 1) // 4)
    coeffs = np.array([[[resize_degree(c, d) for c in row] for row in f] for f in (cf.E1, cf.E2)])
    # for E1 and for E2: entries (a, b), then the derivatives of entries (a, 1), (a, 2)
    stack = np.concatenate([coeffs.reshape(2, 9, -1), poly_derivative(coeffs[:, :, 1:]).reshape(2, 6, -1)], 1)
    samples = poly_on_grid(stack.reshape(30, -1), n).reshape(2, 15, n)
    # held real: the imaginary parts dropped are at most |eps| |Im E1| + eps^2 |Im E2|
    eps2 = eps * eps
    values = samples.real[0, :, None] * eps[:, None]
    values[[0, 4, 8]] += 1.0
    values += samples.real[1, :, None] * eps2[:, None]
    imag = np.abs(eps) * np.max(np.abs(samples[0].imag)) + eps2 * np.max(np.abs(samples[1].imag))
    scale = np.fmax(values.max(axis=(0, 2)), -values.min(axis=(0, 2)))
    (e00, e01, e02), (e10, e11, e12), (e20, e21, e22) = values[:9].reshape(3, 3, *values.shape[1:])
    cofactors = np.array([e11 * e22 - e12 * e21, e02 * e21 - e01 * e22, e01 * e12 - e02 * e11])
    det = e00 * cofactors[0] + e10 * cofactors[1] + e20 * cofactors[2]
    return values, cofactors, det, sample_checks(eps, imag, scale, det, n)


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
        tails = fft_tail(np.fft.fft(sqrt_g11, axis=-1) / n, n, axis=-1)
    positive = (~(g11 > 0).all(axis=1), lambda e: SingularCoframeError(f"g_11 not positive at eps={eps[e]}"))
    raise_first((*checks, positive, tail_check(tails)))
    return (sqrt_g11.sum(axis=1) * 2.0 * np.pi / n).tolist()
