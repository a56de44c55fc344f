"""Perturbed coframe and metric on the unit 3-torus, axisymmetric case.

A family of coframes e(x^1; eps) = I + eps*E1(x^1) + eps^2*E2(x^1) determines
the metric g = e^T e. All data depend on x^1 only, so each object reduces to
matrix-valued functions on the circle, held as nested 3x3 tuples of entry
coefficient arrays (see ``trigpoly``). Sampled steps share one grid rule,
``default_grid``, and the checks ``require_real_samples``, ``positive_det``,
``coframe_tails`` and ``require_resolved``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .trigpoly import _ZERO, COEFF_TOL, _as_field, det3, field_degree, grid_points
from .trigpoly import matmul_entry, poly_add, poly_on_grid, poly_sub, stack_entries

#: Largest Fourier coefficient that sampling may drop at |k| >= n/4.
ALIASING_LIMIT = 1e-9

# coefficients of the identity's diagonal entries, shared read-only
_ONE = np.ones(1, dtype=complex)
_ONE.setflags(write=False)


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


def require_real_samples(imag: float, scale: float, what: str) -> None:
    """Raise NumericalContractError when ``imag``, the largest imaginary part
    of samples, is NaN or exceeds 1e-10 * max(1, ``scale``), their largest
    |value|: rounding grows with the size of the data."""
    if not imag <= 1e-10 * max(1.0, scale):
        raise NumericalContractError(
            f"{what} has imaginary part {imag:.2e}; expected real data"
        )


def as_real_samples(values: np.ndarray, what: str) -> np.ndarray:
    """The real part of the samples ``values``, after ``require_real_samples``."""
    require_real_samples(float(np.max(np.abs(values.imag))), float(np.max(np.abs(values))), what)
    return values.real


def _require_real(entries, message: str) -> tuple[np.ndarray, float]:
    """Raise ValueError(message) unless the 3x3 matrix of trig polynomials
    whose entry coefficient arrays are ``entries`` is real-valued; return its
    ``stack_entries`` stack and the tolerance.

    The defect |c_k - conj(c_-k)| is judged against ``COEFF_TOL`` times
    max(1, largest |c_k|): rounding in the products that build the data
    grows with the size of its entries, so data of magnitude up to 1 keep
    the absolute tolerance and larger data a relative one.
    """
    stack = stack_entries(entries, field_degree(entries))
    tol = COEFF_TOL * max(1.0, float(np.max(np.abs(stack))))
    if not np.all(np.abs(stack - np.conj(stack[::-1])) <= tol):
        raise ValueError(message)
    return stack, tol


def require_sym_real(entries, name: str) -> None:
    """Raise ValueError unless the 3x3 matrix of trig polynomials whose entry
    coefficient arrays are ``entries`` is real-valued and symmetric, both
    judged at the tolerance of ``_require_real``: the symmetry defect is
    |c_k(a, b) - c_k(b, a)|.
    """
    stack, tol = _require_real(entries, f"{name} must be real-valued")
    if not np.all(np.abs(stack - np.swapaxes(stack, 1, 2)) <= tol):
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

    def coframe_at(self, eps: float) -> tuple:
        """Entry coefficient arrays of the coframe I + eps*E1 + eps^2*E2,
        each entry summed in that order and at its own degree."""
        s1, s2 = complex(eps), complex(eps * eps)
        return tuple(
            tuple(
                poly_add(poly_add(_ONE if a == b else _ZERO, self.E1[a][b] * s1), self.E2[a][b] * s2)
                for b in range(3)
            )
            for a in range(3)
        )


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


def positive_det(det: np.ndarray, eps: float, num_points: int) -> None:
    """Raise SingularCoframeError unless every sample of det e in ``det``, on
    ``grid_points(num_points)``, exceeds 1e-12, which a NaN sample does not."""
    bad = np.nonzero(~(det > 1e-12))[0]
    if bad.size:
        j = int(bad[0])
        raise SingularCoframeError(
            f"coframe is singular at eps={eps}: det={det[j]:.3e} "
            f"at grid index {j} (x={grid_points(num_points)[j]:.6f})"
        )


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
            c = np.abs(poly_add(e1 * x, e2 * (x * x)))
            tails[i] = np.max([tails[i], c[: d - top].max(), c[d + top + 1 :].max()])
    return tails


def require_resolved(hats, n: int, tail: float = 0.0) -> None:
    """Raise UnderResolvedError when ``hats``, FFTs over the last axis of
    samples on n points divided by n, leave a tail above ``ALIASING_LIMIT``
    at |k| >= n/4, the band that sampling drops, or when ``tail``, a coframe
    tail from ``coframe_tails``, exceeds it. A NaN in the tail counts as a
    tail above the limit."""
    top = (n - 1) // 4  # the largest |k| below n/4
    # FFT order: indices top+1 .. n-top-1 hold the frequencies |k| > top
    tails = [tail] + [np.max(np.abs(h[..., top + 1 : n - top]), initial=0.0) for h in hats]
    tail = np.max(tails)  # np.max keeps a NaN, where max may drop it
    if not tail <= ALIASING_LIMIT:
        raise UnderResolvedError(
            f"Fourier tail {tail:.2e} of the coefficients exceeds "
            f"{ALIASING_LIMIT:.0e}; the sampling grid under-resolves them"
        )


def arc_length(cf: CoframeFamily, eps: float) -> float:
    """Length of the x^1 coordinate circle: int_0^2pi sqrt(g_11) dx^1.

    Trapezoidal quadrature on ``default_grid`` of the coframe degree, exact
    to rounding once ``require_resolved`` passes on sqrt(g_11). Only g_11 =
    sum_c e^c_1 e^c_1, entry (0, 0) of e^T e, is built; like
    ``dirac_operator`` it raises SingularCoframeError when det e is not
    strictly positive on the grid. The grid keeps every coframe harmonic in
    band, so only the tail of sqrt(g_11) is checked.
    """
    coframe = cf.coframe_at(eps)
    n = default_grid(field_degree(coframe))
    positive_det(as_real_samples(poly_on_grid(det3(coframe), n), "det(coframe)"), eps, n)
    g11_coeffs = matmul_entry(tuple(zip(*coframe)), coframe, 0, 0)
    g11 = as_real_samples(poly_on_grid(g11_coeffs, n), "g_11")
    if not np.all(g11 > 0):
        raise SingularCoframeError(f"g_11 not positive at eps={eps}")
    sqrt_g11 = np.sqrt(g11)
    require_resolved((np.fft.fft(sqrt_g11) / n,), n)
    return float(sqrt_g11.sum() * 2.0 * np.pi / n)
