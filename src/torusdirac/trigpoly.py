"""Arithmetic on finite complex Fourier series over the circle of period 2*pi.

A trigonometric polynomial of degree D is f(x) = sum_{|k| <= D} c_k e^{ikx}.
Every coefficient function in this package (metric entries, perturbation
matrices, operator symbols, spinors) is held as such coefficients; only the
rational frame is sampled, in ``dirac.dirac_operator``. ``resize_degree``
pads or cuts any array of coefficients centred on k = 0.

Degrees in this artifact are small (<= ~24 for determinants and potential
numerators), so coefficients are stored as a dense array over k = -D..D and
products are computed by direct convolution.

Evaluation on the uniform grid ``grid_points(n)`` goes through ``on_grid(n)``,
which multiplies the coefficients by columns -D..D of one read-only phase
table e^{ikx_j} per grid size. A table is built by the same expression that
``evaluate`` uses at arbitrary points, so both give the same bits; it is
rebuilt wider when a higher degree is asked for. At most
``PHASE_TABLE_SIZES`` grid sizes are kept, the least recently used one is
dropped first, and each table holds n*(2D+1) complex values: at most
~1.3 MB for the grids and degrees used here (n <= 1616, D <= 24).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

#: Absolute coefficient tolerance used by equality / realness predicates.
COEFF_TOL = 1e-12

#: Number of grid sizes whose phase table is kept.
PHASE_TABLE_SIZES = 4

_phase_tables: OrderedDict[int, np.ndarray] = OrderedDict()
_phase_lock = threading.Lock()


@lru_cache(maxsize=8)
def grid_points(n: int) -> np.ndarray:
    """Uniform grid x_j = 2*pi*j/n, j = 0..n-1 (cached, read-only)."""
    x = 2.0 * np.pi * np.arange(n) / n
    x.setflags(write=False)
    return x


def _phases(n: int, degree: int) -> np.ndarray:
    """Read-only (n, 2*degree+1) view of e^{ikx_j}, k = -degree..degree."""
    with _phase_lock:
        table = _phase_tables.pop(n, None)
        if table is None or table.shape[1] < 2 * degree + 1:
            k = np.arange(-degree, degree + 1)
            table = np.exp(1j * np.multiply.outer(grid_points(n), k))
            table.setflags(write=False)
        _phase_tables[n] = table
        if len(_phase_tables) > PHASE_TABLE_SIZES:
            _phase_tables.popitem(last=False)
    top = (table.shape[1] - 1) // 2
    return table[:, top - degree : top + degree + 1]


def resize_degree(coeffs: np.ndarray, degree: int) -> np.ndarray:
    """Coefficients over k = -D..D along the last axis, zero-padded or cut to
    k = -degree..degree; the input itself or a view when nothing is padded."""
    d = (coeffs.shape[-1] - 1) // 2
    if degree == d:
        return coeffs
    if degree < d:
        return coeffs[..., d - degree : d + degree + 1]
    out = np.zeros(coeffs.shape[:-1] + (2 * degree + 1,), dtype=complex)
    out[..., degree - d : degree + d + 1] = coeffs
    return out


@dataclass(frozen=True)
class TrigPoly:
    """Immutable finite Fourier series sum_{|k| <= degree} c_k e^{ikx}.

    ``coeffs[k + degree]`` holds c_k. Instances are safe to share across
    threads; all operations return new objects.
    """

    coeffs: np.ndarray = field(default_factory=lambda: np.zeros(1, dtype=complex))

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size % 2 == 0:
            raise ValueError("coefficient array must be 1-d with odd length 2*D+1")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def _adopt(cls, coeffs: np.ndarray) -> "TrigPoly":
        """Wrap a fresh complex array of odd length that nothing else holds,
        without copying or checking it; the array is made read-only. For
        results of numpy operations inside this class only."""
        coeffs.setflags(write=False)
        poly = object.__new__(cls)
        object.__setattr__(poly, "coeffs", coeffs)
        return poly

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls) -> "TrigPoly":
        return cls(np.zeros(1, dtype=complex))

    @classmethod
    def constant(cls, value: complex) -> "TrigPoly":
        return cls(np.array([value], dtype=complex))

    @classmethod
    def cosine(cls, k: int, amplitude: float = 1.0) -> "TrigPoly":
        """amplitude * cos(kx)."""
        if k == 0:
            return cls.constant(amplitude)
        c = np.zeros(2 * k + 1, dtype=complex)
        c[0] = c[-1] = amplitude / 2.0
        return cls(c)

    @classmethod
    def sine(cls, k: int, amplitude: float = 1.0) -> "TrigPoly":
        """amplitude * sin(kx)."""
        if k == 0:
            return cls.zero()
        c = np.zeros(2 * k + 1, dtype=complex)
        c[-1] = amplitude / (2.0j)
        c[0] = -amplitude / (2.0j)
        return cls(c)

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------

    @property
    def degree(self) -> int:
        return (self.coeffs.size - 1) // 2

    def fourier(self, m: int) -> complex:
        """Fourier coefficient c_m, zero when |m| exceeds the degree."""
        d = self.degree
        if abs(m) > d:
            return 0.0 + 0.0j
        return complex(self.coeffs[m + d])

    def evaluate(self, x) -> np.ndarray:
        """Evaluate at the points ``x`` (scalar or array)."""
        x = np.asarray(x, dtype=float)
        k = np.arange(-self.degree, self.degree + 1)
        return np.exp(1j * np.multiply.outer(x, k)) @ self.coeffs

    def on_grid(self, n: int) -> np.ndarray:
        """Evaluate on ``grid_points(n)``; the same values as ``evaluate``."""
        return _phases(n, self.degree) @ self.coeffs

    def is_real(self, tol: float = COEFF_TOL) -> bool:
        """True when c_{-k} = conj(c_k) for all k, so values are real."""
        return bool(np.all(np.abs(self.coeffs - np.conj(self.coeffs[::-1])) <= tol))

    def isclose(self, other: "TrigPoly", tol: float = COEFF_TOL) -> bool:
        """Coefficient-wise comparison at absolute tolerance ``tol``."""
        d = max(self.degree, other.degree)
        a = self._padded(d)
        b = other._padded(d)
        return bool(np.all(np.abs(a - b) <= tol))

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------

    def _padded(self, degree: int) -> np.ndarray:
        """Coefficients zero-padded to ``degree`` >= ``self.degree``."""
        return resize_degree(self.coeffs, degree)

    def __add__(self, other):
        if isinstance(other, TrigPoly):
            d = max(self.degree, other.degree)
            return TrigPoly._adopt(self._padded(d) + other._padded(d))
        return self + TrigPoly.constant(other)

    __radd__ = __add__

    def __neg__(self):
        return TrigPoly._adopt(-self.coeffs)

    def __sub__(self, other):
        if isinstance(other, TrigPoly):
            return self + (-other)
        return self + TrigPoly.constant(-other)

    def __mul__(self, other):
        if isinstance(other, TrigPoly):
            # discrete convolution of coefficients; degree adds
            return TrigPoly._adopt(np.convolve(self.coeffs, other.coeffs))
        return TrigPoly._adopt(self.coeffs * complex(other))

    __rmul__ = __mul__

    def derivative(self) -> "TrigPoly":
        """d/dx, i.e. c_k -> i k c_k."""
        k = np.arange(-self.degree, self.degree + 1)
        return TrigPoly._adopt(1j * k * self.coeffs)

    # ------------------------------------------------------------------
    # parsing: a list of (k, re, im) triples
    # ------------------------------------------------------------------

    @classmethod
    def from_triples(cls, triples) -> "TrigPoly":
        triples = list(triples)
        if not triples:
            return cls.zero()
        d = max(abs(int(k)) for k, _, _ in triples)
        c = np.zeros(2 * d + 1, dtype=complex)
        for k, re, im in triples:
            c[int(k) + d] += re + 1j * im
        return cls(c)


class Matrix3Field:
    """3x3 matrix whose entries are TrigPoly functions of x^1.

    Used for coframe perturbations, the metric, and the metric perturbation
    matrices. Immutable.

    ``product_entry(other, a, b)`` is the single entry (self @ other)[a, b],
    summed over c = 0, 1, 2 in that order; ``__matmul__`` builds each of its
    nine entries with it, so a caller that reads one entry of a product gets
    the same bits from 3 of the 27 convolutions.
    ``coefficient_stack(degree)`` gives all entry coefficients as one array.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries):
        rows = []
        for a in range(3):
            row = []
            for b in range(3):
                e = entries[a][b]
                if not isinstance(e, TrigPoly):
                    e = TrigPoly.constant(e)
                row.append(e)
            rows.append(tuple(row))
        self._entries = tuple(rows)

    @classmethod
    def zero(cls) -> "Matrix3Field":
        z = TrigPoly.zero()
        return cls([[z, z, z]] * 3)

    @classmethod
    def identity(cls) -> "Matrix3Field":
        z = TrigPoly.zero()
        one = TrigPoly.constant(1.0)
        return cls([[one if a == b else z for b in range(3)] for a in range(3)])

    def __getitem__(self, idx) -> TrigPoly:
        a, b = idx
        return self._entries[a][b]

    @property
    def degree(self) -> int:
        return max(e.degree for row in self._entries for e in row)

    def __add__(self, other: "Matrix3Field") -> "Matrix3Field":
        return Matrix3Field(
            [[self[a, b] + other[a, b] for b in range(3)] for a in range(3)]
        )

    def __sub__(self, other: "Matrix3Field") -> "Matrix3Field":
        return Matrix3Field(
            [[self[a, b] - other[a, b] for b in range(3)] for a in range(3)]
        )

    def __mul__(self, scalar) -> "Matrix3Field":
        return Matrix3Field([[self[a, b] * scalar for b in range(3)] for a in range(3)])

    __rmul__ = __mul__

    def product_entry(self, other: "Matrix3Field", a: int, b: int) -> TrigPoly:
        """Entry (a, b) of self @ other: sum over c of self[a, c] * other[c, b]."""
        acc = TrigPoly.zero()
        for c in range(3):
            acc = acc + self[a, c] * other[c, b]
        return acc

    def __matmul__(self, other: "Matrix3Field") -> "Matrix3Field":
        return Matrix3Field(
            [[self.product_entry(other, a, b) for b in range(3)] for a in range(3)]
        )

    def transpose(self) -> "Matrix3Field":
        return Matrix3Field([[self[b, a] for b in range(3)] for a in range(3)])

    def derivative(self) -> "Matrix3Field":
        return Matrix3Field(
            [[self[a, b].derivative() for b in range(3)] for a in range(3)]
        )

    def det(self) -> TrigPoly:
        """Determinant, exact in coefficient arithmetic."""
        e = self._entries
        return (
            e[0][0] * (e[1][1] * e[2][2] - e[1][2] * e[2][1])
            - e[0][1] * (e[1][0] * e[2][2] - e[1][2] * e[2][0])
            + e[0][2] * (e[1][0] * e[2][1] - e[1][1] * e[2][0])
        )

    def fourier(self, m: int) -> np.ndarray:
        """3x3 array of entry coefficients at harmonic m."""
        return np.array([[self[a, b].fourier(m) for b in range(3)] for a in range(3)])

    def coefficient_stack(self, degree: int) -> np.ndarray:
        """Entry coefficients zero-padded to ``degree`` (at least ``self.degree``):
        array (2*degree+1, 3, 3) whose element [m + degree] is ``fourier(m)``."""
        stack = np.array([[self[a, b]._padded(degree) for b in range(3)] for a in range(3)])
        return np.moveaxis(stack, -1, 0)

    def sample(self, x) -> np.ndarray:
        """Evaluate all entries on the points ``x``; shape (3, 3, len(x))."""
        x = np.asarray(x, dtype=float)
        return np.array(
            [[self[a, b].evaluate(x) for b in range(3)] for a in range(3)]
        )

    def on_grid(self, n: int) -> np.ndarray:
        """All entries on ``grid_points(n)``; shape (3, 3, n)."""
        return np.array([[self[a, b].on_grid(n) for b in range(3)] for a in range(3)])

    def is_symmetric(self, tol: float = COEFF_TOL) -> bool:
        return all(
            self[a, b].isclose(self[b, a], tol) for a in range(3) for b in range(a, 3)
        )

    def is_real(self, tol: float = COEFF_TOL) -> bool:
        return all(self[a, b].is_real(tol) for a in range(3) for b in range(3))

    def isclose(self, other: "Matrix3Field", tol: float = COEFF_TOL) -> bool:
        return all(
            self[a, b].isclose(other[a, b], tol) for a in range(3) for b in range(3)
        )
