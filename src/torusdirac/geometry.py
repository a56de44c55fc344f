"""Perturbed coframe, frame and metric on the unit 3-torus, axisymmetric case.

A family of coframes e(x^1; eps) = I + eps*E1(x^1) + eps^2*E2(x^1) determines
the metric g = e^T e. The frame is the transposed pointwise inverse of the
coframe. All data depend on x^1 only, so each object reduces to matrix-valued
functions on the circle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trigpoly import Matrix3Field, grid_points

DEFAULT_GRID = 256


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


def _as_real_samples(values: np.ndarray, what: str, tol: float = 1e-10) -> np.ndarray:
    imag = np.max(np.abs(values.imag))
    if imag > tol:
        raise NumericalContractError(
            f"{what} has imaginary part {imag:.2e}; expected real data"
        )
    return values.real


def require_sym_real(mat: Matrix3Field, name: str) -> None:
    """Raise ValueError unless ``mat`` is real-valued and symmetric."""
    if not mat.is_real():
        raise ValueError(f"{name} must be real-valued")
    if not mat.is_symmetric():
        raise ValueError(f"{name} must be symmetric")


@dataclass(frozen=True)
class CoframeFamily:
    """Coframe family e(x^1; eps) = I + eps*E1 + eps^2*E2 with real entries.

    Row index j labels the covector, column index the tensor component, so
    ``E1[j, a]`` perturbs e^j_a.
    """

    E1: Matrix3Field
    E2: Matrix3Field

    def __post_init__(self):
        for name, mat in (("E1", self.E1), ("E2", self.E2)):
            if not mat.is_real():
                raise ValueError(f"{name} must be a real-valued matrix field")

    @classmethod
    def from_perturbation(cls, h: Matrix3Field, k: Matrix3Field) -> "CoframeFamily":
        """Synthesize a coframe from metric perturbation data.

        Taking E1 = h/2 and E2 = (k - h^2)/8 gives a family whose metric is
        I + eps*h + (eps^2/4)*k up to O(eps^3), which pins every second-order
        quantity computed here.
        """
        require_sym_real(h, "h")
        require_sym_real(k, "k")
        E1 = h * 0.5
        E2 = (k - (h @ h)) * (1.0 / 8.0)
        return cls(E1, E2)

    def coframe_at(self, eps: float) -> Matrix3Field:
        return Matrix3Field.identity() + self.E1 * eps + self.E2 * (eps * eps)


def first_order_perturbation(cf: CoframeFamily) -> Matrix3Field:
    """Linear-in-eps coefficient of the metric: h = E1 + E1^T."""
    return cf.E1 + cf.E1.transpose()


def second_order_perturbation(cf: CoframeFamily) -> Matrix3Field:
    """Quadratic metric data k, from g = I + eps*h + (eps^2/4)*k + O(eps^3).

    The eps^2 Taylor coefficient of e^T e is E1^T E1 + E2 + E2^T, so
    k = 4*(E1^T E1 + E2 + E2^T).
    """
    return (cf.E1.transpose() @ cf.E1 + cf.E2 + cf.E2.transpose()) * 4.0


@dataclass(frozen=True)
class MetricSnapshot:
    """Metric family frozen at one eps, sampled on the uniform grid.

    ``coframe`` keeps exact coefficient data (the coframe is polynomial in
    the trig functions); the frame is rational, so it is held as pointwise
    samples only. ``frame[j, a]`` is e_j^a on the grid.
    """

    eps: float
    num_points: int
    coframe: Matrix3Field
    frame: np.ndarray
    sqrt_det_g: np.ndarray

    def __post_init__(self):
        self.frame.setflags(write=False)
        self.sqrt_det_g.setflags(write=False)


def _positive_det(coframe: Matrix3Field, eps: float, num_points: int) -> np.ndarray:
    """det e on ``grid_points(num_points)``, computed exactly in coefficient
    arithmetic. Raises SingularCoframeError unless every sample exceeds 1e-12."""
    det_samples = _as_real_samples(coframe.det().on_grid(num_points), "det(coframe)")
    bad = np.nonzero(det_samples <= 1e-12)[0]
    if bad.size:
        j = int(bad[0])
        raise SingularCoframeError(
            f"coframe is singular at eps={eps}: det={det_samples[j]:.3e} "
            f"at grid index {j} (x={grid_points(num_points)[j]:.6f})"
        )
    return det_samples


def metric_at(
    cf: CoframeFamily, eps: float, num_points: int = DEFAULT_GRID
) -> MetricSnapshot:
    """Build the metric snapshot at ``eps``.

    det e is computed exactly in coefficient arithmetic; the frame comes
    from pointwise 3x3 inversion on the grid.
    Raises SingularCoframeError when det e is not strictly positive.
    """
    coframe = cf.coframe_at(eps)
    det_samples = _positive_det(coframe, eps, num_points)
    csamp = _as_real_samples(coframe.on_grid(num_points), "coframe samples")
    # frame rows satisfy frame @ coframe^T = I pointwise
    stacked = np.transpose(csamp, (2, 0, 1))          # (n, 3, 3), rows j cols a
    frame = np.transpose(np.linalg.inv(np.transpose(stacked, (0, 2, 1))), (1, 2, 0))

    return MetricSnapshot(
        eps=float(eps),
        num_points=num_points,
        coframe=coframe,
        frame=frame,
        sqrt_det_g=det_samples,
    )


def arc_length(cf: CoframeFamily, eps: float) -> float:
    """Length of the x^1 coordinate circle: int_0^2pi sqrt(g_11) dx^1.

    Trapezoidal quadrature on the uniform grid; spectrally accurate since
    the integrand is analytic and periodic. Only g_11 = sum_c e^c_1 e^c_1,
    entry (0, 0) of e^T e, is built; like ``metric_at`` it raises
    SingularCoframeError when det e is not strictly positive on the grid.
    """
    coframe = cf.coframe_at(eps)
    _positive_det(coframe, eps, DEFAULT_GRID)
    g11_poly = coframe.transpose().product_entry(coframe, 0, 0)
    g11 = _as_real_samples(g11_poly.on_grid(DEFAULT_GRID), "g_11")
    if np.any(g11 <= 0):
        raise SingularCoframeError(f"g_11 not positive at eps={eps}")
    return float(np.sqrt(g11).sum() * 2.0 * np.pi / DEFAULT_GRID)
