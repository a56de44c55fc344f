"""Asymptotic expansion coefficients of the eigenvalues +1 and -1.

Three independent routes are implemented:

* closed form: finite Fourier-coefficient sums in the perturbation data,
* operator route: Rayleigh-Schrodinger theory for the doubly degenerate
  eigenvalue, using the explicit mode-sum pseudoinverse,
* Galerkin fit: least-squares polynomial fit of tracked matrix eigenvalues
  over a small-eps sweep.

Cross-route agreement is the package's main numerical contract: the closed
forms are transcribed exactly as derived and validated against the operator
route rather than silently adjusted.

The operator route works on Fourier coefficients only: W1 and W2 have
trigonometric-polynomial coefficients, so applying them, the pseudoinverse
and the inner products are finite sums and no grid is sampled. It is two
private helpers, the first-order block and the second-order term, which take
W1 and W2 as arguments: the public route functions build their own,
``perturbation_report`` builds each once for both signs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dirac import (
    DiracOperator,
    SpinorField,
    first_order_operator,
    second_order_operator,
)
from .galerkin import basis_spinor, spectrum_report, track_pair
from .geometry import (
    CoframeFamily,
    NumericalContractError,
    first_order_perturbation,
    require_sym_real,
    second_order_perturbation,
)
from .trigpoly import Matrix3Field, resize_degree

ROUTES = ("closed_form", "operator", "galerkin_fit")


class PseudoinverseDomainError(NumericalContractError):
    """Input not orthogonal to the eigenspace the pseudoinverse annihilates."""


class TruncationError(NumericalContractError):
    """Mode-sum truncation too small for the input bandwidth."""


class DegenerateSplittingError(NumericalContractError):
    """First-order block on the degenerate eigenspace is not scalar."""


class FitResidualError(NumericalContractError):
    """Eigenvalue sweep is not explained by the polynomial model."""


@dataclass(frozen=True)
class Pseudoinverse:
    """Bounded inverse of (free operator - lambda0) off its eigenspace.

    Acts in Fourier space: the coefficient of e^{iqx} in Qf is

        (1/2) [ (q - lambda0)^{-1} A + (-q - lambda0)^{-1} B ] fhat(q)

    with A = [[1,1],[1,1]], B = [[1,-1],[-1,1]], each term present only when
    its denominator is nonzero. A annihilates the w-type part of mode q and
    doubles the v-type part (eigenvalue q); B does the reverse (the w-type
    part of mode q has eigenvalue -q), so this is the spectral sum
    sum_{mu != lambda0} P_mu / (mu - lambda0) truncated to |q| <= truncation.
    """

    lambda0: int
    truncation: int

    def apply(
        self, f: SpinorField, orthogonality_tol: float | None = None
    ) -> SpinorField:
        """Apply the mode sum; any kernel content of f is annihilated.

        Pass ``orthogonality_tol`` in contexts where the input is required to
        be orthogonal to the kernel (it is in the second-order eigenvalue
        formula): an overlap above the tolerance then raises instead of being
        silently projected out.
        """
        if orthogonality_tol is not None:
            for kind in ("v", "w"):
                overlap = abs(f.inner(basis_spinor(self.lambda0, kind)))
                if overlap > orthogonality_tol:
                    raise PseudoinverseDomainError(
                        f"input overlaps the lambda0={self.lambda0} eigenspace "
                        f"by {overlap:.2e} (tolerance {orthogonality_tol:.0e})"
                    )
        bw = f.bandwidth()
        if self.truncation < bw + abs(self.lambda0) + 1:
            raise TruncationError(
                f"truncation {self.truncation} below bandwidth requirement "
                f"{bw + abs(self.lambda0) + 1}"
            )
        M = self.truncation
        c = resize_degree(f.coeffs, M)
        q = np.arange(-M, M + 1)
        # weights of A and B per mode, zero where the denominator vanishes
        wa, wb = np.zeros(q.size), np.zeros(q.size)
        np.divide(0.5, q - self.lambda0, out=wa, where=q != self.lambda0)
        np.divide(0.5, -q - self.lambda0, out=wb, where=q != -self.lambda0)
        sym, anti = wa * (c[0] + c[1]), wb * (c[0] - c[1])
        return SpinorField(np.array([sym + anti, sym - anti]))


def _check_sign(n: int) -> None:
    if n not in (1, -1):
        raise ValueError(f"expansion implemented for eigenvalues +1 and -1, got {n}")


# ----------------------------------------------------------------------
# first order
# ----------------------------------------------------------------------

def first_correction_closed(h: Matrix3Field, n: int) -> float:
    """Closed form: -+ (1/2) * hhat_11(0) for n = +-1."""
    _check_sign(n)
    return float(-n * 0.5 * h.fourier(0)[0, 0].real)


def first_correction_operator(h: Matrix3Field, n: int) -> float:
    """Diagonal of the first-order term on the degenerate eigenspace.

    Also verifies that the full 2x2 block on span{v_n, w_n} is a real
    multiple of the identity; a nonscalar block would invalidate the whole
    first-order setup and raises DegenerateSplittingError.
    """
    _check_sign(n)
    return _first_order_block(first_order_operator(h), n)


def _first_order_block(w1: DiracOperator, n: int) -> float:
    """l1(n) from the block of the first-order operator ``w1`` on mode n."""
    v = basis_spinor(n, "v")
    w = basis_spinor(n, "w")
    image = w1.apply(v)
    diag_v = image.inner(v)
    off = image.inner(w)
    diag_w = w1.apply(w).inner(w)
    if abs(off) > 1e-9 or abs(diag_v - diag_w) > 1e-9 or abs(diag_v.imag) > 1e-9:
        raise DegenerateSplittingError(
            f"first-order block on mode {n} is not scalar: "
            f"diag ({diag_v:.3e}, {diag_w:.3e}), off-diagonal {abs(off):.3e}"
        )
    return float(diag_v.real)


# ----------------------------------------------------------------------
# second order
# ----------------------------------------------------------------------

def _antisymmetric_flux_sum(hhat: np.ndarray, degree: int) -> complex:
    """sum_{0 < |m| <= degree} m * sum_a [conj(hhat_a2(m)) hhat_a3(m)
                                        - conj(hhat_a3(m)) hhat_a2(m)],

    read from ``hhat = h.coefficient_stack(top)`` for any top >= ``degree``,
    the degree of h."""
    top = (hhat.shape[0] - 1) // 2
    total = 0.0 + 0.0j
    for m in range(-degree, degree + 1):
        if m == 0:
            continue
        hm = hhat[m + top]
        total += m * np.sum(np.conj(hm[:, 1]) * hm[:, 2] - np.conj(hm[:, 2]) * hm[:, 1])
    return total


def second_correction_closed(h: Matrix3Field, k: Matrix3Field, n: int) -> float:
    """Closed-form second-order coefficient for the eigenvalue n = +-1.

    Finite Fourier sums in h, k and h^2; the mode sums terminate because h
    has finite trigonometric degree. Of h^2 only the mean of entry (0, 0) is
    read, so only that entry is built; every coefficient of h is read from
    one stack zero-padded to the widest harmonic the sums reach.
    """
    _check_sign(n)
    d = h.degree
    top = d + 4
    hhat = h.coefficient_stack(top)
    hsq00 = h.product_entry(h, 0, 0)
    lead = n * (0.375 * hsq00.fourier(0) - 0.125 * k[0, 0].fourier(0))
    flux = -(1j / 16.0) * _antisymmetric_flux_sum(hhat, d)

    s_diag = 0.0 + 0.0j
    s_mixed = 0.0 + 0.0j
    for m in range(-d - 3, d + 4):
        if m == n:
            continue
        c11 = hhat[m - n + top, 0, 0]
        s_diag += (m + n) ** 2 / (m - n) * c11 * np.conj(c11)
        z = hhat[m + n + top]
        z1 = z[2, 0] + 1j * z[1, 0]
        z2 = np.conj(z[2, 0]) - 1j * np.conj(z[1, 0])
        s_mixed += (m - n) * z1 * z2

    value = lead + flux - s_diag / 16.0 - s_mixed / 16.0
    if abs(value.imag) > 1e-12:
        raise NumericalContractError(f"second-order coefficient not real: {value}")
    return float(value.real)


def second_correction_operator(h: Matrix3Field, k: Matrix3Field, n: int) -> float:
    """Operator-route second-order coefficient,

        <W2 v, v> - <(W1 - l1) Q (W1 - l1) v, v>,

    with Q the pseudoinverse at lambda0 = n truncated to |q| <= h.degree + 4,
    which covers the bandwidth of (W1 - l1) v: exact up to roundoff.
    """
    _check_sign(n)
    w1 = first_order_operator(h)
    w2 = second_order_operator(h, k)
    return _second_order_term(w1, w2, _first_order_block(w1, n), n, h.degree + 4)


def _second_order_term(
    w1: DiracOperator, w2: DiracOperator, l1: float, n: int, truncation: int
) -> float:
    """<W2 v, v> - <(W1 - l1) Q (W1 - l1) v, v> for v = v_n, given l1 = l1(n)."""
    v = basis_spinor(n, "v")
    residual = w1.apply(v) - l1 * v
    corrected = Pseudoinverse(lambda0=n, truncation=truncation).apply(
        residual, orthogonality_tol=1e-9
    )
    shifted = w1.apply(corrected) - l1 * corrected
    value = w2.apply(v).inner(v) - shifted.inner(v)
    if abs(value.imag) > 1e-10:
        raise NumericalContractError(f"second-order coefficient not real: {value}")
    return float(value.real)


# ----------------------------------------------------------------------
# Galerkin fit route
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FitResult:
    """Least-squares expansion of a tracked eigenvalue about mode n."""

    mode: int
    order: int
    coefficients: np.ndarray  # c_1..c_order
    uncertainties: np.ndarray
    residual_norm: float
    eps_grid: np.ndarray
    values: np.ndarray  # tracked pair means minus n

    def __post_init__(self):
        for arr in (self.coefficients, self.uncertainties, self.eps_grid, self.values):
            arr.setflags(write=False)


def default_fit_grid(order: int) -> np.ndarray:
    """6 log-spaced points for slope/curvature fits; a denser linear grid for
    quartic fits, where nuisance powers are needed to tame model error."""
    if order >= 4:
        return np.linspace(0.01, 0.08, 12)
    return np.logspace(np.log10(0.01), np.log10(0.1), 6)


def fit_from_values(n: int, eps_grid, values, order: int = 2) -> FitResult:
    """Fit precomputed tracked deviations ``values`` = lambda(eps) - n.

    Higher powers (up to four beyond ``order``) are included as nuisance
    columns when the sample count allows, absorbing model error from the
    tails of the expansion; only c_1..c_order are reported.
    """
    if order not in (1, 2, 4):
        raise ValueError("order must be 1, 2 or 4")
    grid = np.asarray(eps_grid, dtype=float)
    values = np.asarray(values, dtype=float)
    if grid.size < order + 2:
        raise ValueError(f"need at least {order + 2} eps samples for order {order}")
    if np.any(grid <= 0) or np.any(grid > 0.15):
        raise ValueError("eps samples must lie in (0, 0.15]")

    n_nuisance = min(4, grid.size - order - 2)
    powers = list(range(1, order + 1 + n_nuisance))
    design = np.stack([grid**p for p in powers], axis=1)
    coeffs, _, _, _ = np.linalg.lstsq(design, values, rcond=None)
    residual = float(np.linalg.norm(values - design @ coeffs))

    scale = float(np.max(np.abs(values)))
    if scale > 1e-13 and residual > 1e-6 * scale:
        raise FitResidualError(
            f"fit residual {residual:.2e} exceeds 1e-6 * max|lambda - n| = "
            f"{1e-6 * scale:.2e}; increase m or shrink the eps grid"
        )

    dof = grid.size - len(powers)
    sigma2 = residual**2 / dof if dof > 0 else 0.0
    try:
        cov = sigma2 * np.linalg.inv(design.T @ design)
        unc = np.sqrt(np.maximum(np.diag(cov), 0.0))
    except np.linalg.LinAlgError:
        unc = np.full(len(powers), np.nan)
    return FitResult(
        mode=n,
        order=order,
        coefficients=coeffs[:order].copy(),
        uncertainties=unc[:order].copy(),
        residual_norm=residual,
        eps_grid=grid.copy(),
        values=values,
    )


def fit_expansion(
    cf: CoframeFamily, modes, eps_grid=None, order: int = 2, m: int = 25
) -> dict[int, FitResult]:
    """Fit the tracked Galerkin pair means of every mode n in ``modes`` to
    n + c_1 eps + ... + c_order eps^order.

    One ``spectrum_report`` per eps point serves all modes; the default grid
    is ``default_fit_grid(order)``. Every eps is solved before any mode is
    tracked, so a singular coframe anywhere on the grid is reported ahead of
    a tracking failure at an earlier eps. Returns the fits by mode.
    """
    grid = default_fit_grid(order) if eps_grid is None else np.asarray(eps_grid, float)
    reports = [spectrum_report(cf, eps, m) for eps in grid]
    means = [[track_pair(r, n)[0] for n in modes] for r in reports]
    return {
        n: fit_from_values(n, grid, [row[i] - n for row in means], order)
        for i, n in enumerate(modes)
    }


# ----------------------------------------------------------------------
# combined report
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PerturbationReport:
    """First and second expansion coefficients from one route."""

    route: str
    lambda1_plus: float
    lambda1_minus: float
    lambda2_plus: float
    lambda2_minus: float
    fit_order: int = 0

    @property
    def asymmetry2(self) -> float:
        """lambda2(+1) + lambda2(-1); the h^2 and k terms cancel exactly, so
        a nonzero value is pure spectral asymmetry at quadratic order."""
        return self.lambda2_plus + self.lambda2_minus


def perturbation_report(cf: CoframeFamily, route: str, m: int = 25) -> PerturbationReport:
    """Compute all four coefficients by the requested route.

    The operator route runs in Fourier coefficients with the mode-sum
    truncation h.degree + 4 and builds W1 and W2 once for both signs; its
    values are those of ``first_correction_operator``/
    ``second_correction_operator`` to the bit. The Galerkin fit route fits
    modes +1 and -1 to second order from one sweep over
    ``default_fit_grid(4)`` at truncation ``m``.
    """
    h = first_order_perturbation(cf)
    k = second_order_perturbation(cf)
    if route == "closed_form":
        return PerturbationReport(
            route=route,
            lambda1_plus=first_correction_closed(h, 1),
            lambda1_minus=first_correction_closed(h, -1),
            lambda2_plus=second_correction_closed(h, k, 1),
            lambda2_minus=second_correction_closed(h, k, -1),
        )
    if route == "operator":
        # each check, operator and first-order block once, in the order that
        # separate first/second_correction_operator calls at +1, -1 meet them
        require_sym_real(h, "h")
        w1 = first_order_operator(h, check=False)
        l1 = {n: _first_order_block(w1, n) for n in (1, -1)}
        require_sym_real(k, "k")
        w2 = second_order_operator(h, k, check=False)
        l2 = {n: _second_order_term(w1, w2, l1[n], n, h.degree + 4) for n in (1, -1)}
        return PerturbationReport(
            route=route,
            lambda1_plus=l1[1],
            lambda1_minus=l1[-1],
            lambda2_plus=l2[1],
            lambda2_minus=l2[-1],
        )
    if route == "galerkin_fit":
        # the quartic grid: on the 6-point quadratic one, fits fail the residual check
        fits = fit_expansion(cf, (1, -1), default_fit_grid(4), order=2, m=m)
        return PerturbationReport(
            route=route,
            lambda1_plus=float(fits[1].coefficients[0]),
            lambda1_minus=float(fits[-1].coefficients[0]),
            lambda2_plus=float(fits[1].coefficients[1]),
            lambda2_minus=float(fits[-1].coefficients[1]),
            fit_order=2,
        )
    raise ValueError(f"unknown route {route!r}; expected one of {ROUTES}")

