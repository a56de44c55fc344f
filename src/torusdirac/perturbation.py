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
and the inner products are finite sums and no grid is sampled. It runs the
modes +1 and -1, the Kramers pair, in lockstep: every spinor on the way is
a stack (2, 2, 2K+1) or (4, 2, 2K+1) of coefficient arrays, one row per
mode, which ``DiracOperator.apply``, ``dirac.inner`` and ``pseudoinverse``
take whole. The basis spinors come cached and read-only from
``galerkin.basis_spinor``, and sums go through ``trigpoly.poly_sub``. The
route is two private helpers, the first-order blocks and the second-order
terms, which take W1 and W2 as arguments and share the stack of W1 v_n;
each fails by ``geometry.raise_first``, mode +1 at its first failed check,
then mode -1.

``perturbation_report(cf, route, m)`` is the one entry to every route. The
closed form and the operator route take h and the first column of k from one
``geometry._metric_data``, form each product of two stacks, at the degree of
the rows and columns it reads, by one ``trigpoly._field_product`` and build
only what they read: the closed form h, k[0, 0] and (h^2)[0, 0], its sums
over the harmonics being array reductions; the operator route h, the first
columns of k and h^2 and the potential's numerator for W2, with no recheck:
h is symmetric, W1 and W2 real by construction. The fit route builds neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dirac import DiracOperator, _first_order_operator, _second_order_operator, _spinor, inner
from .galerkin import basis_spinor, spectrum_sweep, track_pairs
from .geometry import CoframeFamily, NumericalContractError, _metric_data, raise_first
from .trigpoly import _field_product, poly_sub, resize_degree

ROUTES = ("closed_form", "operator", "galerkin_fit")
# c of the fit's rounding floor c * u * sqrt(N) * max(1, |n|), u the machine
# epsilon and N the eps samples: over twice the largest residual / (u sqrt(N)
# max(1, |n|)) measured on the golden families with E1 and E2 scaled by 1e-7
# and 1e-14, where rounding is all the residual holds (28), and under a third
# of the smallest 1e-6 * max|lambda - n| of the families unscaled (200)
_FIT_ROUNDING = 64.0
# the modes whose eigenvalues the coefficient routes expand
_KRAMERS_PAIR = (1, -1)


class PseudoinverseDomainError(NumericalContractError):
    """Input not orthogonal to the eigenspace the pseudoinverse annihilates."""


class TruncationError(NumericalContractError):
    """Mode-sum truncation too small for the input bandwidth."""


class DegenerateSplittingError(NumericalContractError):
    """First-order block on the degenerate eigenspace is not scalar."""


class FitResidualError(NumericalContractError):
    """Eigenvalue sweep is not explained by the polynomial model."""


@lru_cache(maxsize=16)
def _basis(modes: tuple, kind: str) -> np.ndarray:
    """The ``kind`` basis spinors of the integer ``modes`` as one stack
    (len(modes), 2, 2D+1), each zero-padded to the largest |n|, D (cached,
    read-only)."""
    top = max(map(abs, modes), default=0)
    rows = [resize_degree(basis_spinor(n, kind), top) for n in modes]
    stack = np.array(rows, dtype=complex).reshape(len(modes), 2, 2 * top + 1)
    stack.setflags(write=False)
    return stack


def pseudoinverse(c, n, truncation: int, orthogonality_tol: float | None = None) -> np.ndarray:
    """Bounded inverse of (free operator - n) off its eigenspace, applied to
    the spinor with coefficients ``c``, or to each row of a stack (..., 2, 2K+1)
    with its own mode, ``n`` an integer or an array over the leading axes.

    Acts in Fourier space: the coefficient of e^{iqx} in the output is

        (1/2) [ (q - n)^{-1} A + (-q - n)^{-1} B ] c(q)

    with A = [[1,1],[1,1]], B = [[1,-1],[-1,1]], each term present only when
    its denominator is nonzero. A annihilates the w-type part of mode q and
    doubles the v-type part (eigenvalue q); B does the reverse (the w-type
    part of mode q has eigenvalue -q), so this is the spectral sum
    sum_{mu != n} P_mu / (mu - n) truncated to |q| <= truncation, and any
    kernel content of ``c`` is annihilated.

    Pass ``orthogonality_tol`` where the input must be orthogonal to the
    kernel (it is in the second-order eigenvalue formula): an overlap above
    the tolerance then raises PseudoinverseDomainError instead of being
    silently projected out. Raises TruncationError unless ``truncation``
    exceeds the bandwidth of ``c`` (its largest |k| with a coefficient above
    1e-13) plus |n|, and ValueError unless ``c`` has shape (..., 2, 2K+1).
    Of a stack, the first row that fails raises, at its first failed check.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # the checks judge a non-finite input
        out, checks = _pseudoinverse(c, n, truncation, orthogonality_tol)
    raise_first(checks)
    return out


def _pseudoinverse(c, n, truncation: int, orthogonality_tol: float | None = None):
    """``pseudoinverse``'s output and, for ``geometry.raise_first``, its checks."""
    c = _spinor(c)
    n = np.broadcast_to(n, c.shape[:-2])
    k = np.arange(c.shape[-1]) - (c.shape[-1] - 1) // 2
    need = np.where(np.abs(c).max(axis=-2) > 1e-13, np.abs(k), 0).max(axis=-1) + np.abs(n) + 1

    def domain_check(kind):
        overlap = np.abs(inner(c, _basis(tuple(n.ravel().tolist()), kind).reshape(n.shape + (2, -1))))
        # "not overlap <= tol", so that a NaN overlap fails too
        return ~(overlap <= orthogonality_tol), lambda i: PseudoinverseDomainError(
            f"input overlaps the lambda0={n.flat[i]} eigenspace "
            f"by {overlap.flat[i]:.2e} (tolerance {orthogonality_tol:.0e})"
        )

    checks = [] if orthogonality_tol is None else [domain_check("v"), domain_check("w")]
    checks.append((truncation < need, lambda i: TruncationError(
        f"truncation {truncation} below bandwidth requirement {need.flat[i]}"
    )))
    f = resize_degree(c, truncation)
    q, n = np.arange(-truncation, truncation + 1), n[..., None]
    # weights of A and B per mode, zero where the denominator vanishes
    wa, wb = np.zeros(n.shape[:-1] + q.shape), np.zeros(n.shape[:-1] + q.shape)
    np.divide(0.5, q - n, out=wa, where=q != n)
    np.divide(0.5, -q - n, out=wb, where=q != -n)
    sym, anti = wa * (f[..., 0, :] + f[..., 1, :]), wb * (f[..., 0, :] - f[..., 1, :])
    return np.stack([sym + anti, sym - anti], axis=-2), checks


# ----------------------------------------------------------------------
# first order
# ----------------------------------------------------------------------

def _mean(coeffs: np.ndarray) -> float:
    """The k = 0 coefficient of a real function, read as the real it is."""
    return float(coeffs[(coeffs.size - 1) // 2].real)


def _first_order_blocks(w1: DiracOperator) -> tuple[np.ndarray, np.ndarray]:
    """[l1(+1), l1(-1)] from the blocks of the first-order operator ``w1`` on
    the modes of the Kramers pair, and the stack [W1 v_1, W1 v_-1], which
    the second-order terms reuse.

    l1(n) is the diagonal of the block on span{v_n, w_n}. The full 2x2
    block must be a real multiple of the identity; a nonscalar block would
    invalidate the whole first-order setup and raises
    DegenerateSplittingError, as does a NaN in it, mode +1 first. One
    ``apply`` maps [v_1, v_-1, w_1, w_-1] and one ``inner`` takes the Gram
    matrix of the images against them.
    """
    basis = np.concatenate([_basis(_KRAMERS_PAIR, "v"), _basis(_KRAMERS_PAIR, "w")])
    images = w1.apply(basis)
    gram = inner(images[:, None], basis)  # gram[i, j] = <W1 basis_i, basis_j>
    (diag_v, diag_w), off = gram.diagonal().reshape(2, 2), gram.diagonal(2)
    scalar = (np.abs(off) <= 1e-9) & (np.abs(diag_v - diag_w) <= 1e-9) & (np.abs(diag_v.imag) <= 1e-9)
    raise_first(((~scalar, lambda r: DegenerateSplittingError(
        f"first-order block on mode {_KRAMERS_PAIR[r]} is not scalar: "
        f"diag ({diag_v[r]:.3e}, {diag_w[r]:.3e}), off-diagonal {abs(off[r]):.3e}"
    )),))
    return diag_v.real, images[:2]


# ----------------------------------------------------------------------
# second order
# ----------------------------------------------------------------------

def _realness_check(values: np.ndarray, terms: np.ndarray, rel_tol: float):
    """The check, for ``geometry.raise_first``, that each of ``values``, the
    sum of ``terms`` (T, R) at its index, is finite with |Im| <= rel_tol *
    max |term|: the rounding in a sum grows with its largest term, so the
    imaginary part is judged against that scale, not against 1."""
    fails = ~((np.abs(values.imag) <= rel_tol * np.abs(terms).max(axis=0)) & np.isfinite(values))

    def error(i):
        scale = max(abs(t[i]) for t in terms)
        return NumericalContractError(f"second-order coefficient not real: {values[i]} (terms up to {scale:.3e})")

    return fails, error


def _second_corrections_closed(h: np.ndarray, k00: np.ndarray) -> list[float]:
    """Closed-form second-order coefficients [l2(+1), l2(-1)] from the stack
    of h and the coefficients of k[0, 0].

    Finite Fourier sums over the harmonics m of h, which has finite degree;
    of h^2 only entry (0, 0) is built. Each sum is one reduction over m, for
    both signs n at once, and one check judges the realness of both:

        lead   n * (3/8 mean (h^2)_11 - 1/8 mean k_11)
        flux   -(i/16) sum_m m sum_a [conj(h_a2) h_a3 - conj(h_a3) h_a2](m)
        diag   (1/16) sum_{m != 0} (m + 2n)^2 / m |h_11(m)|^2
        mixed  (1/16) sum_m (m - 2n) z(m) conj(z(m)), z = h_31 + i h_21

    and l2(n) = lead + flux - diag - mixed.
    """
    d = (h.shape[-1] - 1) // 2
    m, n = np.arange(-d, d + 1), np.array(_KRAMERS_PAIR)[:, None]
    hsq00 = _field_product(h[:1], h[:, :1])[0, 0]
    lead = np.multiply(_KRAMERS_PAIR, 0.375 * _mean(hsq00) - 0.125 * _mean(k00))
    # conj(h_a2) h_a3 - conj(h_a3) h_a2, summed over a, is s - conj(s)
    s = np.einsum("ak,ak->k", np.conj(h[:, 1]), h[:, 2])
    flux = -(1j / 16.0) * np.dot(m, s - np.conj(s))
    j, c11 = m[m != 0], h[0, 0][m != 0]
    s_diag = (j + 2 * n) ** 2 / j @ (c11 * np.conj(c11))
    z1, z2 = h[2, 0] + 1j * h[1, 0], np.conj(h[2, 0]) - 1j * np.conj(h[1, 0])
    s_mixed = (m - 2 * n) @ (z1 * z2)
    terms = np.array((lead, (flux, flux), s_diag / 16.0, s_mixed / 16.0))
    values = terms[0] + terms[1] - terms[2] - terms[3]
    raise_first((_realness_check(values, terms, 1e-12),))
    return values.real.tolist()


def _second_order_terms(w1: DiracOperator, w2: DiracOperator, w1v: np.ndarray, l1: np.ndarray,
                        truncation: int) -> np.ndarray:
    """Operator-route second-order coefficients [l2(+1), l2(-1)],

        <W2 v, v> - <(W1 - l1) Q (W1 - l1) v, v>

    for v = v_n, given the stacks w1v of W1 v and l1 of l1(n), with Q the
    pseudoinverse at lambda0 = n truncated to |q| <= ``truncation``; deg h + 4
    covers the bandwidth of (W1 - l1) v, so the value is exact up to
    roundoff. The modes run in lockstep, and fail by one ordered list of
    checks: mode +1's pseudoinverse checks, then its realness, then -1's."""
    v = _basis(_KRAMERS_PAIR, "v")
    shift = l1.astype(complex)[:, None, None]
    residual = poly_sub(w1v, v * shift)
    corrected, checks = _pseudoinverse(residual, _KRAMERS_PAIR, truncation, orthogonality_tol=1e-9)
    shifted = poly_sub(w1.apply(corrected), corrected * shift)
    terms = np.array((inner(w2.apply(v), v), inner(shifted, v)))
    values = terms[0] - terms[1]
    raise_first((*checks, _realness_check(values, terms, 1e-10)))
    return values.real


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
    tails of the expansion; only c_1..c_order are reported. Raises
    FitResidualError when the residual exceeds both 1e-6 * max|values| and
    the rounding floor ``_FIT_ROUNDING`` * u * sqrt(N) * max(1, |n|), unless
    max|values| <= 1e-13.
    """
    if order not in (1, 2, 4):
        raise ValueError("order must be 1, 2 or 4")
    grid = np.asarray(eps_grid, dtype=float)
    values = np.asarray(values, dtype=float)
    if grid.size < order + 2:
        raise ValueError(f"need at least {order + 2} eps samples for order {order}")
    if not np.all((0 < grid) & (grid <= 0.15)):  # so that a NaN fails
        raise ValueError("eps samples must lie in (0, 0.15]")
    repeated = grid[np.triu(grid[:, None] == grid, 1).any(axis=0)]  # each eps equal to an earlier one
    if repeated.size:
        raise ValueError(f"eps sample {repeated[0]} given twice")

    n_nuisance = min(4, grid.size - order - 2)
    powers = list(range(1, order + 1 + n_nuisance))
    design = np.stack([grid**p for p in powers], axis=1)
    coeffs, _, _, _ = np.linalg.lstsq(design, values, rcond=None)
    residual = float(np.linalg.norm(values - design @ coeffs))

    scale = float(np.max(np.abs(values)))
    # rounding in the eigenvalues alone leaves a residual up to a rounding floor
    floor = _FIT_ROUNDING * np.finfo(float).eps * np.sqrt(grid.size) * max(1, abs(n))
    # "not ... <= ..." so that a NaN value or residual fails
    if not (scale <= 1e-13 or residual <= max(1e-6 * scale, floor)):
        raise FitResidualError(
            f"fit residual {residual:.2e} exceeds max(1e-6 * max|lambda - n|, rounding floor) = "
            f"{max(1e-6 * scale, floor):.2e}; increase m or shrink the eps grid"
        )

    dof = grid.size - len(powers)
    sigma2 = residual**2 / dof if dof > 0 else 0.0
    try:
        cov = sigma2 * np.linalg.inv(design.T @ design)
        unc = np.sqrt(np.maximum(np.diag(cov), 0.0))
    except np.linalg.LinAlgError:
        unc = np.full(len(powers), np.nan)
    return FitResult(n, order, coeffs[:order].copy(), unc[:order].copy(), residual, grid.copy(), values)


def fit_expansion(cf: CoframeFamily, modes, eps_grid=None, order: int = 2,
                  m: int = 25) -> dict[int, FitResult]:
    """Fit the tracked Galerkin pair means of every mode n in ``modes`` to
    n + c_1 eps + ... + c_order eps^order.

    One ``spectrum_sweep`` over the grid, default ``default_fit_grid(order)``,
    serves all modes, and one ``track_pairs`` tracks every (eps, mode) cell
    of it. Every eps is solved before any mode is tracked, so a singular
    coframe anywhere on the grid is reported ahead of a tracking failure at
    an earlier eps; the first failing cell in (eps, mode) row order raises.
    Returns the fits by mode.
    """
    grid = default_fit_grid(order) if eps_grid is None else np.asarray(eps_grid, float)
    means, _, failures = track_pairs(spectrum_sweep(cf, grid, m), modes)
    if failures:
        raise next(iter(failures.values()))
    return {n: fit_from_values(n, grid, means[:, i] - n, order) for i, n in enumerate(modes)}


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

    @property
    def asymmetry2(self) -> float:
        """lambda2(+1) + lambda2(-1); the h^2 and k terms cancel exactly, so
        a nonzero value is pure spectral asymmetry at quadratic order."""
        return self.lambda2_plus + self.lambda2_minus


# one errstate per report, cheaper than one per built quantity: a check
# judges every result, and an h or k that overflows raises
@np.errstate(over="ignore", invalid="ignore")
def perturbation_report(cf: CoframeFamily, route: str, m: int = 25) -> PerturbationReport:
    """Compute all four coefficients by the requested route, with no
    warning on overflow.

    The closed form builds h and k[0, 0]; l1(n) = -n/2 * hhat_11(0). The
    operator route builds h and the first column of k, runs in Fourier
    coefficients with the mode-sum truncation deg h + 4 and builds W1 and W2
    once for both signs; it fails in the order h or k overflow, l1(+1),
    l1(-1), l2(+1), l2(-1). Both raise NumericalContractError first when h
    or k overflows. The Galerkin fit route fits modes +1 and -1 to second
    order from one sweep over ``default_fit_grid(4)`` at truncation ``m``.
    """
    if route == "closed_form":
        h, k = _metric_data(cf, 1)
        l1 = [-n * 0.5 * _mean(h[0, 0]) for n in (1, -1)]
        l2 = _second_corrections_closed(h, k[0, 0])
        return PerturbationReport(route, *l1, *l2)
    if route == "operator":
        h, k = _metric_data(cf, 3)  # each operator and first-order block once
        w1 = _first_order_operator(h)
        l1, w1v = _first_order_blocks(w1)
        w2 = _second_order_operator(h, k)
        l2 = _second_order_terms(w1, w2, w1v, l1, (h.shape[-1] - 1) // 2 + 4)
        return PerturbationReport(route, *map(float, l1), *map(float, l2))
    if route == "galerkin_fit":
        # the quartic grid: on the 6-point quadratic one, fits fail the residual check
        fits = fit_expansion(cf, (1, -1), default_fit_grid(4), order=2, m=m)
        values = (float(fits[n].coefficients[j]) for j in (0, 1) for n in (1, -1))
        return PerturbationReport(route, *values)  # l1(+1), l1(-1), l2(+1), l2(-1)
    raise ValueError(f"unknown route {route!r}; expected one of {ROUTES}")

