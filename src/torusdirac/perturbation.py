"""The eps-expansion of the operator family and the expansion coefficients
of its eigenvalues +1 and -1, by three independent routes:

* closed form: finite Fourier-coefficient sums in the perturbation data,
* operator route: Rayleigh-Schrodinger theory for the doubly degenerate
  eigenvalue, using the explicit mode-sum pseudoinverse,
* Galerkin fit: least-squares polynomial fit of tracked matrix eigenvalues
  over a small-eps sweep.

Cross-route agreement is the package's main numerical contract: the closed
forms are transcribed exactly as derived and validated against the operator
route rather than silently adjusted.

``_metric_data`` builds what the first two routes read of g = I + eps*h +
(eps^2/4)*k + O(eps^3): h and the first column of k, as stacks (see
``trigpoly``). Each product of two stacks is formed, at the degree of the
rows and columns it reads, by one ``trigpoly._field_product``, and only
what is read is built: the closed form reads h, k[0, 0] and (h^2)[0, 0],
its sums over the harmonics being array reductions. ``_operator_route``
builds the terms W1 and W2 of the operator's expansion in the normal form
of ``dirac``, by ``_first_order_operator`` and ``_second_order_operator``,
with no recheck: h is symmetric, W1 and W2 real by construction, so
``DiracOperator._of`` holds their fresh half spectra without a copy. Their
coefficients are trigonometric polynomials, so applying them, the
pseudoinverse and the inner products are exact finite sums and no grid is
sampled. The route runs the modes +1 and -1, the Kramers pair, in
lockstep: every spinor on the way is a stack (2, 2, 2K+1) or (4, 2, 2K+1),
one row per mode, which ``DiracOperator.apply``, ``dirac.inner`` and
``pseudoinverse`` take whole, from the cached read-only basis spinors of
``galerkin.basis_spinor``. Each of its checks fails by
``geometry.raise_first``, mode +1 at its first failed check, then mode -1.
The fit route builds neither h nor k. ``perturbation_report(cf, route, m)``
is the one entry to every route.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dirac import DiracOperator, _spinor, inner
from .galerkin import basis_spinor, spectrum_sweep, track_pairs
from .geometry import CoframeFamily, NumericalContractError, raise_first
from .trigpoly import _degree, _field_product, field_degree, half_spectrum, poly_derivative, poly_sub
from .trigpoly import resize_degree, stack_field

ROUTES = ("closed_form", "operator", "galerkin_fit")
# c of the fit's rounding floor c * u * sqrt(N) * max(1, |n|), u the machine
# epsilon and N the eps samples: over twice the largest residual / (u sqrt(N)
# max(1, |n|)) measured on the golden families with E1 and E2 scaled by 1e-7
# and 1e-14, where rounding is all the residual holds (28), and under a third
# of the smallest 1e-6 * max|lambda - n| of the families unscaled (200)
_FIT_ROUNDING = 64.0
# the modes whose eigenvalues the coefficient routes expand
_KRAMERS_PAIR = (1, -1)
_TWICE_PAIR = 2 * np.array(_KRAMERS_PAIR)[:, None]  # 2n as a column, read-only
_TWICE_PAIR.setflags(write=False)


class PseudoinverseDomainError(NumericalContractError):
    """Input not orthogonal to the eigenspace the pseudoinverse annihilates."""


class DegenerateSplittingError(NumericalContractError):
    """First-order block on the degenerate eigenspace is not scalar."""


class FitResidualError(NumericalContractError):
    """Eigenvalue sweep is not explained by the polynomial model."""


@lru_cache(maxsize=16)
def _basis(modes: tuple, kinds: str) -> np.ndarray:
    """The basis spinors of the integer ``modes`` of each kind in ``kinds``
    ("v", "w" or "vw") as one stack (len(kinds) * len(modes), 2, 2D+1),
    kind by kind, each zero-padded to the largest |n|, D (cached,
    read-only)."""
    top = max(map(abs, modes), default=0)
    rows = [resize_degree(basis_spinor(n, kind), top) for kind in kinds for n in modes]
    stack = np.array(rows, dtype=complex).reshape(len(rows), 2, 2 * top + 1)
    stack.setflags(write=False)
    return stack


def pseudoinverse(c, n) -> np.ndarray:
    """Bounded inverse of (free operator - n) off its eigenspace, applied to
    the spinor with coefficients ``c``, or to each row of a stack (..., 2, 2K+1)
    with its own mode, ``n`` an integer or an array over the leading axes.

    Acts in Fourier space: the coefficient of e^{iqx} in the output is

        (1/2) [ (q - n)^{-1} A + (-q - n)^{-1} B ] c(q)

    with A = [[1,1],[1,1]], B = [[1,-1],[-1,1]], each term present only when
    its denominator is nonzero. A annihilates the w-type part of mode q and
    doubles the v-type part (eigenvalue q); B does the reverse (the w-type
    part of mode q has eigenvalue -q), so this is the spectral sum
    sum_{mu != n} P_mu / (mu - n). It is diagonal on plane waves, so the
    output has the harmonics |q| <= K of ``c`` and is exact on them.

    The input must be orthogonal to the kernel (it is in the second-order
    eigenvalue formula): an overlap above 1e-9 raises
    PseudoinverseDomainError instead of being silently projected out. Raises
    ValueError unless ``c`` has shape (..., 2, 2K+1). Of a stack, the first
    row that fails raises, at its first failed check.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # the checks judge a non-finite input
        out, checks = _pseudoinverse(c, n)
    raise_first(checks)
    return out


def _pseudoinverse(c, n):
    """``pseudoinverse``'s output and, for ``geometry.raise_first``, its
    checks: the overlaps with v_n, then with w_n, of every row, taken by one
    ``inner`` against the stack [v_n; w_n]."""
    c, n = _spinor(c), np.asarray(n)
    if n.shape != c.shape[:-2]:
        n = np.broadcast_to(n, c.shape[:-2])
    kernel = _basis(tuple(n.ravel().tolist()), "vw").reshape((2,) + n.shape + (2, -1))
    overlap = np.abs(inner(c, kernel))
    fails = ~(overlap <= 1e-9)  # "not overlap <= tol", so that a NaN overlap fails too

    def error(kind):
        return lambda i: PseudoinverseDomainError(
            f"input overlaps the lambda0={n.flat[i]} eigenspace by {overlap[kind].flat[i]:.2e} (tolerance 1e-09)"
        )

    q, n = np.arange(c.shape[-1]) - (c.shape[-1] - 1) // 2, n[..., None, None]
    # weights of A and B per mode, 0.5 / (q - n) and 0.5 / (-q - n), and 0
    # (0.5 / inf) where the denominator vanishes
    denominators = np.array((q, -q)) - n
    weights = 0.5 / np.where(denominators != 0, denominators, np.inf)
    wa, wb = weights[..., 0, :], weights[..., 1, :]
    sym, anti = wa * (c[..., 0, :] + c[..., 1, :]), wb * (c[..., 0, :] - c[..., 1, :])
    out = np.empty(c.shape, dtype=complex)
    np.add(sym, anti, out=out[..., 0, :])
    np.subtract(sym, anti, out=out[..., 1, :])
    return out, [(fails[0], error(0)), (fails[1], error(1))]


# ----------------------------------------------------------------------
# the eps-expansion
# ----------------------------------------------------------------------

def _metric_data(cf: CoframeFamily, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """What the closed form and operator route read of g = I + eps*h +
    (eps^2/4)*k + O(eps^3): h = E1 + E1^T, a stack (3, 3, 2D+1) at the degree
    D of E1, and the entries (a, 0), a < ``rows``, of k = 4*(E1^T E1 + E2 +
    E2^T), a stack (rows, 1, 2D'+1), D' = max(2D, deg E2), from E1 stacked
    once and the entries of E2 that k reads: one ``_field_product`` of E1's
    first ``rows`` columns, transposed, against its first column, then + E2,
    + E2^T and * 4, in that order. Raises NumericalContractError when h or k,
    from finite E1 and E2, overflows.
    """
    e1 = stack_field(cf.E1, field_degree(cf.E1))
    h = e1 + e1.transpose(1, 0, 2)
    product = _field_product(e1[:, :rows].transpose(1, 0, 2), e1[:, :1])
    d = max(field_degree(cf.E2), e1.shape[-1] - 1)  # e1.shape[-1] - 1 is twice the degree of E1
    # the entries (a, 0) and (0, a) of E2, a < rows, as the two rows of e2
    e2 = stack_field(([r[0] for r in cf.E2[:rows]], cf.E2[0][:rows]), d)
    k = (resize_degree(product, d) + e2[0, :, None] + e2[1, :, None]) * 4.0
    if not (np.isfinite(h).all() and np.isfinite(k).all()):
        raise NumericalContractError("h or k overflows: a coefficient is not finite")
    return h, k


# The two builders below take h and the first column of k as ``_metric_data``
# builds them, and check neither: they keep the k >= 0 half of what they
# build, so W1 and W2 are real by construction.

def _first_order_operator(h: np.ndarray) -> DiracOperator:
    """Linear term W1 of the eps-expansion of the operator family.

    Expanding the frame gives the symbol -(1/2) * B_h with B_h built from the
    first column of h; the action is then +(i/4)(B_h d/dx + d/dx B_h). The
    potential only enters at second order.
    """
    d = _degree(h[:, 0])  # the column's own degree, not that of all of h
    return DiracOperator._of(-0.5 * half_spectrum(resize_degree(h[:, 0], d)), np.zeros(d + 1, dtype=complex))


def _second_order_operator(h: np.ndarray, k: np.ndarray) -> DiracOperator:
    """Quadratic term W2 of the eps-expansion.

    Symbol (3/8) B_{h^2} - (1/8) B_k from the frame expansion, plus the real
    scalar potential -(1/16) * sum_a (h_{a2} h_{a3}' - h_{a3} h_{a2}'), the
    antisymmetrized first-column-free part of the half-density term. Of h^2
    only the first column is built; the potential's numerator is the product
    of the row [h_a2, h_a3] and the column [h_a3', -h_a2'], a = 1, 2, 3.
    """
    dh = poly_derivative(h)
    hcols = _field_product(h, h[:, :1])[:, 0]
    row, col = np.concatenate((h[:, 1], h[:, 2])), np.concatenate((dh[:, 2], -dh[:, 1]))
    scalar = _field_product(row[None], col[:, None])[0, 0]
    parts = (hcols, k[:, 0], scalar[None])
    top = max(x.shape[-1] for x in parts) // 2
    stacked = np.concatenate([resize_degree(x, top) for x in parts])
    half = half_spectrum(resize_degree(stacked, _degree(stacked)))  # at the largest degree the three really have
    return DiracOperator._of(0.375 * half[:3] - 0.125 * half[3:6], -half[6] / 16.0)


# ----------------------------------------------------------------------
# closed form and operator route
# ----------------------------------------------------------------------

def _mean(coeffs: np.ndarray) -> float:
    """The k = 0 coefficient of a real function, read as the real it is."""
    return float(coeffs[(coeffs.size - 1) // 2].real)


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
    m = np.arange(-d, d + 1)
    hsq00 = _field_product(h[:1], h[:, :1])[0, 0]
    lead = np.multiply(_KRAMERS_PAIR, 0.375 * _mean(hsq00) - 0.125 * _mean(k00))
    # conj(h_a2) h_a3 - conj(h_a3) h_a2, summed over a, is s - conj(s)
    s = np.einsum("ak,ak->k", np.conj(h[:, 1]), h[:, 2])
    flux = -(1j / 16.0) * np.dot(m, s - np.conj(s))
    nonzero = m != 0
    j, c11 = m[nonzero], h[0, 0][nonzero]
    s_diag = (j + _TWICE_PAIR) ** 2 / j @ (c11 * np.conj(c11))
    z1, z2 = h[2, 0] + 1j * h[1, 0], np.conj(h[2, 0]) - 1j * np.conj(h[1, 0])
    s_mixed = (m - _TWICE_PAIR) @ (z1 * z2)
    terms = np.array((lead, (flux, flux), s_diag / 16.0, s_mixed / 16.0))
    values = terms[0] + terms[1] - terms[2] - terms[3]
    raise_first((_realness_check(values, terms, 1e-12),))
    return values.real.tolist()


def _operator_route(h: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Operator-route coefficients [l1(+1), l1(-1)] and [l2(+1), l2(-1)] from
    h and the first column of k, as ``_metric_data`` builds them.

    l1(n) is the diagonal of the block of W1 on span{v_n, w_n}: one
    ``apply`` maps [v_1, v_-1, w_1, w_-1] and one ``inner`` takes the Gram
    matrix of the images against them. The full 2x2 block must be a real
    multiple of the identity; a nonscalar block would invalidate the whole
    first-order setup and raises DegenerateSplittingError, as does a NaN in
    it, mode +1 first. Then, for v = v_n,

        l2(n) = <W2 v, v> - <(W1 - l1) Q (W1 - l1) v, v>

    with Q the pseudoinverse at lambda0 = n, exact on the harmonics of
    (W1 - l1) v, so the value is exact up to roundoff. The modes run in
    lockstep and fail by one ordered list of checks: mode +1's pseudoinverse
    checks, its realness, then -1's. W1 is built before the block check, W2
    after it.
    """
    w1, basis = _first_order_operator(h), _basis(_KRAMERS_PAIR, "vw")
    v = basis[:2]
    images = w1.apply(basis)
    gram = inner(images[:, None], basis)  # gram[i, j] = <W1 basis_i, basis_j>
    (diag_v, diag_w), off = gram.diagonal().reshape(2, 2), gram.diagonal(2)
    scalar = (np.abs((off, diag_v - diag_w, diag_v.imag)) <= 1e-9).all(axis=0)
    raise_first(((~scalar, lambda r: DegenerateSplittingError(
        f"first-order block on mode {_KRAMERS_PAIR[r]} is not scalar: "
        f"diag ({diag_v[r]:.3e}, {diag_w[r]:.3e}), off-diagonal {abs(off[r]):.3e}"
    )),))
    w2, l1 = _second_order_operator(h, k), diag_v.real
    shift = l1.astype(complex)[:, None, None]
    residual = poly_sub(images[:2], v * shift)
    corrected, checks = _pseudoinverse(residual, _KRAMERS_PAIR)
    shifted = poly_sub(w1.apply(corrected), corrected * shift)
    # <W2 v, v> and <shifted, v> by one inner, each image cut to the degree of v first
    terms = inner(np.array([resize_degree(x, (v.shape[-1] - 1) // 2) for x in (w2.apply(v), shifted)]), v)
    values = terms[0] - terms[1]
    raise_first((*checks, _realness_check(values, terms, 1e-10)))
    return l1, values.real


# ----------------------------------------------------------------------
# Galerkin fit route
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FitResult:
    """Least-squares expansion of a tracked eigenvalue about mode n."""

    coefficients: np.ndarray  # c_1..c_order
    uncertainties: np.ndarray
    residual_norm: float
    values: np.ndarray  # tracked pair means minus n

    def __post_init__(self):
        for arr in (self.coefficients, self.uncertainties, self.values):
            arr.setflags(write=False)


def default_fit_grid(order: int) -> np.ndarray:
    """6 log-spaced points for slope/curvature fits; a denser linear grid for
    quartic fits, where nuisance powers are needed to tame model error."""
    if order >= 4:
        return np.linspace(0.01, 0.08, 12)
    return np.logspace(np.log10(0.01), np.log10(0.1), 6)


def _fit_grid(eps_grid, order: int) -> np.ndarray:
    """``eps_grid`` as floats; ValueError unless ``order`` is 1, 2 or 4 and
    the grid has at least order + 2 distinct eps, all in (0, 0.15]."""
    if order not in (1, 2, 4):
        raise ValueError("order must be 1, 2 or 4")
    grid = np.asarray(eps_grid, dtype=float)
    if grid.size < order + 2:
        raise ValueError(f"need at least {order + 2} eps samples for order {order}")
    if not np.all((0 < grid) & (grid <= 0.15)):  # so that a NaN fails
        raise ValueError("eps samples must lie in (0, 0.15]")
    repeated = grid[np.triu(grid[:, None] == grid, 1).any(axis=0)]  # each eps equal to an earlier one
    if repeated.size:
        raise ValueError(f"eps sample {repeated[0]} given twice")
    return grid


def fit_from_values(n: int, eps_grid, values, order: int = 2) -> FitResult:
    """Fit precomputed tracked deviations ``values`` = lambda(eps) - n.

    Higher powers (up to four beyond ``order``) are included as nuisance
    columns when the sample count allows, absorbing model error from the
    tails of the expansion; only c_1..c_order are reported. Raises
    ValueError on a grid that ``_fit_grid`` rejects, and FitResidualError when
    the residual exceeds both 1e-6 * max|values| and the rounding floor
    ``_FIT_ROUNDING`` * u * sqrt(N) * max(1, |n|), unless max|values| <= 1e-13.
    """
    grid = _fit_grid(eps_grid, order)
    values = np.array(values, dtype=float)  # a copy: FitResult freezes it, not the caller's array
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
            f"mode {n}, order {order}: fit residual {residual:.2e} exceeds max(1e-6 * max|lambda - n|, "
            f"rounding floor) = {max(1e-6 * scale, floor):.2e}; eps^1..eps^{powers[-1]} do not model the "
            f"sweep" + ("; fit at a higher order" if order < 4 else "")
        )

    dof = grid.size - len(powers)  # >= 2: n_nuisance <= N - order - 2
    sigma2 = residual**2 / dof
    try:
        cov = sigma2 * np.linalg.inv(design.T @ design)
        unc = np.sqrt(np.maximum(np.diag(cov), 0.0))
    except np.linalg.LinAlgError:
        unc = np.full(len(powers), np.nan)
    return FitResult(coeffs[:order].copy(), unc[:order].copy(), residual, values)


def fit_expansion(cf: CoframeFamily, modes, eps_grid=None, order: int = 2,
                  m: int = 25) -> dict[int, FitResult]:
    """Fit the tracked Galerkin pair means of every mode n in ``modes`` to
    n + c_1 eps + ... + c_order eps^order.

    One ``spectrum_sweep`` over the grid, default ``default_fit_grid(order)``,
    serves all modes, and one ``track_pairs`` tracks every (eps, mode) cell
    of it. ``_fit_grid`` checks the grid before any solve. Every eps is
    solved before any mode is tracked, so a singular coframe anywhere on the
    grid is reported ahead of a tracking failure at an earlier eps; the first
    failing cell in (eps, mode) row order raises. Returns the fits by mode.
    """
    grid = _fit_grid(default_fit_grid(order) if eps_grid is None else eps_grid, order)
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
    coefficients, with no truncation anywhere, and builds W1 and W2 once for
    both signs; it fails in the order h or k overflow, l1(+1),
    l1(-1), l2(+1), l2(-1). Both raise NumericalContractError first when h
    or k overflows. The Galerkin fit route fits modes +1 and -1 to second
    order from one sweep over ``default_fit_grid(4)`` at truncation ``m``.
    """
    if route == "closed_form":
        h, k = _metric_data(cf, 1)
        l1 = [-n * 0.5 * _mean(h[0, 0]) for n in _KRAMERS_PAIR]
        l2 = _second_corrections_closed(h, k[0, 0])
        return PerturbationReport(*l1, *l2)
    if route == "operator":
        l1, l2 = _operator_route(*_metric_data(cf, 3))
        return PerturbationReport(*map(float, l1), *map(float, l2))
    if route == "galerkin_fit":
        # the quartic grid: on the 6-point quadratic one, fits fail the residual check
        fits = fit_expansion(cf, _KRAMERS_PAIR, default_fit_grid(4), order=2, m=m)
        values = (float(fits[n].coefficients[j]) for j in (0, 1) for n in _KRAMERS_PAIR)
        return PerturbationReport(*values)  # l1(+1), l1(-1), l2(+1), l2(-1)
    raise ValueError(f"unknown route {route!r}; expected one of {ROUTES}")

