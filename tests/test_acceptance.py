"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines and timings.
"""

import time

import numpy as np
import pytest

from torusdirac import (
    CoframeFamily,
    arc_length,
    dirac_operator,
    galerkin_matrix,
    load_example,
    perturbation_report,
    spectrum_report,
    track_pair,
)
from torusdirac.cli import cmd_fit, cmd_galerkin
from torusdirac.dirac import inner
from torusdirac.perturbation import _first_order_operator, _second_order_operator, pseudoinverse
from torusdirac.trigpoly import poly_sub

from conftest import add, assert_sigfigs, charge_conjugate, eigenspace_projection, field_fourier
from conftest import free_operator, matmul, norm, random_field, random_symmetric_field, stacked
from test_dirac import random_spinor
from test_galerkin import FIRST_ROW_TABLE, ROTATION_TABLE


def report(criterion: int, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS - {detail}")


def parse_csv(text: str) -> tuple[list[str], list[list[float]]]:
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(tok) for tok in line.split(",")] for line in lines[1:]]
    return header, rows


def table_from_cmd_galerkin(name: str) -> dict[float, dict[int, tuple[float, float]]]:
    cfg = load_example(name)
    text, failures = cmd_galerkin(cfg)
    assert not failures
    header, rows = parse_csv(text)
    out = {}
    for row in rows:
        cells = dict(zip(header, row))
        out[cells["eps"]] = {
            n: (cells[f"mode_{n}"], cells[f"gap_{n}"]) for n in cfg.modes
        }
    return out


def test_criterion_1_rotation_family_table():
    start = time.perf_counter()
    table = table_from_cmd_galerkin("example-galerkin-1")
    checked = 0
    for eps, printed_row in ROTATION_TABLE.items():
        law = lambda n: n - eps**2 / (2.0 * (1.0 - eps**2))
        for n, printed in zip((-2, -1, 0, 1, 2), printed_row):
            mean, _ = table[eps][n]
            assert_sigfigs(mean, printed, 5)
            assert abs(mean - law(n)) <= 1e-9
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 15
    assert elapsed < 10.0
    report(1, f"15/15 printed values to 5 s.f. and exact law to 1e-9 "
              f"({elapsed:.2f}s < 10s)")


def test_criterion_2_first_row_family_table():
    start = time.perf_counter()
    table = table_from_cmd_galerkin("example-galerkin-2")
    checked = 0
    for eps, printed_row in FIRST_ROW_TABLE.items():
        for n, printed in zip((-2, -1, 0, 1, 2), printed_row):
            mean, _ = table[eps][n]
            assert_sigfigs(mean, printed, 4)
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 15
    assert elapsed < 10.0
    report(2, f"15/15 printed values to 4 s.f. ({elapsed:.2f}s < 10s)")


def test_criterion_3_first_row_family_quartic_fit():
    start = time.perf_counter()
    cfg = load_example("example-galerkin-2")
    cfg.modes = [1, -1]
    out = cmd_fit(cfg, order=4)
    header_line, *rest = out.strip().splitlines()
    table_lines = [ln for ln in rest if ln.count(",") == header_line.count(",")]
    header, rows = parse_csv("\n".join([header_line] + table_lines))
    fits = {int(row[0]): dict(zip(header[1:], row[1:])) for row in rows}
    assert abs(fits[1]["c2"] - 1.5) <= 1e-2
    assert abs(fits[-1]["c2"] + 1.5) <= 1e-2
    assert abs(fits[1]["c4"] - (-17.0 / 8.0)) <= 5e-2
    assert abs(fits[-1]["c4"] - (37.0 / 8.0)) <= 5e-2
    elapsed = time.perf_counter() - start
    report(3, f"c2 = +-3/2 within 1e-2, c4 = -17/8 and +37/8 within 5e-2 "
              f"({elapsed:.2f}s)")


def _exact(z, expected):
    assert complex(z) == complex(expected), f"{z!r} != {expected!r}"


def test_criterion_4_first_explicit_family():
    cfg = load_example("example-explicit-1")
    h, k = cfg.h, cfg.k
    closed, operator = (perturbation_report(cfg.family(), r) for r in ("closed_form", "operator"))
    for l2 in ("lambda2_plus", "lambda2_minus"):
        assert getattr(closed, l2) == pytest.approx(-0.5, abs=1e-13)
        assert abs(getattr(closed, l2) - getattr(operator, l2)) <= 1e-10

    i = 1j
    printed_h1 = np.array([[0, 0, 0], [0, 1, -i], [0, -i, -1]])
    printed_k1 = np.array([[-i / 2, 0.5, 0], [0.5, 0, 0], [0, 0, 0]])
    printed_hsq0 = np.diag([0.0, 4.0, 4.0])
    hsq = matmul(h, h)
    for a in range(3):
        for b in range(3):
            _exact(field_fourier(h, 1)[a, b], printed_h1[a, b])
            _exact(field_fourier(k, 1)[a, b], printed_k1[a, b])
            _exact(field_fourier(hsq, 0)[a, b], printed_hsq0[a, b])
    for m in range(2, 6):
        assert not field_fourier(h, m).any()
        assert not field_fourier(k, m).any()
        assert not field_fourier(hsq, m - 1).any()
    report(4, "lambda2 = -1/2 on both routes (1e-10); Fourier tables entry-exact")


def test_criterion_5_second_explicit_family():
    cfg = load_example("example-explicit-2")
    h, k = cfg.h, cfg.k
    closed, operator = (perturbation_report(cfg.family(), r) for r in ("closed_form", "operator"))
    assert closed.lambda1_plus == -0.5
    assert closed.lambda1_minus == 0.5
    assert operator.lambda1_plus == pytest.approx(-0.5, abs=1e-13)
    for l2, expected in (("lambda2_plus", 0.75), ("lambda2_minus", -1.0)):
        assert getattr(closed, l2) == pytest.approx(expected, abs=1e-13)
        assert getattr(operator, l2) == pytest.approx(expected, abs=1e-10)

    i = 1j
    printed_h0 = np.diag([1.0, 0.0, 0.0])
    printed_h1 = np.array(
        [[0, 0.5, -i / 2], [0.5, 0.5, -i / 2], [-i / 2, -i / 2, -0.5]]
    )
    printed_k1 = np.array([[-i / 2, 0.5, 0], [0.5, i / 2, 0], [0, 0, 0]])
    printed_hsq0 = np.array([[2, 1, 0], [1, 1.5, 0], [0, 0, 1.5]])
    printed_hsq1 = np.array([[0, 0.5, -i / 2], [0.5, 0, 0], [-i / 2, 0, 0]])
    # The published degree-2 block prints 1/2 in the (2,2) slot, but the
    # family itself forces (h^2)_22 = 2cos^2 + sin^2 = 3/2 + cos(2x)/2,
    # whose m=2 coefficient is 1/4. We assert the recomputed value and flag
    # the one-entry discrepancy instead of asserting a value that fails
    # verification against the defining data.
    printed_hsq2 = np.array([[0, 0, 0], [0, 0.25, -i / 4], [0, -i / 4, -0.25]])
    hsq = matmul(h, h)
    for a in range(3):
        for b in range(3):
            _exact(field_fourier(h, 0)[a, b], printed_h0[a, b])
            _exact(field_fourier(h, 1)[a, b], printed_h1[a, b])
            _exact(field_fourier(k, 1)[a, b], printed_k1[a, b])
            _exact(field_fourier(hsq, 0)[a, b], printed_hsq0[a, b])
            _exact(field_fourier(hsq, 1)[a, b], printed_hsq1[a, b])
            _exact(field_fourier(hsq, 2)[a, b], printed_hsq2[a, b])
    assert field_fourier(hsq, 2)[1, 1] != 0.5  # the published slot value
    for m in range(2, 6):
        assert not field_fourier(h, m).any()
        assert not field_fourier(k, m).any()
        assert not field_fourier(hsq, m + 1).any()
    assert not field_fourier(k, 0).any()
    report(
        5,
        "lambda1 = -+1/2 exact; lambda2 = 3/4 and -1 on both routes (1e-10); "
        "Fourier tables entry-exact except the published (h^2)_22 m=2 slot, "
        "which the defining h forces to 1/4 (published: 1/2)",
    )


def test_criterion_6_property_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    notes = []

    # Hermiticity: exact, as the gather mirrors the half spectra of real functions
    cfg = load_example("example-galerkin-2")
    op = dirac_operator(cfg.family(), 0.1, 256)
    h = galerkin_matrix(op, 25)
    sym_defect = float(np.max(np.abs(h - h.conj().T)))
    assert np.array_equal(h, h.conj().T)
    notes.append(f"hermiticity defect {sym_defect:.1e}")

    # multiplicity-two gaps at eps = 0.05, 10 random axisymmetric families
    worst_gap = 0.0
    for _ in range(10):
        cf = CoframeFamily(random_field(rng), random_field(rng))
        ev = spectrum_report(cf, 0.05, 10).eigenvalues
        worst_gap = max(worst_gap, max((ev[1::2] - ev[0::2])[2:-2]))
    assert worst_gap <= 1e-8
    notes.append(f"pair gaps <= {worst_gap:.1e}")

    # charge-conjugation commutation and formal self-adjointness
    worst_c = worst_sa = 0.0
    for _ in range(5):
        cf = CoframeFamily(random_field(rng), random_field(rng))
        op = dirac_operator(cf, 0.08, 256)
        u, v = random_spinor(rng), random_spinor(rng)
        worst_c = max(
            worst_c,
            norm(op.apply(charge_conjugate(u)) - charge_conjugate(op.apply(u))),
        )
        worst_sa = max(worst_sa, abs(inner(op.apply(u), v) - inner(u, op.apply(v))))
    assert worst_c <= 1e-10 and worst_sa <= 1e-10
    notes.append(f"C-commutation {worst_c:.1e}, self-adjointness {worst_sa:.1e}")

    # pseudoinverse contract (free_op - lambda0) Q f = f - P f
    w0 = free_operator()
    worst_q = 0.0
    for lam0 in (1, -1):
        for _ in range(5):
            f = random_spinor(rng, degree=4)
            f = poly_sub(f, eigenspace_projection(f, lam0))
            qf = pseudoinverse(f, lam0)
            lhs = poly_sub(w0.apply(qf), lam0 * qf)
            worst_q = max(worst_q, norm(poly_sub(lhs, f)))
    assert worst_q <= 1e-10
    notes.append(f"pseudoinverse contract {worst_q:.1e}")

    # cross-route agreement on 20 random families
    worst_l1 = worst_l2 = 0.0
    for _ in range(20):
        h = random_symmetric_field(rng)
        k = random_symmetric_field(rng)
        cf = CoframeFamily.from_perturbation(h, k)
        closed, operator = (perturbation_report(cf, r) for r in ("closed_form", "operator"))
        for sign in ("plus", "minus"):
            l1, l2 = f"lambda1_{sign}", f"lambda2_{sign}"
            worst_l1 = max(worst_l1, abs(getattr(closed, l1) - getattr(operator, l1)))
            worst_l2 = max(worst_l2, abs(getattr(closed, l2) - getattr(operator, l2)))
    assert worst_l1 <= 1e-12 and worst_l2 <= 1e-10
    notes.append(f"route agreement l1 {worst_l1:.1e}, l2 {worst_l2:.1e}")

    # linear-term cancellation: (l+ + l-)(eps) = O(eps^2)
    cf = CoframeFamily(random_field(rng), random_field(rng))

    def pair_sum(eps):
        rep = spectrum_report(cf, eps, 10)
        return track_pair(rep, 1)[0] + track_pair(rep, -1)[0]

    ratio = abs(pair_sum(0.04) / pair_sum(0.02))
    assert ratio >= 3.5
    notes.append(f"linear cancellation ratio {ratio:.2f}")

    # eps^3 residual of the two-term operator expansion
    worst_ratio = np.inf
    for _ in range(10):
        h = random_symmetric_field(rng)
        k = random_symmetric_field(rng)
        cf = CoframeFamily.from_perturbation(h, k)
        w1 = _first_order_operator(stacked(h))
        w2 = _second_order_operator(stacked(h), stacked(k))
        w0_ = free_operator()
        v = random_spinor(rng)

        def residual(eps):
            full = dirac_operator(cf, eps, 128)
            model = add(w0_.apply(v), eps * w1.apply(v), (eps * eps) * w2.apply(v))
            return norm(poly_sub(full.apply(v), model))

        worst_ratio = min(worst_ratio, residual(0.02) / residual(0.01))
    assert worst_ratio >= 7.0
    notes.append(f"Richardson ratio >= {worst_ratio:.2f}")

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(6, "; ".join(notes) + f" ({elapsed:.1f}s < 60s)")


def test_criterion_7_arc_length_linear_coefficient():
    cfg = load_example("example-explicit-2")
    cf = CoframeFamily.from_perturbation(cfg.h, cfg.k)
    # mean(h_11) = 1, so l(eps) = 2 pi (1 + eps/2) + O(eps^2)
    quotients = []
    for eps in (1e-2, 1e-3):
        err = abs(arc_length(cf, eps) - 2 * np.pi * (1 + 0.5 * eps))
        quotients.append(err / eps**2)
    q1, q2 = quotients
    assert q1 <= 10.0 and q2 <= 10.0
    assert 0.5 <= q1 / q2 <= 2.0
    report(7, f"|l(eps) - 2pi(1 + eps/2)| <= C eps^2 with C ~ {q1:.2f} "
              f"(two-point ratio {q1 / q2:.3f})")
