"""Pair tracking over a whole sweep against the rules applied cell by cell.

``track_pairs`` judges every (eps, mode) cell of a sweep in one vectorized
verdict, which ``fit_expansion``, the ``galerkin_fit`` route and
``cmd_galerkin`` use. ``reference_track_pair`` in conftest applies the same
rules to one cell at a time with ``argpartition`` on the 1-d spectrum. Every
cell must get the same pair mean and gap, bit for bit, or the same
TrackingError text; ``fit`` must raise the first failure in (eps, mode) row
order, and ``galerkin`` must print the same ``nan`` cells and stderr lines.
"""

from __future__ import annotations

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusdirac import TrackingError, fit_expansion, galerkin, load_example, perturbation, track_pair
from torusdirac.cli import _csv, _render_table, main
from torusdirac.galerkin import SpectrumReport, track_pairs

from conftest import reference_track_pair

MODES = (-1, 0, 1, 2, 5)
FIT_EPS = np.linspace(0.01, 0.08, 12)


def _report(eps: float, values, m: int = 5) -> SpectrumReport:
    return SpectrumReport(eps=eps, m=m, eigenvalues=np.sort(np.asarray(values, dtype=float)))


def _kramers(values) -> list[float]:
    return [v for v in values for _ in range(2)]


# spectra of m = 5 (edge |n| <= 4) that fail each rule at one mode
GAP = _report(0.3, _kramers([-2, -1, 0, 2]) + [0.95, 1.05])  # mode 1: gap 0.1
THIRD = _report(0.2, _kramers([-1, 0, 0.9, 1.2, 2]))  # mode 1: pairs at 0.9 and 1.2
FAR = _report(0.1, _kramers([-2, -1, 0, 1.6, 2.5]))  # mode 1: nearest pair at 1.6
CLEAN = _report(0.05, _kramers([-2.01, -1.005, 1e-9, 1.005, 2.01]))
# mode 5 fails the truncation edge in every report
REPORTS = [CLEAN, GAP, THIRD, FAR, CLEAN]


def _cell(report, n):
    try:
        return reference_track_pair(report, n)
    except TrackingError as exc:
        return str(exc)


def assert_cells_match(reports, modes) -> None:
    means, gaps, failures = track_pairs(reports, modes)
    assert list(failures) == sorted(failures)  # row order
    for e, report in enumerate(reports):
        for i, n in enumerate(modes):
            expected = _cell(report, n)
            if isinstance(expected, str):
                assert str(failures[e, i]) == expected
                assert isinstance(failures[e, i], TrackingError)
            else:
                assert (e, i) not in failures
                assert (means[e, i].hex(), gaps[e, i].hex()) == tuple(x.hex() for x in expected)


def test_each_failure_gives_the_cell_by_cell_text():
    assert_cells_match(REPORTS, MODES)
    kinds = {str(exc).split()[0] for exc in track_pairs(REPORTS, MODES)[2].values()}
    assert kinds == {"mode", "eigenvalues", "third", "no"}


def test_track_pair_is_the_one_cell_verdict():
    for report in REPORTS:
        for n in MODES:
            expected = _cell(report, n)
            if isinstance(expected, str):
                with pytest.raises(TrackingError) as info:
                    track_pair(report, n)
                assert str(info.value) == expected
            else:
                assert track_pair(report, n) == expected


def test_two_eigenvalue_spectra_and_empty_sweeps():
    assert_cells_match([_report(0.1, [0.25, 0.25], m=0), _report(0.2, [0.5, 0.75], m=0)], (0,))
    means, gaps, failures = track_pairs([], (1, -1))
    assert means.shape == gaps.shape == (0, 2) and failures == {}


@st.composite
def sweeps(draw) -> list[SpectrumReport]:
    """Reports of one m, with spectra of its order on a quarter grid, so that
    distances tie and pairs are exact."""
    m = draw(st.integers(0, 5))
    spectrum = st.lists(st.integers(-16, 16), min_size=2 * (2 * m + 1), max_size=2 * (2 * m + 1))
    rows = draw(st.lists(st.tuples(st.floats(-0.2, 0.2), spectrum), min_size=1, max_size=5))
    return [_report(eps, np.array(values) / 4.0, m) for eps, values in rows]


@settings(max_examples=200)
@given(sweeps(), st.lists(st.integers(-4, 4), min_size=1, max_size=5))
def test_random_sweeps_match_cell_by_cell(reports, modes):
    assert_cells_match(reports, modes)


def test_fit_raises_the_first_failure_in_row_order(monkeypatch):
    # row 4 fails mode 1 and row 7 mode -1: with modes (-1, 1) the first
    # failure in row order is row 4, in column order it would be row 7
    reports = [CLEAN] * 12
    reports[4], reports[7] = THIRD, _report(0.07, _kramers([-2, 0, 1, 2]) + [-1.1, -0.9])
    monkeypatch.setattr(perturbation, "spectrum_sweep", lambda cf, grid, m: reports)
    cf = load_example("example-galerkin-2").family()
    for modes, row in (((-1, 1), 4), ((1, -1), 4), ((-1, 2), 7)):
        expected = next(
            text for report in reports for n in modes if isinstance(text := _cell(report, n), str)
        )
        assert f"eps={reports[row].eps}" in expected
        with pytest.raises(TrackingError) as info:
            fit_expansion(cf, modes, FIT_EPS, 4, 25)
        assert str(info.value) == expected


def _reference_galerkin(reports, eps_list, modes) -> tuple[str, str]:
    """stdout and stderr of ``galerkin`` from tracking one cell at a time."""
    header = ["eps"] + [f"{kind}_{n}" for n in modes for kind in ("mode", "gap")]
    rows, failures = [], []
    for eps, report in zip(eps_list, reports):
        row = [_csv(eps)]
        for n in modes:
            cell = _cell(report, n)
            if isinstance(cell, str):
                row += ["nan", "nan"]
                failures.append(f"eps={eps:g} mode={n}: {cell}")
            else:
                row += [_csv(cell[0]), _csv(cell[1])]
        rows.append(row)
    err = "numerical contract violation:\n" + "\n".join(failures) + "\n" if failures else ""
    return _render_table(header, rows, "csv"), err


def test_galerkin_prints_the_cell_by_cell_table(monkeypatch, capsys):
    eps_list = [0.05, 0.3, 0.2, 0.1, 0.01]
    monkeypatch.setattr(galerkin, "spectrum_sweep", lambda cf, eps, m: REPORTS)
    argv = ["galerkin", "--config", "example-galerkin-2", "--eps", ",".join(map(str, eps_list))]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv + ["--modes=" + ",".join(map(str, MODES))])
    assert code == 3
    assert (out.getvalue(), capsys.readouterr().err) == _reference_galerkin(REPORTS, eps_list, MODES)
