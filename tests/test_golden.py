"""Printed output of the CLI on the bundled examples, compared byte for byte.

The files under ``tests/golden/`` hold the stdout of ``galerkin``,
``galerkin --out md``, ``fit`` and ``asympt`` for each bundled example, and
``dump-matrix.sha256`` the sha256 of ``dump-matrix --eps 0.1``. A change that
moves a printed number fails here. A deliberate output change regenerates the
files with

    PYTHONPATH=src python tests/test_golden.py

which prints each line it changes as old -> new, and under it each changed
number, a float.hex value or a decimal cell of the CSV and md tables, with
its drift relative to max(1, |old|), then the largest drift of each file
that changed; with no change it prints nothing. CHANGES.md lists the old
and new values.

The bundled examples have trig degree <= 2. Two seeded families of higher
degree are pinned the same way, so that the degree-12..24 determinants and
potential numerators reach a printed number: ``seeded-coframe-4.cfg`` (a
coframe of trig degree 4) and ``seeded-perturbation-3.cfg`` (perturbation data
of trig degree 3). They were drawn once with ``bench/workloads.generate_config``
from ``numpy.random.default_rng(2018)``, coframe first, and are fixtures now;
their dump digests live in ``seeded-dump-matrix.sha256``.

The four ``cli-sweep-*.cfg`` files are the seeded configs of the benchmark's
``cli_sweep`` workload at seed 1 (``bench/workloads.generate_inputs``: two
coframe and two perturbation families of trig degree 1..4). Their 16 stdout
files and dump digests (``cli-sweep-dump-matrix.sha256``) pin the whole user
path bit for bit, so a change that claims to keep every bit is checked here.

``array-digests.txt`` pins the numbers below the printed ones for all ten
families: the float.hex values of the closed-form and operator routes,
``arc_length(cf, 1e-4)``, and the sha256 of the operator a^/p^ bytes (the
half spectra it holds) and of the Galerkin entries, at each eps in
``DIGEST_EPS`` and m in ``DIGEST_TRUNCATIONS`` on ``default_grid(m)``. It
also pins, at n = +1 and -1, the sha256 of the two spinors that the operator
route of ``perturbation_report`` builds on its way, one row each of the
stacks it builds for both modes at once: W1 v_n and the pseudoinverse of
(W1 - l1) v_n.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest

from torusdirac import arc_length, dirac_operator, galerkin_matrix, load_config_file
from torusdirac import perturbation, perturbation_report
from torusdirac.cli import main
from torusdirac.config import EXAMPLE_NAMES
from torusdirac.geometry import default_grid

GOLDEN = Path(__file__).parent / "golden"

SEEDED_NAMES = ("seeded-coframe-4", "seeded-perturbation-3")
CLI_SWEEP_NAMES = (
    "cli-sweep-coframe-1",
    "cli-sweep-coframe-2",
    "cli-sweep-perturbation-1",
    "cli-sweep-perturbation-2",
)
# --config argument per case: a bundled example name or a fixture path
CONFIGS = {name: name for name in EXAMPLE_NAMES}
CONFIGS.update({name: str(GOLDEN / f"{name}.cfg") for name in SEEDED_NAMES + CLI_SWEEP_NAMES})
DIGEST_FILES = {
    "dump-matrix.sha256": EXAMPLE_NAMES,
    "seeded-dump-matrix.sha256": SEEDED_NAMES,
    "cli-sweep-dump-matrix.sha256": CLI_SWEEP_NAMES,
}

COMMANDS = {
    "galerkin": ["galerkin"],
    "galerkin-md": ["galerkin", "--out", "md"],
    "fit": ["fit"],
    "asympt": ["asympt"],
}
DUMP = ["dump-matrix", "--eps", "0.1"]

ARRAY_DIGESTS = "array-digests.txt"
DIGEST_EPS = (0.1, -0.0, 0.2)
DIGEST_TRUNCATIONS = (3, 25, 64)
COEFFICIENTS = ("lambda1_plus", "lambda1_minus", "lambda2_plus", "lambda2_minus")


def _stdout(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, f"{' '.join(argv)} exited {code}"
    return buf.getvalue()


def _dump_digests(names) -> str:
    return "".join(
        f"{hashlib.sha256(_stdout(DUMP + ['--config', CONFIGS[name]]).encode()).hexdigest()}  {name}\n"
        for name in names
    )


def _sha256(*arrays: np.ndarray) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(f"{a.dtype}{a.shape}".encode())
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


def _route_spinors(cf) -> list[str]:
    """One line per n = +1, -1: the sha256 of W1 v_n and of the pseudoinverse
    output, the rows of the stacks that ``perturbation_report(cf, "operator")``
    builds for both modes in lockstep, recorded from inside it."""
    stacks = {}
    blocks, pseudoinverse = perturbation._first_order_blocks, perturbation._pseudoinverse

    def record_blocks(*args):
        result = blocks(*args)
        stacks["w1v"] = result[1]
        return result

    def record_pseudoinverse(*args, **kwargs):
        result = pseudoinverse(*args, **kwargs)
        stacks["corrected"] = result[0]
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(perturbation, "_first_order_blocks", record_blocks)
        patch.setattr(perturbation, "_pseudoinverse", record_pseudoinverse)
        perturbation_report(cf, "operator")
    return [
        f"n={n:+d} w1v {_sha256(stacks['w1v'][i])} pseudoinverse {_sha256(stacks['corrected'][i])}"
        for i, n in enumerate((1, -1))
    ]


def _array_digests() -> str:
    lines = []
    for name, config in CONFIGS.items():
        cf = load_config_file(config).family()
        for route in ("closed_form", "operator"):
            report = perturbation_report(cf, route)
            values = " ".join(float.hex(getattr(report, c)) for c in COEFFICIENTS)
            lines.append(f"{name} {route} {values}")
        lines += [f"{name} {line}" for line in _route_spinors(cf)]
        lines.append(f"{name} arc_length {float.hex(arc_length(cf, 1e-4))}")
        for eps in DIGEST_EPS:
            for m in DIGEST_TRUNCATIONS:
                op = dirac_operator(cf, eps, default_grid(m))
                lines.append(f"{name} eps={eps!r} m={m} operator {_sha256(op.a_hat, op.p_hat)} "
                             f"matrix {_sha256(galerkin_matrix(op, m))}")
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", CONFIGS)
def test_stdout_matches_golden(name, command):
    expected = (GOLDEN / f"{name}.{command}.txt").read_text(encoding="utf-8")
    assert _stdout(COMMANDS[command] + ["--config", CONFIGS[name]]) == expected


def _check_digests(digest_file: str) -> None:
    expected = (GOLDEN / digest_file).read_text(encoding="utf-8")
    assert _dump_digests(DIGEST_FILES[digest_file]) == expected


def test_dump_matrix_digests_match_golden():
    _check_digests("dump-matrix.sha256")


def test_seeded_dump_matrix_digests_match_golden():
    _check_digests("seeded-dump-matrix.sha256")


def test_cli_sweep_dump_matrix_digests_match_golden():
    _check_digests("cli-sweep-dump-matrix.sha256")


def test_array_digests_match_golden():
    expected = (GOLDEN / ARRAY_DIGESTS).read_text(encoding="utf-8")
    assert _array_digests() == expected


def _number(token: str):
    """The float of a float.hex token or of a decimal one (a CSV or md table
    cell), or None for any other token."""
    try:
        return float.fromhex(token) if token.lstrip("-").startswith("0x") else float(token)
    except ValueError:
        return None


def _regenerate(path: Path, text: str) -> None:
    """Write ``text`` to ``path``; print each changed line as old -> new, each
    changed number in it with its relative drift, then the file's largest."""
    old = path.read_text(encoding="utf-8").splitlines() if path.exists() else []
    largest = None
    for before, after in zip_longest(old, text.splitlines(), fillvalue=""):
        if before == after:
            continue
        print(f"{path.name}: {before} -> {after}")
        for a, b in zip(re.split(r"[\s,|]+", before), re.split(r"[\s,|]+", after)):
            x, y = _number(a), _number(b)
            if a != b and x is not None and y is not None:
                drift = abs(y - x) / max(1.0, abs(x))
                largest = max(drift, largest or 0.0)
                print(f"    {a} -> {b}: drift {drift:.1e}")
    if largest is not None:
        print(f"{path.name}: largest drift {largest:.1e}")
    path.write_text(text, encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, config in CONFIGS.items():
        for command, argv in COMMANDS.items():
            _regenerate(GOLDEN / f"{name}.{command}.txt", _stdout(argv + ["--config", config]))
    for digest_file, names in DIGEST_FILES.items():
        _regenerate(GOLDEN / digest_file, _dump_digests(names))
    _regenerate(GOLDEN / ARRAY_DIGESTS, _array_digests())
