"""Printed output of the CLI on the bundled examples, compared byte for byte.

The files under ``tests/golden/`` hold the stdout of ``galerkin``,
``galerkin --out md``, ``fit`` and ``asympt`` for each bundled example, and
``dump-matrix.sha256`` the sha256 of ``dump-matrix --eps 0.1``. A change that
moves a printed number fails here. A deliberate output change regenerates the
files with

    PYTHONPATH=src python tests/test_golden.py

and lists the old and new values in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from torusdirac.cli import main
from torusdirac.config import EXAMPLE_NAMES

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "galerkin": ["galerkin"],
    "galerkin-md": ["galerkin", "--out", "md"],
    "fit": ["fit"],
    "asympt": ["asympt"],
}
DUMP = ["dump-matrix", "--eps", "0.1"]


def _stdout(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, f"{' '.join(argv)} exited {code}"
    return buf.getvalue()


def _dump_digests() -> str:
    return "".join(
        f"{hashlib.sha256(_stdout(DUMP + ['--config', name]).encode()).hexdigest()}  {name}\n"
        for name in EXAMPLE_NAMES
    )


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_stdout_matches_golden(name, command):
    expected = (GOLDEN / f"{name}.{command}.txt").read_text(encoding="utf-8")
    assert _stdout(COMMANDS[command] + ["--config", name]) == expected


def test_dump_matrix_digests_match_golden():
    assert _dump_digests() == (GOLDEN / "dump-matrix.sha256").read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in EXAMPLE_NAMES:
        for command, argv in COMMANDS.items():
            text = _stdout(argv + ["--config", name])
            (GOLDEN / f"{name}.{command}.txt").write_text(text, encoding="utf-8")
    (GOLDEN / "dump-matrix.sha256").write_text(_dump_digests(), encoding="utf-8")
