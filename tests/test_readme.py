"""The library example of README.md runs as printed, and the size of the public
surface it states is that of ``torusdirac.__all__``."""

import re
from pathlib import Path

import pytest

import torusdirac

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["asym"] == pytest.approx(-0.25, abs=1e-12)


def test_stated_surface_size_matches_all():
    stated = re.findall(r"The (\d+) top-level `torusdirac`", README.read_text())
    assert stated == [str(len(torusdirac.__all__))]
