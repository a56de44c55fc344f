"""Run configuration: flat key-value files describing a perturbation family.

Format, one ``key = value`` pair per line, ``#`` starts a comment:

    m     = 25
    eps   = 0.2, 0.1, 0.01
    modes = -2, -1, 0, 1, 2
    out   = csv | md            (optional, default csv)

The family is given either as a coframe or as direct perturbation data,
never both. Matrix entries are trig-poly serializations, whitespace
separated ``(k, re, im)`` triples, with 1-based row/column indices:

    coframe.E1.2.2 = (1, 0.5, 0) (-1, 0.5, 0)      # cos(x)

Coframe mode uses ``coframe.E1.i.j`` and optional ``coframe.E2.i.j``;
direct mode uses symmetric ``perturbation.h.i.j`` / ``perturbation.k.i.j``.
Unlisted entries are zero.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .geometry import CoframeFamily, default_grid
from .trigpoly import _as_field


class ConfigError(Exception):
    """Malformed or inconsistent run configuration."""


EXAMPLE_NAMES = (
    "example-galerkin-1",
    "example-galerkin-2",
    "example-explicit-1",
    "example-explicit-2",
)

_TRIPLE_RE = re.compile(r"\(\s*([^,()]+)\s*,\s*([^,()]+)\s*,\s*([^,()]+)\s*\)")
_ENTRY_RE = re.compile(r"(coframe\.E1|coframe\.E2|perturbation\.h|perturbation\.k)\.[123]\.[123]")


@dataclass
class RunConfig:
    """Parsed configuration for the CLI commands; h and k are a direct-mode file's."""

    _family: CoframeFamily = field(repr=False)
    h: tuple | None = None
    k: tuple | None = None
    m: int = 25
    eps_list: list = field(default_factory=lambda: [0.2, 0.1, 0.01])
    modes: list = field(default_factory=lambda: [-2, -1, 0, 1, 2])
    out_format: str = "csv"

    @property
    def mode(self) -> str:
        return "coframe" if self.h is None else "direct"

    def family(self) -> CoframeFamily:
        """The family of the entries, as ``parse_config`` validated it."""
        return self._family


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where ``os.sysconf`` cannot tell."""
    try:
        pages, page_size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None
    return pages * page_size if pages > 0 and page_size > 0 else None


def _require_memory(size: int, what: str, array: str) -> None:
    """Raise ConfigError when ``what`` needs an ``array`` of ``size`` bytes,
    more than a quarter of physical memory."""
    memory = _physical_memory()
    if memory is not None and 4 * size > memory:
        raise ConfigError(
            f"{what} needs a {size / 2**20:.6g} MiB {array}, more than a "
            f"quarter of physical memory ({memory / 2**20:.6g} MiB)"
        )


def _parse_poly(text: str, key: str) -> np.ndarray:
    """Coefficients c[k + D] of the triples in ``text``; repeated k add up.
    Before they are allocated, the largest array the pipeline forms from D,
    the arc-length sampler's 30 half spectra zero-padded to n//2 + 1 on
    n = ``default_grid`` of D (2D for h, whose square enters E2), must pass
    ``_require_memory``."""
    stripped = _TRIPLE_RE.sub("", text).strip()
    if stripped:
        raise ConfigError(f"{key}: unparsable fragment {stripped!r}")
    triples = []
    for mk, re_, im_ in _TRIPLE_RE.findall(text):
        try:
            triple = (int(mk), float(re_), float(im_))
        except ValueError as exc:
            raise ConfigError(f"{key}: bad triple ({mk}, {re_}, {im_})") from exc
        if not (math.isfinite(triple[1]) and math.isfinite(triple[2])):
            raise ConfigError(f"{key}: coefficients must be finite, got ({mk}, {re_}, {im_})")
        triples.append(triple)
    d = max((abs(k) for k, _, _ in triples), default=0)
    n = default_grid(2 * d if key.startswith("perturbation.h") else d)
    _require_memory(16 * 30 * (n // 2 + 1), f"{key}: harmonic {d}", "arc-length sample spectrum")
    c = np.zeros(2 * d + 1, dtype=complex)
    for k, re_, im_ in triples:
        c[k + d] += re_ + 1j * im_
    return c


def parse_numbers(text: str, key: str, cast) -> list:
    """Non-empty comma or whitespace separated list, each token ``cast``."""
    try:
        values = [cast(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"{key}: expected a list of numbers, got {text!r}") from exc
    if not values:
        raise ConfigError(f"{key}: expected at least one number, got {text!r}")
    return values


def parse_m(text, key: str) -> int:
    """A Galerkin truncation m, an integer >= 1."""
    try:
        m = int(text)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected an integer, got {text!r}") from exc
    if m < 1:
        raise ConfigError(f"{key} must be >= 1")
    return m


def parse_modes(text: str, key: str) -> list[int]:
    """Comma or whitespace separated integer modes, each given once."""
    modes = parse_numbers(text, key, int)
    repeated = next((n for i, n in enumerate(modes) if n in modes[:i]), None)
    if repeated is not None:
        raise ConfigError(f"{key}: mode {repeated} given twice")
    return modes


def parse_eps_list(text: str, key: str) -> list[float]:
    """Comma or whitespace separated eps values, each required to be finite."""
    values = parse_numbers(text, key, float)
    for value in values:
        if not math.isfinite(value):
            raise ConfigError(f"{key}: eps values must be finite, got {value!r}")
    return values


def parse_out(text: str, key: str) -> str:
    """An output format, csv or md."""
    if text not in ("csv", "md"):
        raise ConfigError(f"{key} must be 'csv' or 'md', got {text!r}")
    return text


# scalar key -> (RunConfig field, parser), in the order errors are reported; --key shares the parser
_SCALARS = {
    "m": ("m", parse_m),
    "eps": ("eps_list", parse_eps_list),
    "modes": ("modes", parse_modes),
    "out": ("out_format", parse_out),
}


def parse_scalars(values: dict, prefix: str = "") -> dict:
    """The RunConfig fields of the scalar keys that ``values`` maps to a text (not None),
    each parsed by its key's parser in ``_SCALARS`` order; ``prefix`` + key names it in messages."""
    return {
        name: parse(values[key], prefix + key)
        for key, (name, parse) in _SCALARS.items()
        if values.get(key) is not None
    }


def parse_config(text: str) -> RunConfig:
    values: dict = {}  # each key's text, or a matrix entry's coefficients

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if _ENTRY_RE.fullmatch(key):
            value = _parse_poly(value, key)
        elif key not in _SCALARS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        values[key] = value

    has_coframe = any(key.startswith("coframe.") for key in values)
    has_direct = any(key.startswith("perturbation.") for key in values)
    if has_coframe and has_direct:
        raise ConfigError("give either coframe.* or perturbation.* entries, not both")
    if not has_coframe and not has_direct:
        raise ConfigError("no family data: expected coframe.E1.* or perturbation.h.* entries")
    settings = parse_scalars(values)

    names = ("coframe.E1", "coframe.E2") if has_coframe else ("perturbation.h", "perturbation.k")
    first, second = (_as_field([[values.get(f"{name}.{i}.{j}", 0.0) for j in "123"] for i in "123"])
                     for name in names)
    try:  # CoframeFamily validates realness, and symmetry of h and k
        if has_coframe:
            return RunConfig(CoframeFamily(first, second), **settings)
        return RunConfig(CoframeFamily.from_perturbation(first, second), first, second, **settings)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config_file(path: str) -> RunConfig:
    if path in EXAMPLE_NAMES:
        return load_example(path)
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)


def load_example(name: str) -> RunConfig:
    if name not in EXAMPLE_NAMES:
        raise ConfigError(f"unknown example {name!r}; available: {', '.join(EXAMPLE_NAMES)}")
    text = resources.files("torusdirac").joinpath(f"configs/{name}.cfg").read_text()
    return parse_config(text)
