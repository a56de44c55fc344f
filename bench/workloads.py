"""Seeded inputs, timed operations and result checks of the three workloads.

truncation_ladder   spectrum_report at eps=0.1 for m in 25, 50, 100, 200 on
                    the bundled example-galerkin-1 and example-galerkin-2, and
                    for m in 25, 50, 100 on seeded coframe families. Galerkin
                    assembly and eigvalsh do almost all of the work, so
                    assembly and eigensolver changes show here.
coefficient_routes  the closed_form and operator routes of perturbation_report
                    on seeded families of trig degree 1-4 and the four bundled
                    examples. Coefficient algebra only: no Galerkin matrix is
                    built, so a Galerkin change must show no effect here.
cli_sweep           torusdirac.cli.main in process (galerkin, fit, asympt,
                    dump-matrix at m=25) on seeded coframe and perturbation
                    config files and the bundled examples: the path users run,
                    with many small matrices, fits and text formatting.

Every input comes from ``--seed``; no draw is discarded because of its outcome.
An operation whose output breaks a check counts as failed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "torusdirac" / "__init__.py").is_file():
    raise ImportError(f"torusdirac sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import torusdirac as td  # noqa: E402
from torusdirac import cli  # noqa: E402

WORKLOADS = ("truncation_ladder", "coefficient_routes", "cli_sweep")
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

EXAMPLES = ("example-galerkin-1", "example-galerkin-2", "example-explicit-1", "example-explicit-2")
LADDER_EXAMPLES = ("example-galerkin-1", "example-galerkin-2")
# example-galerkin-1 is the rotation family: every eigenvalue n moves to
# n - eps^2 / (2 (1 - eps^2)) exactly.
ROTATION_EXAMPLE = "example-galerkin-1"
LADDER_M = (25, 50, 100, 200)
LADDER_EPS = 0.1
TRACKED_MODES = (1, -1, 2, -2)
DUMP_EPS = "0.1"

# Seeded inputs per workload: (number, config form).
SEEDED = {
    "truncation_ladder": ((3, "coframe"),),
    "coefficient_routes": ((40, "coframe"),),
    "cli_sweep": ((2, "coframe"), (2, "perturbation")),
}
# Fourier coefficients of harmonic j are drawn from U(-AMPLITUDE, AMPLITUDE) / j,
# small enough that the coframe stays invertible for eps <= 0.2.
AMPLITUDE = 0.05

COEFFICIENTS = ("lambda1_plus", "lambda1_minus", "lambda2_plus", "lambda2_minus")
PAIRING_TOL = 1e-8
ROTATION_TOL = 1e-9
REF_TOL = 1e-9
# closed form vs operator route, and closed form vs Galerkin fit (the asympt gates)
OPERATOR_TOL = {"lambda1": 1e-12, "lambda2": 1e-10}
FIT_TOL = {"lambda1": 1e-6, "lambda2": 1e-4}


class CheckFailed(Exception):
    """An operation's output broke a correctness check."""


@dataclass(frozen=True)
class Op:
    """One timed call into the package and the check of its output."""

    key: str  # unique within a pass; bundled-example keys index reference.json
    label: str  # operation class, named as its per-class median
    run: Callable[[], object]
    check: Callable[[object], dict]  # raises CheckFailed; returns pinned observables


class Checks:
    """Route-gate counts and the largest drift from the pinned references."""

    def __init__(self, refs: dict):
        self.refs = refs
        self.gates_checked = 0
        self.gates_passed = 0
        self.max_ref_drift = 0.0

    def gate(self, what: str, a: float, b: float, tol: float) -> None:
        self.gates_checked += 1
        if not abs(a - b) <= tol:
            raise CheckFailed(f"{what}: |{a!r} - {b!r}| > {tol:.0e}")
        self.gates_passed += 1

    def verify(self, op: Op, out) -> str | None:
        """None when ``out`` passes every check, else the reason it failed."""
        if isinstance(out, Exception):
            return f"{type(out).__name__}: {out}"
        try:
            observed = op.check(out)
            ref = self.refs.get(op.key)
            if ref is not None:
                if set(ref) != set(observed):
                    raise CheckFailed(f"observables {sorted(observed)} != pinned {sorted(ref)}")
                for name, value in observed.items():
                    drift = abs(value - ref[name])
                    self.max_ref_drift = max(self.max_ref_drift, drift)
                    if not drift <= REF_TOL:
                        raise CheckFailed(f"{name} = {value!r} drifted {drift:.1e} from pinned {ref[name]!r}")
        except CheckFailed as exc:
            return str(exc)
        return None


def load_refs() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------

def _series(rng: np.random.Generator, degree: int) -> str:
    """A real trigonometric polynomial of the given degree as (k, re, im) triples."""
    triples = [(0, round(float(rng.uniform(-AMPLITUDE, AMPLITUDE)), 4), 0.0)]
    for j in range(1, degree + 1):
        a, b = (round(float(v) / j, 4) for v in rng.uniform(-AMPLITUDE, AMPLITUDE, 2))
        # a cos(jx) + b sin(jx)
        triples += [(j, a / 2, -b / 2), (-j, a / 2, b / 2)]
    return " ".join(f"({k}, {re!r}, {im!r})" for k, re, im in triples)


def generate_config(rng: np.random.Generator, form: str, degree: int) -> str:
    """Config text of one random real family: a coframe (E1, E2) or
    symmetric perturbation data (h, k), every entry of the given trig degree."""
    lines = [
        f"# seeded {form} family of trig degree {degree}",
        "m = 25",
        "eps = 0.2, 0.1, 0.01",
        "modes = -2, -1, 0, 1, 2",
    ]
    for name in (("E1", "E2") if form == "coframe" else ("h", "k")):
        for i in range(1, 4):
            for j in range(1, 4):
                if form == "coframe":
                    lines.append(f"coframe.{name}.{i}.{j} = {_series(rng, degree)}")
                elif i <= j:
                    series = _series(rng, degree)
                    lines.append(f"perturbation.{name}.{i}.{j} = {series}")
                    if i != j:
                        lines.append(f"perturbation.{name}.{j}.{i} = {series}")
    return "\n".join(lines) + "\n"


def generate_inputs(workload: str, seed: int) -> dict[str, str]:
    """Seeded config texts of one workload, keyed by input name.

    Trig degrees cycle through 1..4 so that every seed gives the same mix of
    input sizes; the coefficients are random.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    configs = {}
    for count, form in SEEDED[workload]:
        for i in range(1, count + 1):
            degree = 1 + len(configs) % 4
            configs[f"seeded-{form}-{i}"] = generate_config(rng, form, degree)
    return configs


def build(workload: str, seed: int, workdir: Path, refs: dict) -> tuple[list[Op], Checks]:
    """The pass of operations of one workload and the checker they share."""
    checks = Checks(refs.get(workload, {}))
    configs = generate_inputs(workload, seed)
    make_ops = {"truncation_ladder": _ladder_ops, "coefficient_routes": _route_ops, "cli_sweep": _cli_ops}
    return make_ops[workload](configs, checks, workdir), checks


# ----------------------------------------------------------------------
# truncation_ladder
# ----------------------------------------------------------------------

def _ladder_ops(configs: dict, checks: Checks, workdir: Path) -> list[Op]:
    families = {name: td.load_example(name).family() for name in LADDER_EXAMPLES}
    families.update({key: td.parse_config(text).family() for key, text in configs.items()})
    # Interior eigenvalues converge fast in m, so a seeded family's tracked
    # values at every m must match its m=25 solve made here.
    base = {
        key: td.spectrum_report(families[key], LADDER_EPS, LADDER_M[0], modes=TRACKED_MODES).tracked
        for key in configs
    }
    # The m=200 rung, whose cost does not depend on the family, runs on the
    # bundled examples only. With it on every family the pass was four 6-s
    # solves, nothing repeated within 30 s, and the median op fell between
    # the m=50 and m=100 solves: it spread by 11-20% between runs.
    return [
        Op(
            f"{key}/m{m}",
            f"solve_ms_m{m}",
            partial(_solve, family, m),
            partial(_check_ladder, key == ROTATION_EXAMPLE, base.get(key)),
        )
        for key, family in families.items()
        for m in (LADDER_M if key in LADDER_EXAMPLES else LADDER_M[:-1])
    ]


def _solve(family, m: int):
    # looked up at call time, so that a traced run sees the wrapped function
    return td.spectrum_report(family, LADDER_EPS, m, modes=TRACKED_MODES)


def _rotation_law(n: int, eps: float) -> float:
    return n - eps**2 / (2.0 * (1.0 - eps**2))


def _check_pairs(eigenvalues: np.ndarray) -> None:
    gap = float(np.max(np.abs(eigenvalues[1::2] - eigenvalues[0::2])))
    if not gap <= PAIRING_TOL:
        raise CheckFailed(f"Kramers pair gap {gap:.2e} > {PAIRING_TOL:.0e}")


def _check_ladder(rotation: bool, base: dict | None, report) -> dict:
    _check_pairs(np.asarray(report.eigenvalues))
    observed = {f"mode_{n}": float(report.tracked[n]) for n in TRACKED_MODES}
    for n in TRACKED_MODES:
        value = observed[f"mode_{n}"]
        if rotation and not abs(value - _rotation_law(n, LADDER_EPS)) <= ROTATION_TOL:
            raise CheckFailed(f"mode {n} = {value!r} breaks the rotation law")
        if base is not None and not abs(value - base[n]) <= REF_TOL:
            raise CheckFailed(f"mode {n} = {value!r} moved from {base[n]!r} at m={LADDER_M[0]}")
    return observed


# ----------------------------------------------------------------------
# coefficient_routes
# ----------------------------------------------------------------------

def _route_ops(configs: dict, checks: Checks, workdir: Path) -> list[Op]:
    families = {name: td.load_example(name).family() for name in EXAMPLES}
    families.update({key: td.parse_config(text).family() for key, text in configs.items()})
    return [
        Op(key, "routes_ms", partial(_both_routes, family), partial(_check_routes, checks))
        for key, family in families.items()
    ]


def _both_routes(family):
    return td.perturbation_report(family, "closed_form"), td.perturbation_report(family, "operator")


def _check_routes(checks: Checks, reports) -> dict:
    closed, operator = reports
    observed = {}
    for name in COEFFICIENTS:
        c, o = getattr(closed, name), getattr(operator, name)
        checks.gate(f"{name} closed vs operator", c, o, OPERATOR_TOL[name[:7]])
        observed[f"closed.{name}"] = c
        observed[f"operator.{name}"] = o
    return observed


# ----------------------------------------------------------------------
# cli_sweep
# ----------------------------------------------------------------------

def _cli_ops(configs: dict, checks: Checks, workdir: Path) -> list[Op]:
    paths = {name: name for name in EXAMPLES}
    for key, text in configs.items():
        path = workdir / f"{key}.cfg"
        path.write_text(text)
        paths[key] = str(path)
    ops = []
    for key, path in paths.items():
        cfg = td.load_config_file(path)
        closed = td.perturbation_report(cfg.family(), "closed_form")
        rotation = key == ROTATION_EXAMPLE
        ops += [
            Op(f"{key}/galerkin", "cmd_ms_galerkin", partial(_cli, "galerkin", path),
               partial(_check_galerkin, cfg, rotation)),
            Op(f"{key}/fit", "cmd_ms_fit", partial(_cli, "fit", path),
               partial(_check_fit, checks, cfg, closed)),
            Op(f"{key}/asympt", "cmd_ms_asympt", partial(_cli, "asympt", path),
               partial(_check_asympt, checks)),
            Op(f"{key}/dump_matrix", "cmd_ms_dump_matrix", partial(_cli, "dump-matrix", path, "--eps", DUMP_EPS),
               partial(_check_dump, cfg)),
        ]
    return ops


def _cli(command: str, config: str, *extra: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, "--config", config, *extra])
    return code, out.getvalue(), err.getvalue()


def _table(result, header: list[str], rows: int) -> list[list[str]]:
    """The CSV table heading the output of a successful CLI call."""
    code, out, err = result
    if code != 0:
        raise CheckFailed(f"exit code {code}: {err.strip()[:300]}")
    lines = out.splitlines()
    parsed = list(csv.reader(lines[: rows + 1]))
    if len(parsed) != rows + 1 or parsed[0] != header or any(len(r) != len(header) for r in parsed[1:]):
        raise CheckFailed(f"unexpected table layout: {lines[:2]}")
    return parsed[1:]


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise CheckFailed(f"not a number: {text!r}") from None


def _check_galerkin(cfg, rotation: bool, result) -> dict:
    header = ["eps"] + [f"{kind}_{n}" for n in cfg.modes for kind in ("mode", "gap")]
    observed = {}
    for row in _table(result, header, len(cfg.eps_list)):
        eps = _number(row[0])
        for i, n in enumerate(cfg.modes):
            mean, gap = _number(row[1 + 2 * i]), _number(row[2 + 2 * i])
            if not gap <= PAIRING_TOL:
                raise CheckFailed(f"eps={eps} mode {n}: pair gap {gap:.2e} > {PAIRING_TOL:.0e}")
            if rotation and not abs(mean - _rotation_law(n, eps)) <= ROTATION_TOL:
                raise CheckFailed(f"eps={eps} mode {n} = {mean!r} breaks the rotation law")
            observed[f"eps{eps:g}.mode_{n}"] = mean
    return observed


def _check_fit(checks: Checks, cfg, closed, result) -> dict:
    header = ["mode", "c1", "c2", "c3", "c4", "residual"]
    rows = {int(_number(r[0])): [_number(v) for v in r[1:]] for r in _table(result, header, len(cfg.modes))}
    for n, suffix in ((1, "plus"), (-1, "minus")):
        if n in rows:
            for p in (1, 2):
                name = f"lambda{p}_{suffix}"
                checks.gate(f"{name} closed vs fit", getattr(closed, name), rows[n][p - 1], FIT_TOL[name[:7]])
    return {}


def _check_asympt(checks: Checks, result) -> dict:
    header = ["coefficient", "closed_form", "operator", "galerkin_fit", "max_deviation"]
    rows = _table(result, header, len(COEFFICIENTS))
    if [r[0] for r in rows] != list(COEFFICIENTS):
        raise CheckFailed(f"unexpected coefficient rows {[r[0] for r in rows]}")
    observed = {}
    for name, *values in rows:
        c, o, f, _ = (_number(v) for v in values)
        checks.gate(f"{name} closed vs operator", c, o, OPERATOR_TOL[name[:7]])
        checks.gate(f"{name} closed vs fit", c, f, FIT_TOL[name[:7]])
        observed[f"closed.{name}"] = c
        observed[f"operator.{name}"] = o
    return observed


def _check_dump(cfg, result) -> dict:
    code, out, err = result
    if code != 0:
        raise CheckFailed(f"exit code {code}: {err.strip()[:300]}")
    order = 2 * (2 * cfg.m + 1)
    try:
        matrix = np.array([[complex(tok[:-1] + "j") for tok in line.split()] for line in out.splitlines()])
    except ValueError as exc:
        raise CheckFailed(f"unparsable matrix entry: {exc}") from None
    if matrix.shape != (order, order):
        raise CheckFailed(f"matrix shape {matrix.shape} != ({order}, {order})")
    defect = float(np.max(np.abs(matrix - matrix.conj().T)))
    if not defect <= 1e-12:
        raise CheckFailed(f"dumped matrix not Hermitian: defect {defect:.2e}")
    ev = np.linalg.eigvalsh(matrix)
    _check_pairs(ev)
    return {f"mode_{n}": float(np.mean(ev[np.argsort(np.abs(ev - n))[:2]])) for n in TRACKED_MODES}
