"""Batch command line front end.

Subcommands:
    galerkin     eigenvalue sweep table over eps for the tracked modes
    asympt       expansion coefficients from all three routes, side by side
    fit          polynomial fit of tracked eigenvalues over an eps sweep
    dump-matrix  plain-text dump of the Galerkin matrix at one eps

Exit codes: 0 success, 2 configuration error, 3 numerical contract violation.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import galerkin as gk
from . import perturbation as pt
from .config import EXAMPLE_NAMES, ConfigError, RunConfig, _require_memory, load_config_file, parse_eps_list
from .config import parse_modes
from .geometry import NumericalContractError, _arc_lengths

EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# closed-form vs operator vs fit agreement gates for `asympt`
TOL_L1_OPERATOR = 1e-12
TOL_L2_OPERATOR = 1e-10
TOL_L1_FIT = 1e-6
TOL_L2_FIT = 1e-4

# rows of text that `dump-matrix` joins at a time
_DUMP_STRIP_ROWS = 16

# every numerical failure of the package derives from NumericalContractError
_NUMERIC_ERRORS = (
    NumericalContractError,
    np.linalg.LinAlgError,  # eigensolver convergence failure
)


def _csv(value: float) -> str:
    return f"{value:.17g}"


def _md(value: float) -> str:
    return f"{value:.6g}"


def _render_table(header: list[str], rows: list[list[str]], fmt: str) -> str:
    if fmt == "csv":
        lines = [",".join(header)] + [",".join(r) for r in rows]
        return "\n".join(lines) + "\n"
    widths = [max([len(h)] + [len(r[i]) for r in rows]) for i, h in enumerate(header)]
    def fmt_row(cells):
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"
    sep = "|" + "|".join("-" * (w + 2) for w in widths) + "|"
    return "\n".join([fmt_row(header), sep] + [fmt_row(r) for r in rows]) + "\n"


def cmd_galerkin(cfg: RunConfig, out_format: str) -> tuple[str, list[str]]:
    """One row per eps; tracked pair mean and gap per mode.

    Tracking failures are surfaced per cell (rendered as nan) and returned
    as diagnostics; any failure makes the command exit nonzero.
    """
    family = cfg.family()
    num = _csv if out_format == "csv" else _md
    header = ["eps"] + [f"{column}_{n}" for n in cfg.modes for column in ("mode", "gap")]
    reports = gk.spectrum_sweep(family, cfg.eps_list, cfg.m)
    means, gaps, errors = gk.track_pairs(reports, cfg.modes)
    rows = [
        [num(eps)] + [
            "nan" if (e, i) in errors else num(value)
            for i in range(len(cfg.modes)) for value in (means[e, i], gaps[e, i])
        ]
        for e, eps in enumerate(cfg.eps_list)
    ]
    # in row order, as ``track_pairs`` keys them
    failures = [f"eps={cfg.eps_list[e]:g} mode={cfg.modes[i]}: {err}" for (e, i), err in errors.items()]
    return _render_table(header, rows, out_format), failures


def cmd_asympt(cfg: RunConfig, out_format: str) -> str:
    """Expansion coefficients of the eigenvalues +-1 from all three routes.

    Raises RouteDisagreementError (mapped to exit code 3) when routes differ
    beyond tolerance.
    """
    family = cfg.family()
    closed = pt.perturbation_report(family, "closed_form")
    operator = pt.perturbation_report(family, "operator")
    fitted = pt.perturbation_report(family, "galerkin_fit", m=cfg.m)

    names = ("lambda1_plus", "lambda1_minus", "lambda2_plus", "lambda2_minus")
    tol_op = (TOL_L1_OPERATOR,) * 2 + (TOL_L2_OPERATOR,) * 2
    tol_fit = (TOL_L1_FIT,) * 2 + (TOL_L2_FIT,) * 2

    num = _csv if out_format == "csv" else _md
    rows = []
    failures = []
    for name, t_op, t_fit in zip(names, tol_op, tol_fit):
        c, o, f = (getattr(r, name) for r in (closed, operator, fitted))
        dev = max(abs(c - o), abs(c - f), abs(o - f))
        rows.append([name, num(c), num(o), num(f), num(dev)])
        # "not ... <= ..." so that a NaN coefficient fails the gate
        if not abs(c - o) <= t_op:
            failures.append(f"{name}: |closed - operator| = {abs(c - o):.3e} > {t_op:.0e}")
        if not abs(c - f) <= t_fit:
            failures.append(f"{name}: |closed - fit| = {abs(c - f):.3e} > {t_fit:.0e}")

    table = _render_table(
        ["coefficient", "closed_form", "operator", "galerkin_fit", "max_deviation"],
        rows,
        out_format,
    )
    eps_probe = 1e-4
    plus, minus = _arc_lengths(family, np.array([eps_probe, -eps_probe]))
    measured_slope = (plus - minus) / (2 * eps_probe)
    extras = [
        f"asymmetry2 = {num(closed.asymmetry2)}",
        f"arc_length_slope_predicted = {num(np.pi * (-2.0 * closed.lambda1_plus))}",
        f"arc_length_slope_measured = {num(measured_slope)}",
    ]
    text = table + "\n".join(extras) + "\n"
    if failures:
        raise RouteDisagreementError("\n".join(failures) + "\n\n" + text)
    return text


class RouteDisagreementError(Exception):
    """Cross-route deviation above the contract tolerance."""


def cmd_fit(cfg: RunConfig, out_format: str, order: int = 4, eps_grid=None) -> str:
    """Fitted expansion coefficients per tracked mode, with asymmetry flags."""
    family = cfg.family()
    grid = pt.default_fit_grid(order) if eps_grid is None else np.asarray(eps_grid, float)
    fits = pt.fit_expansion(family, cfg.modes, grid, order, cfg.m)

    num = _csv if out_format == "csv" else _md
    header = ["mode"] + [f"c{p}" for p in range(1, order + 1)] + ["residual"]
    rows = [[str(n), *map(num, fits[n].coefficients), num(fits[n].residual_norm)] for n in cfg.modes]
    table = _render_table(header, rows, out_format)

    flags = []
    if order >= 2:
        for n in sorted({abs(n) for n in cfg.modes if n != 0 and -n in fits and n in fits}):
            c2_sum = fits[n].coefficients[1] + fits[-n].coefficients[1]
            unc = np.hypot(fits[n].uncertainties[1], fits[-n].uncertainties[1])
            flagged = abs(c2_sum) > 3 * max(unc, 1e-12)
            flags.append(
                f"asymmetry_c2(+{n},-{n}) = {num(c2_sum)} "
                f"[{'ASYMMETRIC' if flagged else 'symmetric'}]"
            )
    return table + ("\n".join(flags) + "\n" if flags else "")


def cmd_dump_matrix(cfg: RunConfig) -> str:
    """Row-major text dump of the Galerkin matrix, entries as re+imi."""
    if len(cfg.eps_list) != 1:
        raise ConfigError("dump-matrix needs exactly one eps value")
    matrix = gk.assemble(cfg.family(), cfg.eps_list[0], cfg.m)
    return _dump_rows(matrix.entries)


def _dump_rows(entries: np.ndarray) -> str:
    """One line per row of a complex matrix, entries as ``re+imi`` with 17
    significant digits: the same text as ``f"{z.real:.17g}{z.imag:+.17g}i"``.

    Each distinct |value| is formatted once; its sign comes from the sign
    bit, except that a NaN prints unsigned, as ``%`` prints it. The text is
    joined ``_DUMP_STRIP_ROWS`` rows at a time.
    """
    values = entries.view(float)
    magnitudes, index = np.unique(np.abs(values), return_inverse=True)
    digits = np.array(["%.17g" % value for value in magnitudes.tolist()], dtype=object)
    index = index.reshape(values.shape)
    # each float is three pieces: sign, digits and suffix; a real part's
    # sign is "-" or nothing, an imaginary part's "-" or "+"
    signs = np.array(["", "-", "+", "-"], dtype=object)
    imaginary = 2 * (np.arange(values.shape[1]) % 2)
    pieces = np.empty((min(_DUMP_STRIP_ROWS, values.shape[0]), values.shape[1], 3), dtype=object)
    pieces[:, :, 2] = np.where(imaginary, "i ", "")
    pieces[:, -1, 2] = "i\n"
    strips = []
    for i0 in range(0, values.shape[0], _DUMP_STRIP_ROWS):
        strip = values[i0 : i0 + _DUMP_STRIP_ROWS]
        part = pieces[: strip.shape[0]]
        part[:, :, 0] = signs[imaginary + (np.signbit(strip) & ~np.isnan(strip))]
        part[:, :, 1] = digits[index[i0 : i0 + _DUMP_STRIP_ROWS]]
        strips.append("".join(part.ravel().tolist()))
    del digits, index, pieces  # before the final join doubles the text
    return "".join(strips)


def _check_matrix_memory(m: int) -> None:
    """Raise ConfigError when the dense complex Galerkin matrix of truncation
    m, 16 * (2(2m+1))^2 bytes, would take more than a quarter of physical
    memory; checked before any grid or matrix is allocated. A solve holds
    about two such matrices: the matrix and ``eigvalsh``'s working copy."""
    _require_memory(16 * (2 * (2 * m + 1)) ** 2, f"m={m}", "Galerkin matrix")


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="torusdirac",
        description="Spectra of the axisymmetric massless Dirac operator "
        "on the unit 3-torus under metric perturbations.",
    )
    parser.add_argument(
        "--list-examples", action="store_true", help="list bundled example configs"
    )
    sub = parser.add_subparsers(dest="command")
    for name, help_ in (
        ("galerkin", "eigenvalue sweep table"),
        ("asympt", "expansion coefficients from all three routes"),
        ("fit", "polynomial fit of tracked eigenvalues"),
        ("dump-matrix", "text dump of the Galerkin matrix"),
    ):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", required=True, help="config path or example name")
        p.add_argument("--m", type=int, help="Galerkin truncation override")
        p.add_argument("--eps", help="comma-separated eps override")
        p.add_argument("--modes", help="comma-separated tracked modes override")
        p.add_argument("--out", choices=("csv", "md"), help="output format")
        p.add_argument("--out-file", help="write output here instead of stdout")
        if name == "fit":
            p.add_argument("--order", type=int, default=4, choices=(1, 2, 4))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_examples:
        print("\n".join(EXAMPLE_NAMES))
        return 0
    if not args.command:
        parser.print_help()
        return EXIT_CONFIG

    try:
        cfg = load_config_file(args.config)
        if args.m is not None:
            if args.m < 1:
                raise ConfigError("m must be >= 1")
            cfg.m = args.m
        if args.eps is not None:
            cfg.eps_list = parse_eps_list(args.eps, "--eps")
        if args.modes is not None:
            cfg.modes = parse_modes(args.modes, "--modes")
        _check_matrix_memory(cfg.m)
        # the modes each command tracks: asympt's galerkin_fit route tracks +-1
        tracked = {"galerkin": cfg.modes, "fit": cfg.modes, "asympt": (1, -1)}
        edge = cfg.m - gk.tracking_buffer(cfg.m)
        for n in tracked.get(args.command, ()):
            if abs(n) > edge:
                raise ConfigError(
                    f"mode {n} is past the truncation edge: m={cfg.m} tracks |n| <= {edge}"
                )
        out_format = args.out or cfg.out_format

        tracking_failures: list[str] = []
        if args.command == "galerkin":
            text, tracking_failures = cmd_galerkin(cfg, out_format)
        elif args.command == "asympt":
            text = cmd_asympt(cfg, out_format)
        elif args.command == "fit":
            eps_grid = cfg.eps_list if args.eps is not None else None
            text = cmd_fit(cfg, out_format, order=args.order, eps_grid=eps_grid)
        else:
            text = cmd_dump_matrix(cfg)
    # before ValueError: NumericalContractError and np.linalg.LinAlgError subclass it
    except _NUMERIC_ERRORS as exc:
        print(f"numerical contract violation: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RouteDisagreementError as exc:
        print(f"route disagreement:\n{exc}", file=sys.stderr)
        return EXIT_NUMERIC

    if args.out_file:
        try:
            with open(args.out_file, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"config error: cannot write output {args.out_file!r}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    else:
        sys.stdout.write(text)
    if tracking_failures:
        print(
            "numerical contract violation:\n" + "\n".join(tracking_failures),
            file=sys.stderr,
        )
        return EXIT_NUMERIC
    return 0


if __name__ == "__main__":
    sys.exit(main())
