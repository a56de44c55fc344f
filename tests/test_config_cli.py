import re
import subprocess
import sys
import tracemalloc
from dataclasses import astuple, fields

import numpy as np
import pytest

from torusdirac import (
    CoframeFamily,
    ConfigError,
    NumericalContractError,
    PseudoinverseDomainError,
    SingularCoframeError,
    TrackingError,
    UnderResolvedError,
    cli,
    config,
    dirac,
    dirac_operator,
    galerkin,
    geometry,
    load_example,
    parse_config,
)
from torusdirac import perturbation as pt
from torusdirac.cli import _dump_rows, build_parser, main
from torusdirac.config import EXAMPLE_NAMES, RunConfig

from conftest import assert_sigfigs, isclose

# the classes that signal a numerical failure and map to exit code 3
NUMERIC_ERRORS = (
    NumericalContractError,
    SingularCoframeError,
    UnderResolvedError,
    TrackingError,
    PseudoinverseDomainError,
    pt.DegenerateSplittingError,
    pt.FitResidualError,
    np.linalg.LinAlgError,
)

MINIMAL_DIRECT = """
m = 8
eps = 0.05
modes = 0, 1
perturbation.h.1.1 = (0, 1, 0)
"""


class TestParsing:
    def test_minimal_direct(self):
        cfg = parse_config(MINIMAL_DIRECT)
        assert cfg.mode == "direct"
        assert cfg.m == 8
        assert cfg.eps_list == [0.05]
        assert cfg.modes == [0, 1]
        assert cfg.h[0][0].tolist() == [1.0]
        assert cfg.k[0][0].tolist() == [0.0]

    def test_comments_and_blank_lines(self):
        cfg = parse_config(
            "# leading\n\ncoframe.E1.1.2 = (1, 0.5, 0) (-1, 0.5, 0)\n"
        )
        assert cfg.mode == "coframe"
        assert cfg.family().E1[0][1].tolist() == [0.5, 0.0, 0.5]

    @pytest.mark.parametrize(
        "text,match",
        [
            ("m = 25", "no family data"),
            (
                "coframe.E1.1.1 = (0, 1, 0)\nperturbation.h.1.1 = (0, 1, 0)",
                "not both",
            ),
            ("perturbation.h.1.2 = (0, 1, 0)", "symmetric"),
            ("coframe.E1.1.1 = (0, 1, 0)\nbogus = 3", "unknown key"),
            ("coframe.E1.4.1 = (0, 1, 0)", "unknown key"),
            ("h.1.1 = (0, 1, 0)", "unknown key"),
            ("coframe.E1.1.1 = (0, 1 0)", "triple|fragment"),
            ("m = zero\nperturbation.h.1.1 = (0, 1, 0)", "integer"),
            ("m = 8\nm = 8\nperturbation.h.1.1 = (0, 1, 0)", "duplicate"),
            ("coframe.E1.2.2 = (0, 1, 0)\ncoframe.E1.2.2 = (0, 2, 0)", "duplicate key 'coframe.E1.2.2'"),
            ("coframe.E1.1.1 = (0, nan, 0)", "coframe.E1.1.1: coefficients must be finite"),
            ("coframe.E1.1.1 = (0, 1e400, 0)", "coframe.E1.1.1: coefficients must be finite"),
            ("perturbation.h.1.1 = (0, 1, -inf)", "perturbation.h.1.1: coefficients must be finite"),
            ("coframe.E1.1.1 = (0, 1, 0.5)", "real"),
            ("eps = 0.1, inf\ncoframe.E1.1.1 = (0, 1, 0)", "finite"),
            ("eps =\ncoframe.E1.1.1 = (0, 1, 0)", "at least one"),
            ("modes =\ncoframe.E1.1.1 = (0, 1, 0)", "at least one"),
            ("modes = 1, -1, 1\ncoframe.E1.1.1 = (0, 1, 0)", "modes: mode 1 given twice"),
        ],
    )
    def test_rejects_malformed(self, text, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(text)

    @pytest.mark.parametrize(
        "load,text,message",
        [
            (parse_config, "coframe.E1.1.1 = (x, 1, 0)", "coframe.E1.1.1: bad triple (x, 1, 0)"),
            (parse_config, "eps = a\ncoframe.E1.1.1 = (0, 1, 0)", "eps: expected a list of numbers, got 'a'"),
            (parse_config, "out = xml\ncoframe.E1.1.1 = (0, 1, 0)", "out must be 'csv' or 'md', got 'xml'"),
            (parse_config, "m = 8\nm 25  # no sign", "line 2: expected 'key = value', got 'm 25  # no sign'"),
            (parse_config, "m = 0\ncoframe.E1.1.1 = (0, 1, 0)", "m must be >= 1"),
            # as cli.main parses the --m flag
            (lambda text: config.parse_scalars({"m": text}, "--"), "-5", "--m must be >= 1"),
            (load_example, "nope", "unknown example 'nope'; available: example-galerkin-1, "
             "example-galerkin-2, example-explicit-1, example-explicit-2"),
        ],
        ids=["triple", "eps", "out", "no-equals", "m", "m-flag", "example"],
    )
    def test_error_messages(self, load, text, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load(text)

    def test_unknown_physical_memory_skips_the_memory_bound(self, monkeypatch):
        def unavailable(name):
            raise OSError(f"sysconf {name!r} unavailable")

        monkeypatch.setattr(config.os, "sysconf", unavailable)
        assert config._physical_memory() is None
        config._require_memory(1 << 60, "m=1", "Galerkin matrix")
        assert parse_config(MINIMAL_DIRECT).m == 8

    def test_family_is_held_once_and_mode_follows_h(self):
        direct, coframe = parse_config(MINIMAL_DIRECT), parse_config("coframe.E1.1.2 = (0, 0.5, 0)\n")
        assert (direct.mode, coframe.mode) == ("direct", "coframe")
        assert coframe.h is None and coframe.k is None
        assert direct.family() is direct.family()
        assert not {f.name for f in fields(RunConfig)} & {"E1", "E2", "mode"}

    def test_bundled_examples_load(self):
        for name in EXAMPLE_NAMES:
            cfg = load_example(name)
            family = cfg.family()
            for eps in cfg.eps_list:
                dirac_operator(family, eps, 256)

    def test_bundled_families_match_fixtures(
        self, rotation_block_coframe, explicit_family_2
    ):
        cfg1 = load_example("example-galerkin-1")
        assert isclose(cfg1.family().E1, rotation_block_coframe.E1, 1e-15)
        cfg4 = load_example("example-explicit-2")
        h, k = explicit_family_2
        assert isclose(cfg4.h, h, 1e-15)
        assert isclose(cfg4.k, k, 1e-15)


class TestCli:
    @pytest.mark.parametrize("argv", [[], None], ids=["empty", "console-script"])
    def test_no_command_prints_help_and_exits_2(self, argv, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["torusdirac"])
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == build_parser().format_help() and err == ""
        assert out.startswith("usage: torusdirac") and "Spectra of the axisymmetric" in out

    def test_list_examples(self, capsys):
        assert main(["--list-examples"]) == 0
        out = capsys.readouterr().out
        for name in EXAMPLE_NAMES:
            assert name in out

    def test_galerkin_reproduces_table_value(self, capsys):
        code = main(
            ["galerkin", "--config", "example-galerkin-1", "--eps", "0.2", "--modes", "0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "eps,mode_0,gap_0"
        eps, mean, gap = (float(t) for t in lines[1].split(","))
        assert_sigfigs(mean, -0.0208333, 6)
        assert gap <= 1e-10

    def test_galerkin_markdown(self, capsys):
        code = main(
            ["galerkin", "--config", "example-galerkin-1", "--eps", "0.1",
             "--modes", "1", "--out", "md"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("| eps")
        assert "0.994949" in out

    def test_galerkin_deterministic_output(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            code = main(
                ["galerkin", "--config", "example-galerkin-2", "--eps", "0.1,0.01",
                 "--out-file", str(p)]
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_asympt_explicit_families(self, capsys):
        assert main(["asympt", "--config", "example-explicit-1", "--m", "12"]) == 0
        out = capsys.readouterr().out
        assert "lambda2_plus" in out
        assert "asymmetry2 = -1" in out

        assert main(["asympt", "--config", "example-explicit-2", "--m", "12"]) == 0
        out = capsys.readouterr().out
        assert "asymmetry2 = -0.25" in out
        assert "arc_length_slope_predicted = 3.14159" in out

    def test_asympt_zero_perturbation(self, capsys, tmp_path):
        cfgfile = tmp_path / "zero.cfg"
        cfgfile.write_text("m = 8\nperturbation.h.1.1 =\n")
        assert main(["asympt", "--config", str(cfgfile)]) == 0
        out = capsys.readouterr().out
        assert "asymmetry2 = 0" in out

    def test_fit_rotation_block(self, capsys):
        code = main(
            ["fit", "--config", "example-galerkin-1", "--m", "12", "--modes", "1,-1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        assert header[:6] == ["mode", "c1", "c2", "c3", "c4", "residual"]
        row1 = dict(zip(header, lines[1].split(",")))
        assert float(row1["c2"]) == pytest.approx(-0.5, abs=1e-6)
        assert float(row1["c4"]) == pytest.approx(-0.5, abs=1e-3)
        assert "ASYMMETRIC" in out  # c2 sums to -1, not 0

    def test_dump_matrix_format(self, capsys):
        code = main(
            ["dump-matrix", "--config", "example-galerkin-1", "--eps", "0", "--m", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 10
        first = out[0].split()
        assert len(first) == 10
        # entries parse as complex after i -> j
        top_left = complex(first[0].replace("i", "j"))
        assert top_left == pytest.approx(-2.0, abs=1e-12)

    def test_dump_rows_match_fstring_on_edge_floats(self):
        edge = [0.0, -0.0, 5e-324, -5e-324, 1.1125369292536007e-308, np.inf, -np.inf,
                np.nan, 1e300, -1e-300, 1e16, -1e17, 12345678901234567.0, 0.1, 1 / 3]
        re = np.array(edge)
        entries = np.empty((len(edge), len(edge)), dtype=complex)
        entries.real = re[:, None]
        entries.imag = re[None, ::-1]
        expected = "\n".join(
            " ".join(f"{z.real:.17g}{z.imag:+.17g}i" for z in row) for row in entries
        ) + "\n"
        assert _dump_rows(entries) == expected

    @pytest.mark.parametrize("order", [1, 16, 37])
    def test_dump_rows_match_fstring_across_strips(self, order):
        # one strip, exactly one full strip, and two full strips plus a short one;
        # signed NaNs print unsigned, repeated magnitudes with either sign
        rng = np.random.default_rng(order)
        special = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -1e300])
        values = rng.normal(size=(order, 2 * order)) * 10.0 ** rng.integers(-300, 300, (order, 2 * order))
        values[:, ::3] = rng.choice(special, size=values[:, ::3].shape)
        values[:, 1::4] = -values[:, ::4]
        entries = values.view(complex)
        expected = "".join(
            " ".join(f"{z.real:.17g}{z.imag:+.17g}i" for z in row) + "\n" for row in entries
        )
        assert _dump_rows(entries) == expected

    def test_repeated_main_calls_identical(self, capsys):
        argv = ["galerkin", "--config", "example-galerkin-2", "--out", "md"]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert main(["fit", "--config", "example-galerkin-1", "--order", "2"]) == 0
        assert main(["dump-matrix", "--config", "nowhere.cfg"]) == 2
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr() == first
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("error", NUMERIC_ERRORS, ids=lambda cls: cls.__name__)
    def test_internal_numerical_error_exit_code(self, error, monkeypatch, capsys):
        # NumericalContractError and LinAlgError subclass ValueError but are
        # not bad input; every numerical error class derives from the former
        if error is not np.linalg.LinAlgError:
            assert issubclass(error, NumericalContractError)

        def fail(h, k00):
            raise error("second-order coefficient not real: (1+1j)")

        monkeypatch.setattr(pt, "_second_corrections_closed", fail)
        assert main(["asympt", "--config", "example-explicit-1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "numerical contract violation: second-order" in captured.err

    def test_dump_matrix_requires_single_eps(self, capsys):
        code = main(
            ["dump-matrix", "--config", "example-galerkin-1", "--eps", "0.1,0.2"]
        )
        assert code == 2

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense = 1\n")
        assert main(["galerkin", "--config", str(bad)]) == 2
        assert main(["galerkin", "--config", str(tmp_path / "missing.cfg")]) == 2

    @pytest.mark.parametrize(
        "text,message",
        [
            ("coframe.E1.2.2 = (0, 1, 0)\ncoframe.E1.2.2 = (0, 2, 0)\n",
             "line 2: duplicate key 'coframe.E1.2.2'"),
            ("coframe.E1.1.1 = (0, nan, 0)\n", "coframe.E1.1.1: coefficients must be finite"),
            ("coframe.E1.1.1 = (0, 1e400, 0)\n", "coframe.E1.1.1: coefficients must be finite"),
        ],
    )
    def test_bad_matrix_entry_is_config_error(self, text, message, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(text)
        code = main(["galerkin", "--config", str(cfgfile)])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith(f"config error: {message}")

    def test_numerical_violation_exit_code(self, capsys):
        # the rotation family shifts every eigenvalue by eps^2/(2(1-eps^2));
        # at eps = 0.7 the shift is ~0.48, leaving nothing within the 0.4
        # tracking radius of any integer mode
        code = main(
            ["galerkin", "--config", "example-galerkin-1", "--eps", "0.7", "--modes", "0"]
        )
        assert code == 3

    def test_nonfinite_eps_override_is_config_error(self, capsys):
        code = main(["galerkin", "--config", "example-galerkin-1", "--eps", "nan"])
        assert code == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,value", [("m", "0"), ("m", "-3"), ("eps", "nan"), ("eps", ""), ("modes", "1, 1"), ("modes", "")]
    )
    def test_key_and_flag_are_checked_alike(self, key, value, tmp_path, capsys):
        # a scalar key and its --key flag share one parser: the same message
        # up to the key's name
        family = "coframe.E1.1.1 = (0, 0.1, 0)\n"
        bad, good = tmp_path / "bad.cfg", tmp_path / "good.cfg"
        bad.write_text(f"{key} = {value}\n" + family)
        good.write_text(family)
        assert main(["galerkin", "--config", str(bad)]) == 2
        from_file = capsys.readouterr().err
        assert main(["galerkin", "--config", str(good), f"--{key}", value]) == 2
        from_flag = capsys.readouterr().err
        assert from_file.startswith("config error: ")
        assert from_flag.replace(f"--{key}", key) == from_file

    def test_flag_m_replaces_the_file_m_before_the_memory_check(self, tmp_path, capsys):
        cfgfile = tmp_path / "huge.cfg"
        cfgfile.write_text("m = 100000000\neps = 0.1\nmodes = 0\ncoframe.E1.1.1 = (0, 0.1, 0)\n")
        assert main(["galerkin", "--config", str(cfgfile)]) == 2
        assert "m=100000000 needs a" in capsys.readouterr().err
        assert main(["galerkin", "--config", str(cfgfile), "--m", "8"]) == 0

    @pytest.mark.parametrize("order", [1, 2])
    def test_fit_residual_names_the_mode_and_order(self, order, capsys):
        # on the default grid of orders 1 and 2, eps^1..eps^4 leave mode -2 of
        # example-galerkin-2 above the gate at any m; the quartic fit passes
        assert main(["fit", "--config", "example-galerkin-2", "--order", str(order)]) == 3
        err = capsys.readouterr().err
        assert f"mode -2, order {order}: fit residual" in err
        assert err.rstrip().endswith("eps^1..eps^4 do not model the sweep; fit at a higher order")
        assert main(["fit", "--config", "example-galerkin-2", "--order", "4"]) == 0

    def test_unwritable_out_file_is_config_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.csv"
        code = main(["galerkin", "--config", "example-galerkin-2", "--out-file", str(target)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and not target.exists()
        assert captured.err.startswith(f"config error: cannot write output {str(target)!r}")

    @pytest.mark.parametrize("command,module,name", [("galerkin", galerkin, "spectrum_sweep"),
                                                     ("asympt", pt, "perturbation_report")])
    def test_memory_error_is_config_error(self, command, module, name, tmp_path, monkeypatch, capsys):
        # an allocation that fails past the up-front memory checks, patched in:
        # never allocated for real
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 1.00 TiB for an array")

        monkeypatch.setattr(module, name, exhausted)
        target = tmp_path / "out.txt"
        for extra in ([], ["--out-file", str(target)]):
            code = main([command, "--config", "example-galerkin-2", *extra])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == "" and not target.exists()
            assert captured.err == "config error: out of memory: Unable to allocate 1.00 TiB for an array\n"

    @pytest.mark.parametrize(
        "eps,repeated", [(",".join(["0.01"] * 8), "0.01"), ("0.02,0.02,0.04,0.04,0.06,0.06,0.08,0.08", "0.02")]
    )
    def test_repeated_fit_eps_is_config_error(self, eps, repeated, capsys):
        # the rank-deficient design printed c2(+1) = -0.0049 for a closed form
        # of 0.75, or flagged a pair of asymmetry -0.25 as symmetric
        argv = ["fit", "--config", "example-explicit-2", "--order", "2", "--modes", "1,-1", "--eps", eps]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"config error: eps sample {repeated} given twice\n"

    @pytest.mark.parametrize("command", ["galerkin", "fit"])
    def test_repeated_mode_is_config_error(self, command, tmp_path, capsys):
        # a repeated mode printed its columns or its row twice
        code = main([command, "--config", "example-galerkin-2", "--modes", "1,1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "config error: --modes: mode 1 given twice\n"
        cfgfile = tmp_path / "repeated.cfg"
        cfgfile.write_text("modes = 1, -1, 1\ncoframe.E1.2.2 = (1, 0.05, 0) (-1, 0.05, 0)\n")
        code = main([command, "--config", str(cfgfile)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "config error: modes: mode 1 given twice\n"

    def test_negative_eps_override_with_equals_sign(self, capsys):
        # "--eps -0.1,0.1" is an argparse usage error: the value looks like an option
        code = main(["galerkin", "--config", "example-galerkin-2", "--eps=-0.1,0.1", "--modes", "1"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[0] == "eps,mode_1,gap_1"
        assert [line.split(",")[0] for line in lines[1:]] == ["-0.10000000000000001", "0.10000000000000001"]

    @pytest.mark.parametrize("option", ["--modes", "--eps"])
    def test_empty_override_list_is_config_error(self, option, capsys):
        code = main(["galerkin", "--config", "example-galerkin-1", option, ","])
        assert code == 2
        assert "at least one" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["galerkin", "fit"])
    @pytest.mark.parametrize("option", ["--modes", "--eps"])
    def test_empty_override_string_is_config_error(self, command, option, capsys):
        # an empty string is an empty list, not an absent option
        code = main([command, "--config", "example-galerkin-1", option, ""])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{option}: expected at least one number" in captured.err

    @pytest.mark.parametrize(
        "command,eps", [("galerkin", "0.1,1.0"), ("fit", "0.1,0.02,0.03,0.04,0.05,0.06")]
    )
    def test_singular_coframe_exit_code(self, command, eps, tmp_path, capsys):
        # e^1_1 = 1 - eps / top vanishes at the largest eps, top; the check
        # precedes every solve (a fit grid lies in (0, 0.15])
        top = max(map(float, eps.split(",")))
        cfgfile = tmp_path / "singular.cfg"
        cfgfile.write_text(f"coframe.E1.1.1 = (0, {-1 / top!r}, 0)\n")
        code = main([command, "--config", str(cfgfile), "--eps", eps])
        assert code == 3
        assert f"singular at eps={top}" in capsys.readouterr().err

    @pytest.mark.parametrize("eps,message", [
        ("0.2,0.3,0.4,0.5,0.6,0.7", r"eps samples must lie in \(0, 0.15\]"),
        ("0.01,0.02,0.03", "need at least 6 eps samples for order 4"),
        ("0.01,0.02,0.03,0.04,0.05,0.02", "eps sample 0.02 given twice"),
    ])
    def test_bad_fit_grid_is_config_error_before_any_solve(self, eps, message, monkeypatch, capsys):
        # the grid outside (0, 0.15] was checked after the sweep, and tracking
        # at eps = 0.6 failed first with exit 3
        def refuse(*args):
            raise AssertionError("fit solved before checking its grid")

        monkeypatch.setattr(pt, "spectrum_sweep", refuse)
        code = main(["fit", "--config", "example-galerkin-2", "--eps", eps, "--modes", "1,-1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert re.match(f"config error: {message}", captured.err)

    @pytest.mark.parametrize(
        "command,modes", [("fit", "30"), ("galerkin", "1,30")]
    )
    def test_mode_past_truncation_edge_is_config_error(self, command, modes, capsys):
        # m = 25 tracks |n| <= 25 - ceil(25/5) = 20; checked before any solve
        code = main([command, "--config", "example-galerkin-1", "--modes", modes])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "mode 30 is past the truncation edge" in captured.err

    def test_asympt_past_truncation_edge_is_config_error(self, capsys):
        # the galerkin_fit route of asympt tracks modes +-1; m = 1 tracks |n| <= 0
        code = main(["asympt", "--config", "example-galerkin-1", "--m", "1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "mode 1 is past the truncation edge: m=1 tracks |n| <= 0" in captured.err

    @pytest.mark.parametrize("command", ["galerkin", "fit", "asympt", "dump-matrix"])
    def test_matrix_past_memory_bound_is_config_error(self, command, monkeypatch, capsys):
        # m = 25: the dense matrix takes 16 * 102^2 = 166,464 bytes, more
        # than a quarter of the 600,000 bytes reported here; dump-matrix
        # builds it by galerkin_matrix, and the other commands solve this
        # half-turn family by the block of _paired_block
        def no_assembly(*args, **kwargs):
            raise AssertionError("a matrix was assembled past the memory bound")

        monkeypatch.setattr(config, "_physical_memory", lambda: 600_000)
        monkeypatch.setattr(galerkin, "galerkin_matrix", no_assembly)
        monkeypatch.setattr(galerkin, "_paired_block", no_assembly)
        extra = ["--eps", "0.1"] if command == "dump-matrix" else []
        assert main([command, "--config", "example-galerkin-1", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "m=25 needs a" in captured.err
        assert "quarter of physical memory" in captured.err

    def test_matrix_at_memory_bound_runs(self, monkeypatch, capsys):
        monkeypatch.setattr(config, "_physical_memory", lambda: 4 * 16 * 102**2)
        argv = ["dump-matrix", "--config", "example-galerkin-1", "--eps", "0.1"]
        assert main(argv) == 0
        assert main(argv + ["--m", "26"]) == 2

    @pytest.mark.parametrize("key,factor", [("coframe.E1.2.3", 1), ("perturbation.h.2.3", 2)])
    def test_absurd_harmonic_is_config_error_before_allocation(self, key, factor, monkeypatch, tmp_path, capsys):
        # with 1 MiB reported, harmonic 10000 of E1 makes the arc-length sample
        # spectrum 16 * 30 * (default_grid(10000) // 2 + 1) bytes, 18.3 MiB; of
        # h, whose square enters E2, twice that. Parsing rejects it before it
        # allocates the entry's 20001 coefficients, 313 KiB
        monkeypatch.setattr(config, "_physical_memory", lambda: 1 << 20)
        cfgfile = tmp_path / "absurd.cfg"
        cfgfile.write_text(f"{key} = (10000, 0.001, 0) (-10000, 0.001, 0)\n")
        tracemalloc.start()
        try:
            code = main(["galerkin", "--config", str(cfgfile)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        size = 16 * 30 * (geometry.default_grid(factor * 10000) // 2 + 1)
        assert f"{key}: harmonic 10000 needs a {size / 2**20:.6g} MiB arc-length sample spectrum" in captured.err
        assert peak < 16 * 20001  # the entry's coefficients were never allocated

    @pytest.mark.parametrize("command,calls", [("galerkin", 3), ("fit", 12)])
    def test_one_geometry_build_per_eps(self, command, calls, monkeypatch, capsys):
        # example-galerkin-2 lists 3 eps; the quartic fit grid has 12, and
        # every sweep builds all its operators in one pass
        passes = []
        original = dirac.dirac_operators

        def counting(cf, eps_values, n):
            passes.append(len(eps_values))
            return original(cf, eps_values, n)

        monkeypatch.setattr(dirac, "dirac_operators", counting)
        monkeypatch.setattr(galerkin, "dirac_operators", counting)
        assert main([command, "--config", "example-galerkin-2"]) == 0
        assert passes == [calls]

    def test_asympt_samples_the_arc_length_once(self, monkeypatch, capsys):
        # both probes of the measured slope come from one coframe sample
        samples = []
        original = geometry._coframe_samples

        def counting(cf, eps, n):
            samples.append(list(eps))
            return original(cf, eps, n)

        monkeypatch.setattr(geometry, "_coframe_samples", counting)
        assert main(["asympt", "--config", "example-galerkin-2"]) == 0
        assert samples == [[1e-4, -1e-4]]

    @pytest.mark.parametrize("config", ["example-galerkin-2", "example-explicit-2"])
    def test_one_family_per_command(self, config, monkeypatch, capsys):
        # the family that parsing validated is the one the command runs on
        built = []
        post_init = CoframeFamily.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(CoframeFamily, "__post_init__", counting)
        assert main(["fit", "--config", config]) == 0
        assert len(built) == 1

    def test_eigensolver_failure_exit_code(self, monkeypatch, capsys):
        # LinAlgError subclasses ValueError but is a numerical failure, of the
        # paired solve (example-galerkin-1) as of the full one (example-explicit-1)
        def no_convergence(entries):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
        for name in ("example-galerkin-1", "example-explicit-1"):
            code = main(["galerkin", "--config", name, "--eps", "0.1"])
            assert code == 3
            assert "numerical contract violation" in capsys.readouterr().err

    def test_nan_samples_stop_before_the_matrix(self, monkeypatch, capsys):
        # eps^2 = inf turns the coframe's E2 terms into inf and NaN: a check
        # of the sampled step must stop the solve, not eigvalsh on NaN entries;
        # the samples are real by construction, and det e is NaN
        def refuse(*args):
            raise AssertionError("galerkin_matrix reached with NaN samples")

        monkeypatch.setattr(galerkin, "galerkin_matrix", refuse)
        argv = ["galerkin", "--config", "example-explicit-2", "--eps", "1e200", "--m", "5"]
        code = main(argv + ["--modes", "1"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "numerical contract violation: coframe is singular at eps=1e+200: det=nan" in captured.err

    def test_overflowing_k_exits_3(self, tmp_path, capsys):
        # k = 4 E1^T E1 overflows: a numerical fault, not a configuration error
        cfgfile = tmp_path / "huge.cfg"
        cfgfile.write_text("coframe.E1.1.1 = (0, 1e200, 0)\n")
        code = main(["asympt", "--config", str(cfgfile)])
        assert code == 3
        assert "numerical contract violation: h or k overflows" in capsys.readouterr().err

    def test_rounding_level_imaginary_part_the_parser_accepts_runs(self, tmp_path, capsys):
        # an imaginary part of 0.9e-12 in c_-1 is within the parser's 1e-12
        # realness tolerance, and h = E1 + E1^T doubles it: the closed form
        # reads the means of (h^2)_11 and k_11 as the reals they are, and the
        # operator route builds real operators from h, so asympt runs
        cfgfile = tmp_path / "rounding.cfg"
        entry = "(-1, 0.5, 0.9e-12) (1, 0.5, 0)"
        cfgfile.write_text(f"coframe.E1.1.2 = {entry}\ncoframe.E1.2.1 = {entry}\n")
        code = main(["asympt", "--config", str(cfgfile)])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert captured.out.startswith("coefficient,closed_form,operator,galerkin_fit,max_deviation\n")

    @pytest.mark.parametrize("route", ["operator", "galerkin_fit"])
    def test_nan_coefficient_fails_the_route_gates(self, route, monkeypatch, capsys):
        report = pt.perturbation_report

        def with_nan(cf, name, m=25):
            result = report(cf, name, m)
            if name == route:
                result = pt.PerturbationReport(float("nan"), *astuple(result)[1:])
            return result

        monkeypatch.setattr(pt, "perturbation_report", with_nan)
        assert main(["asympt", "--config", "example-galerkin-2"]) == 3
        err = capsys.readouterr().err
        assert "route disagreement" in err and "lambda1_plus" in err
        assert issubclass(cli.RouteDisagreementError, NumericalContractError)

    def test_under_resolved_exit_code(self, tmp_path, capsys):
        # cos(100 x) leaves an aliasing tail on the m = 25 grid of 256 points
        cfgfile = tmp_path / "fine.cfg"
        cfgfile.write_text("coframe.E1.1.1 = (100, 0.5, 0) (-100, 0.5, 0)\n")
        code = main(["galerkin", "--config", str(cfgfile), "--eps", "0.1"])
        assert code == 3
        assert "Fourier tail" in capsys.readouterr().err

    @pytest.mark.parametrize("k", [256, 250])
    def test_coframe_harmonic_folding_into_band_exit_code(self, k, tmp_path, capsys):
        # on the 256-point grid of m = 10, cos(256 x) samples as the constant 1
        # and cos(250 x) as cos(6 x): both fold into the kept band |k| <= 63
        cfgfile = tmp_path / "folding.cfg"
        cfgfile.write_text(f"coframe.E1.1.1 = ({k}, 0.25, 0) ({-k}, 0.25, 0)\n")
        code = main(["galerkin", "--config", str(cfgfile), "--m", "10", "--eps", "0.2"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "Fourier tail 5.00e-02" in captured.err

    @pytest.mark.parametrize("command", ["galerkin", "asympt", "fit"])
    def test_out_of_band_coframe_harmonic_is_named(self, command, tmp_path, capsys):
        # m = 25 samples on 256 points, which keep |k| <= 63; m = 40 on 336, which keep |k| <= 83
        cfgfile = tmp_path / "band.cfg"
        cfgfile.write_text("coframe.E1.2.2 = (70, 0.01, 0) (-70, 0.01, 0)\n")
        assert main([command, "--config", str(cfgfile)]) == 3
        err = capsys.readouterr().err
        assert "Fourier tail" in err and "under-resolves" not in err
        assert "harmonic 70 of the coframe lies past the band |k| <= 63 that 256 sample points keep" in err
        assert main([command, "--config", str(cfgfile), "--m", "40"]) == 0

    def test_out_of_band_harmonic_rejected_before_any_product(self, monkeypatch, tmp_path, capsys):
        # sampled at full degree, this coframe's phase table would hold 256 * 40001
        # values (a 315 MiB peak); the pass checks the coframe tail first and
        # samples only the band |k| < n/4. Parsing checks each entry's
        # realness at its own degree, so the load holds little more than the
        # 40001 coefficients: it peaked at 4.0 MiB, where padding all nine
        # entries to that degree took 18.3 MiB
        cfgfile = tmp_path / "band.cfg"
        cfgfile.write_text("coframe.E1.2.3 = (20000, 0.001, 0) (-20000, 0.001, 0)\n")
        flat = tmp_path / "flat.cfg"
        flat.write_text("coframe.E1.1.1 = (0, 0, 0)\n")
        load = cli.load_config_file
        load_peaks = []

        def traced_load(path):
            cfg = load(path)
            load_peaks.append(tracemalloc.get_traced_memory()[1])
            return cfg

        def traced(eps: str) -> tuple[int, int]:
            with monkeypatch.context() as patch:
                patch.setattr(cli, "load_config_file", traced_load)
                tracemalloc.start()
                try:
                    code = main(["dump-matrix", "--config", str(cfgfile), "--m", "3", "--eps", eps])
                    return code, tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        def refuse(*args):
            raise AssertionError("coframe sampled past a failing coframe tail")

        with monkeypatch.context() as patch:
            patch.setattr(np.fft, "irfft", refuse)
            code, peak = traced("0.1")
        captured = capsys.readouterr()
        assert code == 3 and peak <= 8 << 20
        assert "Fourier tail 1.00e-04" in captured.err
        # at eps = 0 the tail is 0, and the band holds the flat coframe
        code, peak = traced("0")
        assert code == 0 and peak <= 8 << 20
        out = capsys.readouterr().out
        assert main(["dump-matrix", "--config", str(flat), "--m", "3", "--eps", "0"]) == 0
        assert out == capsys.readouterr().out
        assert len(load_peaks) == 2 and max(load_peaks) <= 6 << 20

    def test_high_harmonic_asympt_exits_3_in_bounded_memory(self, tmp_path, capsys):
        # h has degree 20000, which once sized the pseudoinverse at |q| <= 20004;
        # a dense Toeplitz kernel of that size in apply asked for 11.9 GiB, and
        # asympt exited 1 with a traceback. As one field product per apply the
        # route peaked at 44 MiB (measured), and the galerkin_fit route reports
        # the under-resolved grid
        cfgfile = tmp_path / "band.cfg"
        cfgfile.write_text("coframe.E1.2.3 = (20000, 0.001, 0) (-20000, 0.001, 0)\n")
        tracemalloc.start()
        try:
            code = main(["asympt", "--config", str(cfgfile)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert "Fourier tail 1.00e-05" in captured.err
        assert peak <= 64 << 20

    def test_large_real_coframe_is_accepted(self, tmp_path, capsys):
        # at eps = 1, det e ~ 1e9 carries an imaginary rounding part of 1.16e-10,
        # 1e-19 of its size, which an absolute 1e-10 gate rejected
        cfgfile = tmp_path / "large.cfg"
        cfgfile.write_text(
            "m = 3\n"
            "coframe.E1.1.1 = (0, 1000, 0)\n"
            "coframe.E1.2.2 = (0, 1000, 0)\n"
            "coframe.E1.3.3 = (0, 1000, 0)\n"
            "coframe.E1.2.3 = (1, 20, 0) (-1, 20, 0)\n"
            "coframe.E1.3.2 = (2, 0, 15) (-2, 0, -15)\n"
        )
        code = main(["dump-matrix", "--config", str(cfgfile), "--eps", "1.0"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert captured.out

    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "torusdirac.cli", "--list-examples"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "\n".join(EXAMPLE_NAMES) + "\n"
