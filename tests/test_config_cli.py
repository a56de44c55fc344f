import subprocess
import sys

import numpy as np
import pytest

from torusdirac import (
    ConfigError,
    NumericalContractError,
    PseudoinverseDomainError,
    SingularCoframeError,
    TrackingError,
    TruncationError,
    UnderResolvedError,
    cli,
    galerkin,
    geometry,
    load_example,
    metric_at,
    parse_config,
)
from torusdirac import perturbation as pt
from torusdirac.cli import _dump_rows, build_parser, main
from torusdirac.config import EXAMPLE_NAMES

from conftest import assert_sigfigs

# the classes that signal a numerical failure and map to exit code 3
NUMERIC_ERRORS = (
    NumericalContractError,
    SingularCoframeError,
    UnderResolvedError,
    TrackingError,
    PseudoinverseDomainError,
    TruncationError,
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
        assert cfg.h.fourier(0)[0, 0] == 1.0
        assert cfg.k.fourier(0)[0, 0] == 0.0

    def test_comments_and_blank_lines(self):
        cfg = parse_config(
            "# leading\n\ncoframe.E1.1.2 = (1, 0.5, 0) (-1, 0.5, 0)\n"
        )
        assert cfg.mode == "coframe"
        assert cfg.E1.fourier(1)[0, 1] == 0.5

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
        ],
    )
    def test_rejects_malformed(self, text, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(text)

    def test_bundled_examples_load(self):
        for name in EXAMPLE_NAMES:
            cfg = load_example(name)
            family = cfg.family()
            for eps in cfg.eps_list:
                metric_at(family, eps)

    def test_bundled_families_match_fixtures(
        self, rotation_block_coframe, explicit_family_2
    ):
        cfg1 = load_example("example-galerkin-1")
        assert cfg1.E1.isclose(rotation_block_coframe.E1, 1e-15)
        cfg4 = load_example("example-explicit-2")
        h, k = explicit_family_2
        assert cfg4.h.isclose(h, 1e-15)
        assert cfg4.k.isclose(k, 1e-15)


class TestCli:
    def run(self, *argv, capsys=None):
        code = main(list(argv))
        return code

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

        def fail(h, k, n):
            raise error("second-order coefficient not real: (1+1j)")

        monkeypatch.setattr(pt, "second_correction_closed", fail)
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

    @pytest.mark.parametrize("option", ["--modes", "--eps"])
    def test_empty_override_list_is_config_error(self, option, capsys):
        code = main(["galerkin", "--config", "example-galerkin-1", option, ","])
        assert code == 2
        assert "at least one" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,eps", [("galerkin", "0.1,1.0"), ("fit", "0.5,1.0,0.02,0.03,0.04,0.05")]
    )
    def test_singular_coframe_exit_code(self, command, eps, tmp_path, capsys):
        # e^1_1 = 1 - eps vanishes at eps = 1; the check precedes every solve
        cfgfile = tmp_path / "singular.cfg"
        cfgfile.write_text("coframe.E1.1.1 = (0, -1, 0)\n")
        code = main([command, "--config", str(cfgfile), "--eps", eps])
        assert code == 3
        assert "singular at eps=1.0" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command", ["galerkin", "fit", "asympt", "dump-matrix"])
    def test_matrix_past_memory_bound_is_config_error(self, command, monkeypatch, capsys):
        # m = 25: the dense matrix takes 16 * 102^2 = 166,464 bytes, more
        # than a quarter of the 600,000 bytes reported here
        def no_assembly(*args, **kwargs):
            raise AssertionError("a matrix was assembled past the memory bound")

        monkeypatch.setattr(cli, "_physical_memory", lambda: 600_000)
        monkeypatch.setattr(galerkin, "assemble", no_assembly)
        extra = ["--eps", "0.1"] if command == "dump-matrix" else []
        assert main([command, "--config", "example-galerkin-1", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "m=25 needs a" in captured.err
        assert "quarter of physical memory" in captured.err

    def test_matrix_at_memory_bound_runs(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_physical_memory", lambda: 4 * 16 * 102**2)
        argv = ["dump-matrix", "--config", "example-galerkin-1", "--eps", "0.1"]
        assert main(argv) == 0
        assert main(argv + ["--m", "26"]) == 2

    @pytest.mark.parametrize("command,calls", [("galerkin", 3), ("fit", 12)])
    def test_one_geometry_build_per_eps(self, command, calls, monkeypatch, capsys):
        # example-galerkin-2 lists 3 eps; the quartic fit grid has 12
        count = 0
        original = geometry.metric_at

        def counting(*args, **kwargs):
            nonlocal count
            count += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(geometry, "metric_at", counting)
        monkeypatch.setattr(galerkin, "metric_at", counting)
        assert main([command, "--config", "example-galerkin-2"]) == 0
        assert count == calls

    def test_eigensolver_failure_exit_code(self, monkeypatch, capsys):
        # LinAlgError subclasses ValueError but is a numerical failure
        def no_convergence(gm):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(galerkin, "eigenvalues", no_convergence)
        code = main(["galerkin", "--config", "example-galerkin-1", "--eps", "0.1"])
        assert code == 3
        assert "numerical contract violation" in capsys.readouterr().err

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

    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "torusdirac.cli", "--list-examples"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "example-galerkin-1" in proc.stdout
