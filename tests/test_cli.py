import logging
import re

import numpy as np
import pytest

from kstensor.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


IDENT = "1,0,0,0,1,0,0,0,1"
ROT60 = "0.5,-0.8660254037844386,0,0.8660254037844386,0.5,0,0,0,1"
ROT120 = "-0.5,-0.8660254037844387,0,0.8660254037844387,-0.5,0,0,0,1"


class TestCheckMatrix:
    def test_identity_passes(self, capsys):
        code, out, _ = run_cli(capsys, "check-matrix", "--inline", IDENT)
        assert code == 0
        assert "hypothesis=true" in out
        assert "kappa=1" in out
        assert "trace_pinv=3" in out

    def test_rotation_sixty_degrees(self, capsys):
        code, out, _ = run_cli(capsys, "check-matrix", "--inline", ROT60)
        assert code == 0
        assert "kappa=0.5" in out

    def test_obtuse_rotation_exit_two(self, capsys):
        code, out, _ = run_cli(capsys, "check-matrix", f"--inline={ROT120}")
        assert code == 2
        assert "hypothesis=false" in out

    def test_matrix_file(self, capsys, tmp_path):
        mfile = tmp_path / "m.txt"
        mfile.write_text("1 0 0\n0 1 0\n0 0 1\n")
        code, out, _ = run_cli(capsys, "check-matrix", "--file", str(mfile))
        assert code == 0

    def test_parse_error_exit_one(self, capsys, tmp_path):
        mfile = tmp_path / "bad.txt"
        mfile.write_text("1 2\n3\n")
        code, _, err = run_cli(capsys, "check-matrix", "--file", str(mfile))
        assert code == 1
        assert "error" in err

    def test_missing_source_exit_one(self, capsys, no_matrix_message):
        code, out, err = run_cli(capsys, "check-matrix")
        assert (code, out, err) == (1, "", f"error: {no_matrix_message}\n")

    @pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
    def test_non_finite_entry_exit_one(self, capsys, entry):
        code, out, err = run_cli(capsys, "check-matrix", f"--inline={entry},0,0,0,1,0,0,0,1")
        assert code == 1
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("scale", ["1e200", "1e-170"])
    def test_extreme_scaled_identity_passes(self, capsys, scale):
        entries = ",".join(scale if i % 4 == 0 else "0" for i in range(9))
        code, out, err = run_cli(capsys, "check-matrix", f"--inline={entries}")
        assert code == 0, err
        assert "hypothesis=true" in out
        assert "kappa=1\n" in out
        assert f"trace_pinv=3e{-int(scale[2:]):+04d}" in out

    def test_ill_conditioned_matrix_decided(self, capsys):
        # singular values (1, 0.5, 1e-9): inside the singular gate, so the
        # command gives a verdict instead of an error
        rng = np.random.default_rng(5)
        q1, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        q2, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        a = (q1 * (1.0, 0.5, 1e-9)) @ q2.T
        entries = ",".join(repr(float(x)) for x in a.ravel())
        code, out, err = run_cli(capsys, "check-matrix", f"--inline={entries}")
        assert code in (0, 2), err
        assert re.search(r"^hypothesis=(true|false)$", out, re.MULTILINE)

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(capsys, "check-matrix", "--inline", ROT60)
        _, out2, _ = run_cli(capsys, "check-matrix", "--inline", ROT60)
        assert out1 == out2


class TestThresholds:
    def test_admissible_small_moment(self, capsys):
        code, out, _ = run_cli(
            capsys, "thresholds", "--inline", IDENT,
            "--chi", "1", "--mass", "1", "--moment", "1e-5",
        )
        assert code == 0
        assert "admissible=true" in out
        assert "c_bl=8.79524163562e-05" in out

    def test_inadmissible_with_epsilon(self, capsys):
        code, out, _ = run_cli(
            capsys, "thresholds", "--inline", IDENT,
            "--chi", "1", "--mass", "1", "--moment", "1e-3",
        )
        assert code == 0
        assert "admissible=false" in out
        assert "epsilon=0.296567726424" in out

    def test_report_key_order(self, capsys):
        _, out, _ = run_cli(
            capsys, "thresholds", "--inline", IDENT,
            "--chi", "1", "--mass", "1", "--moment", "1e-5",
        )
        keys = [line.split("=")[0] for line in out.strip().split("\n")]
        assert keys == ["c_bl", "admissible", "margin", "epsilon", "t_upper", "f_w0"]

    @pytest.mark.parametrize("flag", ["--chi", "--mass", "--moment"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_rejected(self, capsys, flag, value):
        args = {"--chi": "1", "--mass": "1", "--moment": "1e-5"}
        args[flag] = value
        argv = [f"{k}={v}" for k, v in args.items()]
        code, out, err = run_cli(capsys, "thresholds", "--inline", IDENT, *argv)
        assert code == 1
        assert out == ""
        assert "finite" in err

    def test_dim_flag_refused(self, capsys):
        # the dimension is the matrix size; there is no second source for it
        with pytest.raises(SystemExit) as exc:
            main(["thresholds", "--inline", IDENT, "--dim", "3",
                  "--chi", "1", "--mass", "1", "--moment", "1e-5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --dim 3" in capsys.readouterr().err

    def test_missing_source_exit_one(self, capsys, no_matrix_message):
        code, out, err = run_cli(capsys, "thresholds", "--chi", "1", "--mass", "1", "--moment", "1")
        assert (code, out, err) == (1, "", f"error: {no_matrix_message}\n")

    @pytest.mark.parametrize("n, c_bl", [(4, "0.00316628698882"), (5, "0.012174683669")])
    def test_dimension_is_the_matrix_size(self, capsys, n, c_bl):
        ident = ",".join("1" if i % (n + 1) == 0 else "0" for i in range(n * n))
        code, out, _ = run_cli(
            capsys, "thresholds", "--inline", ident, "--chi", "1", "--mass", "1", "--moment", "1e-5"
        )
        assert code == 0
        assert f"c_bl={c_bl}" in out

    @pytest.mark.parametrize("command", ["check-matrix", "thresholds"])
    def test_help_notes_inline_equals(self, capsys, command):
        # both read the matrix from the same options, so both show how to pass a leading minus
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "--inline=..." in capsys.readouterr().out

    def test_default_dimension_below_three_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "thresholds", "--inline", "1,0,0,1",
            "--chi", "1", "--mass", "1", "--moment", "1e-5",
        )
        assert code == 1
        assert out == ""
        assert "dimension must be >= 3" in err

    def test_zero_chi_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "thresholds", "--inline", IDENT,
            "--chi", "0", "--mass", "1", "--moment", "1e-5",
        )
        assert code == 1
        assert "chi" in err


SMALL_CFG = """
matrix = 1,0,0,0,1,0,0,0,1
chi = 0.0
n_cells = 32
half_width = 10.0
init = gaussian
mass = 1.0
sigma = 1.0
t_end = 0.1
dt_max = 0.02
diagnostics_every = 5
"""


class TestSimulate:
    def test_completed_run_exit_zero(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CFG)
        outdir = tmp_path / "out"
        code, out, _ = run_cli(capsys, "simulate", str(cfg), "--output", str(outdir))
        assert code == 0
        assert "status=CompletedToTEnd" in out
        assert (outdir / "diagnostics.csv").exists()
        assert (outdir / "outcome.txt").exists()

    def test_blowup_run_exit_three(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            SMALL_CFG.replace("chi = 0.0", "chi = 300.0")
            .replace("half_width = 10.0", "half_width = 6.0")
            .replace("t_end = 0.1", "t_end = 2.0")
            + "blowup_factor = 1.5\n"
        )
        code, out, _ = run_cli(capsys, "simulate", str(cfg))
        assert code == 3
        assert "status=NumericalBlowup" in out

    def test_invalid_config_exit_one(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CFG + "cfl = 2.0\n")
        code, _, err = run_cli(capsys, "simulate", str(cfg))
        assert code == 1
        assert "cfl" in err

    def test_file_init_without_path_exit_one(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CFG.replace("init = gaussian", "init = file"))
        code, _, err = run_cli(capsys, "simulate", str(cfg))
        assert code == 1
        assert "init_file" in err

    def test_missing_config_exit_one(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "simulate", str(tmp_path / "nope.cfg"))
        assert code == 1

    def test_snapshot_meta_without_n_cells_exit_one(self, capsys, tmp_path):
        snap = tmp_path / "u0.bin"
        np.zeros(32**3).tofile(snap)
        (tmp_path / "u0.bin.meta").write_text("half_width=10.0\ntime=0.0\nfield=u\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CFG.replace("init = gaussian", "init = file\ninit_file = u0.bin"))
        code, _, err = run_cli(capsys, "simulate", str(cfg))
        assert code == 1
        assert err.startswith("error:") and "n_cells" in err


class TestVerify:
    def test_potential_oracle_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "potential-oracle")
        assert code == 0
        assert "PASS" in out
        assert "FAIL" not in out
        assert "margin=" in out

    def test_all_suites_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "all")
        lines = out.splitlines()
        assert code == 0
        assert sum(line.startswith("PASS ") for line in lines) == 49
        assert lines[-1] == "49/49 cases passed"

    def test_verbose_logs_one_line_per_suite(self, capsys, caplog):
        with caplog.at_level(logging.INFO, logger="kstensor.verify"):
            code, _, _ = run_cli(capsys, "-v", "verify", "potential-oracle")
        assert code == 0
        lines = [r.getMessage() for r in caplog.records if r.name == "kstensor.verify"]
        assert len(lines) == 1
        assert re.fullmatch(r"suite potential-oracle: 5 cases run, 5 passed, \d+\.\d ms", lines[0])

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "nonsense"])


class TestCalibrateCn:
    def test_reports_infimum(self, capsys):
        code, out, _ = run_cli(capsys, "calibrate-cn")
        assert code == 0
        value = float(out.strip().split("c_n=")[1])
        assert value == pytest.approx(0.4607, abs=2e-3)
