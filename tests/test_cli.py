import contextlib
import logging
import os
import subprocess
import sys

import numpy as np
import pytest

from vauf.cli import EXIT_ABORT, EXIT_AUDIT, EXIT_CONFIG, EXIT_OK, main
from vauf.surface import HeightField
from vauf.telemetry import read_csv

from conftest import SCENARIO_DIR

ROOT = SCENARIO_DIR.parent

REF = str(SCENARIO_DIR / "reference.cfg")


@pytest.fixture(scope="module")
def short_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = main(["run", "--scenario", REF, "--duration", "1.5", "--out", str(out)])
    assert code == EXIT_OK
    return out


class TestRun:
    def test_outputs_written(self, short_run):
        assert (short_run / "telemetry.csv").exists()
        assert (short_run / "report.txt").exists()
        assert (short_run / "scenario.cfg").exists()
        assert len(read_csv(short_run / "telemetry.csv")) == 1500

    def test_missing_scenario_exits_2(self, capsys):
        assert main(["run", "--scenario", "/tmp/nope.cfg", "--out", "/tmp/x"]) == EXIT_CONFIG
        assert "nope.cfg" in capsys.readouterr().err

    def test_bad_key_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("surface.wat = 1\n")
        assert main(["run", "--scenario", str(bad), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "surface.wat" in capsys.readouterr().err

    def test_repeated_key_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "twice.cfg"
        bad.write_text("run.seed = 3\nrun.seed = 4\n")
        assert main(["run", "--scenario", str(bad), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "run.seed" in capsys.readouterr().err

    def test_bad_duration_override_exits_2(self, tmp_path, capsys):
        assert main(["run", "--scenario", REF, "--duration", "0.0105", "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "run.duration" in capsys.readouterr().err

    def test_negative_seed_override_exits_2(self, tmp_path, capsys):
        assert main(["run", "--scenario", REF, "--seed", "-1", "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "run.seed" in capsys.readouterr().err

    def test_audit_pass_exits_0(self, tmp_path):
        code = main(
            ["run", "--scenario", REF, "--duration", "1.0", "--out", str(tmp_path), "--audit"]
        )
        assert code == EXIT_OK

    def test_one_tick_audit_passes_with_no_tick_checked(self, tmp_path):
        code = main(["run", "--scenario", REF, "--duration", "0.001", "--out", str(tmp_path), "--audit"])
        assert code == EXIT_OK
        assert len(read_csv(tmp_path / "telemetry.csv")) == 1
        assert "passivity audit: PASS (0 violations over 0 ticks" in (tmp_path / "report.txt").read_text()

    def test_negative_control_audit_exits_4(self, tmp_path):
        neg = str(SCENARIO_DIR / "negative_control.cfg")
        code = main(
            ["run", "--scenario", neg, "--duration", "4.0", "--out", str(tmp_path), "--audit"]
        )
        assert code == EXIT_AUDIT

    def test_divergent_run_exits_3(self, tmp_path):
        cfg = tmp_path / "boom.cfg"
        cfg.write_text("policy.force_z = 1000000\nrun.start_height = 0.4\nrun.duration = 2.0\n")
        assert main(["run", "--scenario", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_ABORT

    def test_unusable_out_exits_2_before_running(self, tmp_path, monkeypatch, capsys):
        def no_run(scenario):
            raise AssertionError("run_scenario called with an unusable --out")

        monkeypatch.setattr("vauf.cli.run_scenario", no_run)
        (tmp_path / "afile").write_text("")
        out = tmp_path / "afile" / "x"
        assert main(["run", "--scenario", REF, "--out", str(out)]) == EXIT_CONFIG
        assert f"cannot create output directory {out}: " in capsys.readouterr().err

    def test_unwritable_telemetry_exits_2(self, tmp_path, capsys):
        (tmp_path / "telemetry.csv").mkdir()
        code = main(["run", "--scenario", REF, "--duration", "0.05", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert f"cannot write {tmp_path / 'telemetry.csv'}: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", ["telemetry.csv", "report.txt"])
    def test_unwritable_output_exits_2_before_running(self, name, tmp_path, monkeypatch, capsys):
        def no_run(scenario):
            raise AssertionError(f"run_scenario called with an unwritable {name}")

        monkeypatch.setattr("vauf.cli.run_scenario", no_run)
        (tmp_path / name).mkdir()
        assert main(["run", "--scenario", REF, "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"cannot write {tmp_path / name}: " in err
        assert "Traceback" not in err


class TestReport:
    def test_prints_sections(self, short_run, capsys):
        assert main(["report", str(short_run / "telemetry.csv")]) == EXIT_OK
        out = capsys.readouterr().out
        for key in ("position x", "force z", "tank energies", "rho_align", "rho_frc"):
            assert key in out

    def test_malformed_csv_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "t.csv"
        bad.write_text("garbage\n")
        assert main(["report", str(bad)]) == EXIT_CONFIG
        assert "row 1" in capsys.readouterr().err

    def test_truncated_row_reported(self, short_run, tmp_path, capsys):
        lines = (short_run / "telemetry.csv").read_text().splitlines()
        lines[5] = lines[5].rsplit(",", 1)[0]
        bad = tmp_path / "trunc.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["report", str(bad)]) == EXIT_CONFIG
        assert "row 6" in capsys.readouterr().err


class TestExportPlots:
    def test_four_tables_with_tick_rows(self, short_run):
        assert main(["export-plots", str(short_run / "telemetry.csv")]) == EXIT_OK
        names = ["trajectory_vs_surface.csv", "shaping.csv", "force.csv", "tanks.csv"]
        for name in names:
            lines = (short_run / name).read_text().splitlines()
            assert len(lines) == 1 + 1500  # header + one row per tick

    def test_surface_profile_matches_height(self, short_run):
        main(["export-plots", str(short_run / "telemetry.csv")])
        rows = np.loadtxt(short_run / "trajectory_vs_surface.csv", delimiter=",", skiprows=1)
        surf = HeightField()  # reference scenario surface
        h = surf.height_unchecked(np.zeros(len(rows)), rows[:, 0])
        # column 2 is h evaluated at the tool's (x, y); x stays near 0 early on
        assert np.abs(rows[:, 2] - h).max() < 5e-4

    def test_missing_scenario_exits_2(self, short_run, tmp_path, capsys):
        csv_copy = tmp_path / "telemetry.csv"
        csv_copy.write_bytes((short_run / "telemetry.csv").read_bytes())
        assert main(["export-plots", str(csv_copy)]) == EXIT_CONFIG

    def test_unusable_out_exits_2(self, short_run, tmp_path, capsys):
        (tmp_path / "afile").write_text("")
        out = tmp_path / "afile" / "x"
        assert main(["export-plots", str(short_run / "telemetry.csv"), "--out", str(out)]) == EXIT_CONFIG
        assert f"cannot create output directory {out}: " in capsys.readouterr().err

    def test_unwritable_table_exits_2(self, short_run, tmp_path, capsys):
        (tmp_path / "force.csv").mkdir()
        code = main(["export-plots", str(short_run / "telemetry.csv"), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert f"cannot write {tmp_path / 'force.csv'}: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["report", "export-plots"])
    def test_header_only_telemetry_exits_2(self, short_run, tmp_path, capsys, command):
        header = (short_run / "telemetry.csv").read_text().splitlines()[0]
        csv_path = tmp_path / "telemetry.csv"
        csv_path.write_text(header + "\n")
        (tmp_path / "scenario.cfg").write_bytes((short_run / "scenario.cfg").read_bytes())
        assert main([command, str(csv_path)]) == EXIT_CONFIG
        assert "telemetry is empty" in capsys.readouterr().err


@contextlib.contextmanager
def fresh_root_logger():
    """The root logger with no handlers, so basicConfig acts; its handlers and level restored on exit."""
    root = logging.getLogger()
    handlers, level = root.handlers[:], root.level
    root.handlers.clear()
    try:
        yield root
    finally:
        root.handlers[:] = handlers
        root.setLevel(level)


class TestLogLevelEnv:
    def test_log_level_respected(self, short_run, monkeypatch):
        monkeypatch.setenv("VAUF_LOG_LEVEL", "debug")
        with fresh_root_logger() as root:
            assert main(["report", str(short_run / "telemetry.csv")]) == EXIT_OK
            assert root.level == logging.DEBUG

    def test_log_level_respected_under_a_configured_root(self, short_run, monkeypatch):
        # a process that configured logging first: basicConfig then does nothing
        monkeypatch.setenv("VAUF_LOG_LEVEL", "debug")
        vauf_log, app_handler = logging.getLogger("vauf"), logging.NullHandler()
        vauf_level = vauf_log.level
        with fresh_root_logger() as root:
            root.addHandler(app_handler)
            try:
                assert main(["report", str(short_run / "telemetry.csv")]) == EXIT_OK
                assert vauf_log.getEffectiveLevel() == logging.DEBUG
                assert root.handlers == [app_handler]  # the app's handlers are kept
            finally:
                vauf_log.setLevel(vauf_level)

    def test_unknown_level_named_on_stderr(self, short_run, monkeypatch, capsys):
        monkeypatch.setenv("VAUF_LOG_LEVEL", "verbose")
        with fresh_root_logger() as root:
            assert main(["report", str(short_run / "telemetry.csv")]) == EXIT_OK
            assert root.level == logging.WARNING
        err = capsys.readouterr().err
        assert "'verbose'" in err and all(name in err for name in ("error", "warn", "info", "debug"))


class TestModuleEntry:
    @pytest.mark.parametrize(
        "scenario, duration, extra, code",
        [("negative_control.cfg", "0.61", ["--audit"], EXIT_AUDIT), ("flat_steady.cfg", "0.05", [], EXIT_OK)],
        ids=["negative_control_audit", "flat_steady"],
    )
    def test_process_exit_code(self, tmp_path, scenario, duration, extra, code):
        # main()'s return value reaches the process only through entry()'s sys.exit
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "vauf", "run", "--scenario", str(SCENARIO_DIR / scenario),
             "--duration", duration, *extra, "--out", str(tmp_path)],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == code, proc.stderr[-2000:]
