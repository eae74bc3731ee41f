import numpy as np
import pytest

from vauf.cli import EXIT_ABORT, EXIT_AUDIT, EXIT_CONFIG, EXIT_OK, main
from vauf.surface import HeightField
from vauf.telemetry import read_csv

from conftest import SCENARIO_DIR

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

    @pytest.mark.parametrize("command", ["report", "export-plots"])
    def test_header_only_telemetry_exits_2(self, short_run, tmp_path, capsys, command):
        header = (short_run / "telemetry.csv").read_text().splitlines()[0]
        csv_path = tmp_path / "telemetry.csv"
        csv_path.write_text(header + "\n")
        (tmp_path / "scenario.cfg").write_bytes((short_run / "scenario.cfg").read_bytes())
        assert main([command, str(csv_path)]) == EXIT_CONFIG
        assert "telemetry is empty" in capsys.readouterr().err


class TestLogLevelEnv:
    def test_log_level_respected(self, short_run, monkeypatch):
        import logging

        monkeypatch.setenv("VAUF_LOG_LEVEL", "debug")
        logging.getLogger().handlers.clear()
        assert main(["report", str(short_run / "telemetry.csv")]) == EXIT_OK
        assert logging.getLogger().level in (logging.DEBUG, logging.WARNING)
