import numpy as np
import pytest

from vauf.config import ConfigError, build_scenario, parse_scenario, parse_scenario_text, scenario_to_text
from vauf.runtime import Scenario

from conftest import SCENARIO_DIR


class TestParsing:
    def test_defaults_from_empty_text(self):
        sc = parse_scenario_text("")
        assert sc.duration == 20.0
        assert sc.surface.kind == "sinusoid"
        assert sc.tank_impedance.energy == pytest.approx(24.5)

    def test_reference_file(self):
        sc = parse_scenario(SCENARIO_DIR / "reference.cfg")
        assert sc.monitor.rho_min == 0.1
        assert sc.camera.noise_sigma == 0.001
        assert sc.start_y == 0.0684
        assert sc.controller.k_max == (1000.0, 1000.0, 10.0, 200.0, 200.0, 200.0)

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="surface.bogus"):
            parse_scenario_text("surface.bogus = 3")

    def test_bad_value_named(self):
        with pytest.raises(ConfigError, match="surface.mu"):
            parse_scenario_text("surface.mu = sticky")

    def test_vector_length_checked(self):
        with pytest.raises(ConfigError, match="controller.k_max"):
            parse_scenario_text("controller.k_max = 1,2,3")

    def test_comments_and_blanks_ignored(self):
        sc = parse_scenario_text("# comment\n\nrun.seed = 9\n")
        assert sc.seed == 9

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="no_such"):
            parse_scenario("/tmp/no_such_scenario_file.cfg")

    def test_bool_parsing(self):
        assert parse_scenario_text("tanks.valves_forced_open = true").valves_forced_open
        assert not parse_scenario_text("tanks.valves_forced_open = false").valves_forced_open
        with pytest.raises(ConfigError):
            parse_scenario_text("tanks.valves_forced_open = maybe")

    def test_invalid_combination_rejected(self):
        with pytest.raises(ConfigError):
            parse_scenario_text("run.dt_perception = 0.00037")

    @pytest.mark.parametrize("value", ["-1", "-1e-9", "nan"])
    def test_negative_noise_sigma_named(self, value):
        with pytest.raises(ConfigError, match="camera.noise_sigma"):
            parse_scenario_text(f"camera.noise_sigma = {value}")

    def test_zero_noise_sigma_accepted(self):
        assert parse_scenario_text("camera.noise_sigma = 0").camera.noise_sigma == 0.0


class TestRoundTrip:
    def test_serialize_parse_identity(self):
        sc = Scenario(duration=7.5, seed=11, start_tilt_deg=12.0)
        text = scenario_to_text(sc)
        back = parse_scenario_text(text)
        assert back == sc

    def test_reference_round_trip(self):
        sc = parse_scenario(SCENARIO_DIR / "reference.cfg")
        assert parse_scenario_text(scenario_to_text(sc)) == sc


class TestBuildScenario:
    def test_tank_overrides(self):
        sc = build_scenario({"tanks.force.x0": 1.5, "tanks.impedance.ramp_eps": 0.5})
        assert sc.tank_force.x_t == 1.5
        assert sc.tank_impedance.ramp_eps == 0.5

    def test_camera_fov_degrees(self):
        sc = build_scenario({"camera.fov_deg": (40.0, 30.0)})
        assert sc.camera.fov_h == pytest.approx(np.deg2rad(40.0))
        assert sc.camera.fov_v == pytest.approx(np.deg2rad(30.0))
