import collections
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vauf.config import ConfigError, build_scenario, parse_scenario, parse_scenario_text, scenario_to_text
from vauf.runtime import Scenario

from conftest import SCENARIO_DIR

# each probe is out of range for its key; the error must name that key
INVALID_VALUES = [
    "camera.noise_sigma=-1",
    "camera.noise_sigma=-1e-9",
    "camera.noise_sigma=nan",
    "run.duration=nan",
    "monitor.alpha=nan",
    "surface.k_n=nan",
    "policy.frequency=inf",
    "run.dt_control=inf",
    "controller.k_max=nan,1,1,1,1,1",
    "run.dt_perception=nan",
    "surface.period=0",
    "surface.period=-0.1",
    "plant.mass=5,5,5,0.3,0,0.3",
    "plant.mass=-5,5,5,0.3,0.3,0.3",
    "plant.tool_radius=0",
    "tanks.impedance.s0=50",
    "tanks.force.s0=12.5",
    "tanks.force.s0=-2",
    "tanks.force.s0=0.5",
    # keys that no longer exist: a flat surface is amplitude 0, a tank starts at s0 J
    "surface.kind=flat",
    "tanks.force.x0=2",
    "tanks.impedance.x0=10",
    "tanks.force.x0=5",
    "tanks.force.x0=-2",
    "tanks.force.s_lower=3",
    "tanks.impedance.s_lower=-1",
    "tanks.impedance.ramp_eps=0",
    "run.duration=0.0105",
    "run.start_x=0.5",
    "run.start_y=0.4",
    "surface.d_n=-50",
    "surface.k_n=0",
    "surface.mu=-0.1",
    "camera.range_min=0",
    "camera.range_min=-1",
    "camera.range_max=0.04",
    "camera.fov_deg=180,45",
    "camera.cols=7",
    "camera.rows=4",
    "monitor.rho_trigger=-1",
    "monitor.rho_trigger=1.5",
    "monitor.c_margin=0",
    "monitor.rho_min=-1",
    "monitor.delta_c=0",
    "perception.min_segment_size=0",
    "perception.k=4",
    "perception.k=769",
    "perception.min_segment_size=769",
    "perception.angle_thresh_deg=90",
    "run.seed=-3",
    "controller.integral_limit=-1",
    "controller.damping_coeffs=0.7,0.7,-0.7,1,1,1",
    "controller.k_max=1000,1000,10,-200,200,200",
    "controller.k_p=-0.6",
    "controller.k_i=-0.3",
    "controller.k_p=0.6,0.6,0.6,0.6,0.6,0.6",
    "controller.k_i=0.3,0.3,0.3,0.3,0.3,0.3",
    "controller.filter_time=0",
    "monitor.alpha=-1",
    "monitor.xi=-0.08",
    "monitor.gamma=-10",
]


class TestParsing:
    def test_defaults_from_empty_text(self):
        sc = parse_scenario_text("")
        assert sc.duration == 20.0
        assert sc.surface.amplitude == 0.02
        assert sc.tank_impedance.s0 == 24.5

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

    @pytest.mark.parametrize("probe", INVALID_VALUES)
    def test_invalid_value_named(self, probe):
        key = probe.partition("=")[0]
        with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
            parse_scenario_text(probe)

    @pytest.mark.parametrize("key", ["surface.kind", "tanks.force.x0", "tanks.impedance.x0"])
    def test_removed_key_named_with_its_line(self, key):
        text = f"# an older scenario file\nrun.seed = 3\n{key} = 2\n"
        with pytest.raises(ConfigError, match=f"^old.cfg:3: unknown key '{key}'$".replace(".", r"\.")):
            parse_scenario_text(text, source="old.cfg")

    def test_repeated_key_named_with_both_lines(self):
        text = "# seed twice\nrun.seed = 3\nsurface.mu = 0.2\nrun.seed = 4\n"
        with pytest.raises(ConfigError, match=r"^twice\.cfg:4: key 'run\.seed' is set again, first set on line 2$"):
            parse_scenario_text(text, source="twice.cfg")

    def test_perception_sizes_up_to_the_frame_accepted(self):
        # the default 32 x 24 frame has 768 pixels; 769 is rejected above
        sc = parse_scenario_text("perception.k = 768\nperception.min_segment_size = 768")
        assert sc.perception.k == sc.perception.min_segment_size == 768

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


# SHA-256 prefixes of scenario_to_text: the resolved copy written next to each
# run must not change its bytes unless the key set or the format does.
RESOLVED_TEXT_DIGESTS = {
    "default": "a94132ae023a17be",
    "duration-seed-tilt": "89c5837f98f29029",
    "reference.cfg": "920a8708015d7536",
    "flat_steady.cfg": "4f6db5380f2d298d",
    "negative_control.cfg": "e5c8e582cc24f1b8",
}
PYTHON_SCENARIOS = {"default": {}, "duration-seed-tilt": dict(duration=7.5, seed=11, start_tilt_deg=12.0)}


@pytest.mark.parametrize("case", sorted(RESOLVED_TEXT_DIGESTS))
def test_resolved_text_pinned(case):
    sc = parse_scenario(SCENARIO_DIR / case) if case.endswith(".cfg") else Scenario(**PYTHON_SCENARIOS[case])
    text = scenario_to_text(sc)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == RESOLVED_TEXT_DIGESTS[case]
    assert parse_scenario_text(text) == sc


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _vector(n, lo, hi):
    return st.lists(_finite(lo, hi), min_size=n, max_size=n).map(lambda v: ",".join(map(repr, v)))


@st.composite
def _tank(draw, section):
    s_lower = draw(_finite(0.0, 10.0))
    s_upper = s_lower + draw(_finite(0.01, 50.0))
    s0 = s_lower + draw(_finite(0.01, 0.99)) * (s_upper - s_lower)
    return {
        f"{section}.s0": repr(s0),
        f"{section}.s_upper": repr(s_upper),
        f"{section}.s_lower": repr(s_lower),
        f"{section}.ramp_eps": repr(draw(_finite(1e-3, 1.0))),
    }


@st.composite
def _frame(draw):
    cols, rows = draw(st.integers(8, 256)), draw(st.integers(8, 256))
    pixels = cols * rows
    return {
        "camera.cols": str(cols),
        "camera.rows": str(rows),
        "perception.k": str(draw(st.integers(5, min(100, pixels)))),
        "perception.min_segment_size": str(draw(st.integers(1, min(1000, pixels)))),
    }


@st.composite
def _cadence(draw):
    dt = draw(st.one_of(st.sampled_from([1e-3, 5e-4, 2e-3]), _finite(1e-4, 1e-2)))
    return {
        "run.dt_control": repr(dt),
        "run.dt_perception": repr(draw(st.integers(1, 1000)) * dt),
        "run.duration": repr(draw(st.integers(1, 10**6)) * dt),
    }


# valid text values per key; tanks, the camera frame with the perception
# sizes bounded by its pixel count, and the run cadence are drawn jointly below
KEY_VALUES = {
    "surface.amplitude": _finite(-0.05, 0.05).map(repr),
    "surface.period": _finite(1e-3, 1.0).map(repr),
    "surface.phase": _finite(-10.0, 10.0).map(repr),
    "surface.offset": _finite(-0.1, 0.1).map(repr),
    "surface.mu": _finite(0.0, 2.0).map(repr),
    "surface.k_n": _finite(1.0, 1e6).map(repr),
    "surface.d_n": _finite(0.0, 1e3).map(repr),
    "camera.fov_deg": _vector(2, 1.0, 179.0),
    "camera.noise_sigma": _finite(0.0, 0.01).map(repr),
    "camera.range_min": _finite(1e-3, 0.49).map(repr),
    "camera.range_max": _finite(0.5, 5.0).map(repr),
    "camera.mount_offset": _vector(3, -1.0, 1.0),
    "perception.angle_thresh_deg": _finite(0.01, 89.99).map(repr),
    "monitor.alpha": _finite(0.0, 100.0).map(repr),
    "monitor.xi": _finite(0.0, 100.0).map(repr),
    "monitor.gamma": _finite(0.0, 100.0).map(repr),
    "monitor.c_margin": _finite(1e-6, 10.0).map(repr),
    "monitor.rho_min": _finite(1e-6, 10.0).map(repr),
    "monitor.delta_c": _finite(1e-6, 10.0).map(repr),
    "monitor.rho_trigger": _finite(0.0, 1.0).map(repr),
    "controller.k_max": _vector(6, 0.0, 1e3),
    "controller.damping_coeffs": _vector(6, 0.0, 10.0),
    "controller.k_p": _finite(0.0, 10.0).map(repr),
    "controller.k_i": _finite(0.0, 10.0).map(repr),
    "controller.integral_limit": _finite(0.0, 100.0).map(repr),
    "controller.filter_time": _finite(1e-3, 10.0).map(repr),
    "tanks.valves_forced_open": st.sampled_from(["true", "false", "yes", "no", "1", "0"]),
    "policy.amplitude": _finite(0.0, 0.1).map(repr),
    "policy.frequency": _finite(-10.0, 10.0).map(repr),
    "policy.drift": _finite(-0.1, 0.1).map(repr),
    "policy.force_z": _finite(0.0, 100.0).map(repr),
    "plant.mass": _vector(6, 1e-3, 100.0),
    "plant.tool_radius": _finite(1e-4, 0.1).map(repr),
    "run.seed": st.integers(0, 2**63).map(str),
    "run.start_x": _finite(-0.13, 0.13).map(repr),
    "run.start_y": _finite(-0.255, 0.255).map(repr),
    "run.start_height": _finite(-0.01, 0.5).map(repr),
    "run.start_tilt_deg": _finite(-90.0, 90.0).map(repr),
}
SCENARIO_TEXT = st.tuples(
    st.fixed_dictionaries(KEY_VALUES), _frame(), _tank("tanks.force"), _tank("tanks.impedance"), _cadence()
).map(lambda parts: "\n".join(f"{k} = {v}" for part in parts for k, v in part.items()))


@settings(max_examples=150, deadline=None)
@given(SCENARIO_TEXT)
def test_parse_write_parse_is_exact(text):
    sc = parse_scenario_text(text)
    written = scenario_to_text(sc)
    back = parse_scenario_text(written)
    assert back == sc
    assert scenario_to_text(back) == written
    keys = collections.Counter(line.partition(" = ")[0] for line in written.splitlines()[1:])
    assert len(keys) == 53 and set(keys.values()) == {1}
    assert sorted(keys) == sorted(line.partition(" = ")[0] for line in text.splitlines())


class TestBuildScenario:
    def test_tank_overrides(self):
        sc = build_scenario({"tanks.force.s0": 1.5, "tanks.impedance.ramp_eps": 0.5})
        assert sc.tank_force.s0 == 1.5
        assert sc.tank_impedance.ramp_eps == 0.5

    def test_camera_fov_degrees(self):
        sc = build_scenario({"camera.fov_deg": (40.0, 30.0)})
        assert sc.camera.fov_h == pytest.approx(np.deg2rad(40.0))
        assert sc.camera.fov_v == pytest.approx(np.deg2rad(30.0))
