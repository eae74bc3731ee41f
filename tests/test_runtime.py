import math
import sys

import numpy as np
import pytest

import vauf.controller
import vauf.monitor
import vauf.runtime
import vauf.spatial
import vauf.surface
import vauf.tanks
from vauf.camera import CameraModel, EmptyViewError, render
from vauf.runtime import (
    PolicyConfig,
    Scenario,
    SimulationDiverged,
    plant_step,
    run_scenario,
    start_pose,
    wiping_policy,
)
from vauf.spatial import rotation_log
from vauf.telemetry import COLUMNS, rows_to_columns
from conftest import flat

POLICY = PolicyConfig()


class TestWipingPolicy:
    def test_start(self):
        offset, f_d_z = wiping_policy(0.0, POLICY)
        assert np.allclose(offset, 0.0)
        assert len(offset) == 2
        assert f_d_z == 15.0

    def test_quarter_period(self):
        t = np.pi / 2
        offset, _ = wiping_policy(t, POLICY)
        assert offset[0] == pytest.approx(0.04 * np.sin(np.pi), abs=1e-15)
        assert offset[1] == pytest.approx(0.04 * (np.cos(np.pi) - 1.0) - 0.005 * t, abs=1e-15)
        assert offset[1] == pytest.approx(-0.0879, abs=1e-4)

    def test_force_constant(self):
        for t in np.linspace(0.0, 20.0, 25):
            _, f_d_z = wiping_policy(t, POLICY)
            assert f_d_z == 15.0


M_DIAG = (5.0,) * 3 + (0.3,) * 3
EYE = flat(np.eye(3))
AT_REST = (EYE, (0.0,) * 3, (0.0,) * 6)  # (rotation, position, twist)


class TestPlantStep:
    def test_zero_wrench_uniform_motion(self):
        twist = (0.1, 0.0, 0.0, 0.0, 0.0, 0.0)
        _, position, out = plant_step(EYE, (0.0,) * 3, twist, (1.0,) * 6, (0.0,) * 6, (0.0,) * 6, 1e-3)
        assert np.allclose(out, twist)
        assert np.allclose(position, [0.1e-3, 0.0, 0.0])

    def test_constant_force_velocity(self):
        state = AT_REST
        f = (2.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        for _ in range(1000):
            state = plant_step(*state, (5.0,) * 6, f, (0.0,) * 6, 1e-3)
        assert state[2][0] == pytest.approx(2.0 / 5.0, rel=1e-3)

    def test_pure_rotation_integrates_to_half_turn(self):
        state = (EYE, (0.0,) * 3, (0.0, 0.0, 0.0, 0.0, 0.0, np.pi))
        for _ in range(1000):
            state = plant_step(*state, (1.0,) * 6, (0.0,) * 6, (0.0,) * 6, 1e-3)
        w = rotation_log(state[0])
        assert abs(np.linalg.norm(w) - np.pi) < 1e-6

    def test_inputs_left_unchanged(self):
        # the state is immutable tuples of floats, so the loop may alias them freely
        rotation, position, twist = EYE, (0.0,) * 3, (0.1, 0.0, 0.0, 0.0, 0.0, 0.2)
        out = plant_step(rotation, position, twist, M_DIAG, (1.0,) * 6, (0.0,) * 6, 1e-3)
        assert all(type(part) is tuple and all(type(x) is float for x in part) for part in out)
        assert [len(part) for part in out] == [9, 3, 6]
        assert rotation == EYE and position == (0.0,) * 3 and twist == (0.1, 0.0, 0.0, 0.0, 0.0, 0.2)

    def test_non_finite_aborts(self):
        bad = (np.nan, 0.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(SimulationDiverged):
            plant_step(*AT_REST, M_DIAG, bad, (0.0,) * 6, 1e-3)

    @pytest.mark.parametrize(
        "f_cmd, f_ext",
        [
            ((0.0,) * 6, (0.0, math.inf, 0.0, 0.0, 0.0, 0.0)),
            ((0.0, 0.0, 0.0, 0.0, -math.inf, 0.0), (0.0,) * 6),
            ((0.0, 0.0, math.inf, 0.0, 0.0, 0.0), (0.0, 0.0, -math.inf, 0.0, 0.0, 0.0)),  # inf - inf is nan
            ((0.0, 1e308, 0.0, 0.0, 0.0, 0.0), (0.0, 1e308, 0.0, 0.0, 0.0, 0.0)),  # overflows to inf
        ],
        ids=["inf-f_ext-force", "minus-inf-f_cmd-torque", "inf-against-minus-inf", "overflow-on-one-axis"],
    )
    def test_non_finite_component_aborts(self, f_cmd, f_ext):
        with pytest.raises(SimulationDiverged):
            plant_step(*AT_REST, M_DIAG, f_cmd, f_ext, 1e-3)

    def test_finite_components_with_overflowing_sum_step(self):
        # each component of f_cmd + f_ext is finite, only their six-term sum is not
        f_cmd = (1e308, 1e308, 0.0, 0.0, 0.0, 0.0)
        f_ext = (0.0, 0.0, 1e308, 0.0, 0.0, 0.0)
        assert math.isinf(sum(f_cmd) + sum(f_ext))
        _, position, twist = plant_step(*AT_REST, M_DIAG, f_cmd, f_ext, 1e-3)
        assert all(map(math.isfinite, position + twist))


class TestScenario:
    def test_cadence_must_divide(self):
        with pytest.raises(ValueError):
            Scenario(dt_control=1e-3, dt_perception=2.5e-4 * 1.3)

    def test_perception_stride(self):
        assert Scenario().perception_stride == 300

    def test_start_pose_height(self):
        sc = Scenario(start_x=0.0, start_y=0.0, start_height=0.05, start_tilt_deg=0.0)
        p = start_pose(sc)
        h0 = float(sc.surface.height_unchecked(0.0, 0.0))
        assert p.position[2] == pytest.approx(h0 + sc.tool_radius + 0.05)


class TestRunScenario:
    def test_short_run_completes_with_full_telemetry(self):
        sc = Scenario(duration=1.2, start_height=0.005, start_y=0.0684)
        res = run_scenario(sc)
        assert res.completed
        assert res.table.shape == (1200, len(COLUMNS))
        t = rows_to_columns(res.table)["t"]
        assert np.allclose(np.diff(t), sc.dt_control)

    def test_determinism_bit_exact(self):
        sc = Scenario(duration=1.5, seed=3, start_height=0.005, start_y=0.0684)
        a = run_scenario(sc)
        b = run_scenario(sc)
        assert a.table.shape == b.table.shape
        assert a.table.tobytes() == b.table.tobytes()

    def test_tick_calls_no_comprehension(self):
        # before Python 3.12 (PEP 709) every comprehension is a nested function
        # call, which the tick writes out per component instead; the Scenario
        # checks run a few once per run, so the count must not grow with ticks
        tick_files = {
            module.__file__
            for module in (vauf.runtime, vauf.controller, vauf.tanks, vauf.monitor, vauf.spatial, vauf.surface)
        }
        names = {"<listcomp>", "<genexpr>", "<setcomp>", "<dictcomp>"}

        def comprehension_calls(duration):
            calls = 0

            def profile(frame, event, arg):
                nonlocal calls
                if event == "call" and frame.f_code.co_name in names and frame.f_code.co_filename in tick_files:
                    calls += 1

            previous = sys.getprofile()
            sys.setprofile(profile)
            try:
                res = run_scenario(Scenario(duration=duration, start_height=-0.001, start_y=0.0684))
            finally:
                sys.setprofile(previous)
            assert res.completed and len(res.table) == round(duration * 1000)
            assert np.any(rows_to_columns(res.table)["fext_ee_fz"] != 0.0)  # the contact branch runs
            return calls

        assert comprehension_calls(0.10) == comprehension_calls(0.05)

    def test_initial_compliance_event(self):
        sc = Scenario(duration=0.5)
        res = run_scenario(sc)
        assert res.realignment_events[:1] == [0.0]

    def test_quaternion_unit_norm(self):
        sc = Scenario(duration=0.8)
        res = run_scenario(sc)
        c = rows_to_columns(res.table)
        for q in np.stack([c["qw"], c["qx"], c["qy"], c["qz"]], axis=1)[::100]:
            assert abs(np.linalg.norm(q) - 1.0) < 1e-6

    def test_camera_that_never_sees_the_patch(self, monkeypatch):
        # 6 cm of range from a camera mounted above the tool: every frame is an empty view
        raised = []

        def counted_render(*args, **kwargs):
            try:
                return render(*args, **kwargs)
            except EmptyViewError as exc:
                raised.append(exc)
                raise

        monkeypatch.setattr(vauf.runtime, "render", counted_render)
        sc = Scenario(camera=CameraModel(range_max=0.06), duration=1.0)
        res = run_scenario(sc)
        assert len(raised) == 3  # the perception ticks at t = 0, 0.3 and 0.6 s; 0.9 s renders nothing
        assert res.completed
        assert res.table.shape == (1000, len(COLUMNS))
        c = rows_to_columns(res.table)
        for name in ("perception_fresh", "theta", "l_s"):
            assert not c[name].any(), name
        for col, tank in (("S_t_i", sc.tank_impedance), ("S_t_f", sc.tank_force)):
            assert tank.s_lower <= c[col].min() and c[col].max() <= tank.s_upper

    def test_every_rendered_frame_is_perceived(self, reference_scenario, monkeypatch):
        # the last perception tick renders no frame: no later tick would perceive it
        calls = {"render": 0, "perceive": 0}

        def counted(name):
            original = getattr(vauf.runtime, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(vauf.runtime, name, call)

        counted("render")
        counted("perceive")
        res = run_scenario(reference_scenario)
        assert res.completed
        assert calls["render"] == calls["perceive"] == len(res.table) // reference_scenario.perception_stride

    def test_divergence_aborts_with_reason(self):
        # absurd negative damping is not reachable via config; instead use a
        # pathological policy force to blow the plant up
        sc = Scenario(duration=2.0, policy=PolicyConfig(force_z=1e6), start_height=0.4)
        res = run_scenario(sc)
        assert not res.completed
        assert "twist norm" in res.abort_reason or "non-finite" in res.abort_reason
