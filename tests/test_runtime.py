import numpy as np
import pytest

from vauf.runtime import (
    PlantState,
    PolicyConfig,
    Scenario,
    SimulationDiverged,
    plant_step,
    run_scenario,
    start_pose,
    wiping_policy,
)
from vauf.spatial import Pose, rotation_log
from vauf.surface import HeightField

POLICY = PolicyConfig()


class TestWipingPolicy:
    def test_start(self):
        offset, f_d = wiping_policy(0.0, POLICY)
        assert np.allclose(offset, 0.0)
        assert f_d[2] == 15.0
        assert f_d.shape == (6,)

    def test_quarter_period(self):
        t = np.pi / 2
        offset, _ = wiping_policy(t, POLICY)
        assert offset[0] == pytest.approx(0.04 * np.sin(np.pi), abs=1e-15)
        assert offset[1] == pytest.approx(0.04 * (np.cos(np.pi) - 1.0) - 0.005 * t, abs=1e-15)
        assert offset[1] == pytest.approx(-0.0879, abs=1e-4)

    def test_force_constant(self):
        for t in np.linspace(0.0, 20.0, 25):
            _, f_d = wiping_policy(t, POLICY)
            assert np.allclose(f_d, [0, 0, 15, 0, 0, 0])


class TestPlantStep:
    def _state(self, m=None):
        return PlantState(
            pose=Pose(np.eye(3), np.zeros(3)),
            twist=np.zeros(6),
            m_diag=np.asarray(m if m is not None else [5.0] * 3 + [0.3] * 3),
        )

    def test_zero_wrench_uniform_motion(self):
        st = PlantState(Pose(np.eye(3), np.zeros(3)), np.array([0.1, 0, 0, 0, 0, 0]), np.ones(6))
        out = plant_step(st, np.zeros(6), np.zeros(6), 1e-3)
        assert np.allclose(out.twist, st.twist)
        assert np.allclose(out.pose.position, [0.1e-3, 0.0, 0.0])

    def test_constant_force_velocity(self):
        st = self._state(m=[5.0] * 6)
        f = np.array([2.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        for _ in range(1000):
            st = plant_step(st, f, np.zeros(6), 1e-3)
        assert st.twist[0] == pytest.approx(2.0 / 5.0, rel=1e-3)

    def test_pure_rotation_integrates_to_half_turn(self):
        st = PlantState(
            Pose(np.eye(3), np.zeros(3)),
            np.array([0.0, 0.0, 0.0, 0.0, 0.0, np.pi]),
            np.ones(6),
        )
        for _ in range(1000):
            st = plant_step(st, np.zeros(6), np.zeros(6), 1e-3)
        w = rotation_log(st.pose.rotation)
        assert abs(np.linalg.norm(w) - np.pi) < 1e-6

    def test_non_finite_aborts(self):
        st = self._state()
        bad = np.array([np.nan, 0.0, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(SimulationDiverged):
            plant_step(st, bad, np.zeros(6), 1e-3)

    def test_bad_dt(self):
        with pytest.raises(ValueError):
            plant_step(self._state(), np.zeros(6), np.zeros(6), 0.0)


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
        assert len(res.rows) == 1200
        t = np.array([r.t for r in res.rows])
        assert np.allclose(np.diff(t), sc.dt_control)

    def test_determinism_bit_exact(self):
        sc = Scenario(duration=1.5, seed=3, start_height=0.005, start_y=0.0684)
        a = run_scenario(sc)
        b = run_scenario(sc)
        assert len(a.rows) == len(b.rows)
        for ra, rb in zip(a.rows, b.rows):
            assert ra == rb

    def test_initial_compliance_event(self):
        sc = Scenario(duration=0.5)
        res = run_scenario(sc)
        assert res.realignment_events[:1] == [0.0]

    def test_quaternion_unit_norm(self):
        sc = Scenario(duration=0.8)
        res = run_scenario(sc)
        for row in res.rows[::100]:
            q = np.array([row.qw, row.qx, row.qy, row.qz])
            assert abs(np.linalg.norm(q) - 1.0) < 1e-6

    def test_divergence_aborts_with_reason(self):
        # absurd negative damping is not reachable via config; instead use a
        # pathological policy force to blow the plant up
        sc = Scenario(duration=2.0, policy=PolicyConfig(force_z=1e6), start_height=0.4)
        res = run_scenario(sc)
        assert not res.completed
        assert "twist norm" in res.abort_reason or "non-finite" in res.abort_reason
