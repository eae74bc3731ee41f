import numpy as np
import pytest

from vauf.controller import (
    ControllerConfig,
    ControllerState,
    D_FLOOR,
    compose_command,
    damping_matrix,
    desired_orientation,
    force_wrench,
    impedance_wrench,
    orientation_filter,
    restart_filter,
    stiffness_from_alignment,
    variable_stiffness,
)
from vauf.spatial import Pose, pose_error, rotation_power, rotation_x, rotation_z
from conftest import random_rotation

TABLE = ControllerConfig()


def ee_force_z(fz):
    return np.array([0.0, 0.0, fz, 0.0, 0.0, 0.0])


class TestStiffness:
    def test_full_alignment_identity_frame(self):
        k = stiffness_from_alignment(1.0, np.eye(3), np.array([1000.0, 1000.0, 10.0]))
        assert np.allclose(k, np.diag([1000.0, 1000.0, 10.0]))

    def test_zero_alignment(self):
        k = stiffness_from_alignment(0.0, rotation_z(0.3), np.array([1000.0, 1000.0, 10.0]))
        assert np.allclose(k, 0.0)

    def test_conjugation_by_quarter_turn(self):
        k = stiffness_from_alignment(1.0, rotation_x(np.pi / 2), np.array([1000.0, 1000.0, 10.0]))
        assert np.allclose(k, np.diag([1000.0, 10.0, 1000.0]), atol=1e-9)

    def test_psd_with_scaled_eigenvalues(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            r = random_rotation(rng)
            rho = rng.uniform(0.0, 1.0)
            k = stiffness_from_alignment(rho, r, np.array([1000.0, 1000.0, 10.0]))
            assert np.abs(k - k.T).max() < 1e-9
            vals = np.sort(np.linalg.eigvalsh(k))
            assert np.allclose(vals, np.sort(rho * np.array([1000.0, 1000.0, 10.0])), atol=1e-6)

    def test_variable_stiffness_rotational_block_constant(self):
        k = variable_stiffness(0.25, np.eye(3), TABLE)
        assert np.allclose(np.diag(k)[:3], [250.0, 250.0, 2.5])
        assert np.allclose(np.diag(k)[3:], [200.0, 200.0, 200.0])


class TestDamping:
    def test_square_root_design(self):
        k = np.diag([1000.0, 1000.0, 1000.0, 0.0, 0.0, 0.0])
        m = np.diag([5.0] * 6)
        d = damping_matrix(k, m, np.array([0.7] * 6))
        assert d[0, 0] == pytest.approx(2 * 0.7 * np.sqrt(5000.0) + D_FLOOR, abs=1e-9)

    def test_floor_at_zero_stiffness(self):
        d = damping_matrix(np.zeros((6, 6)), np.diag([5.0] * 6), np.array([0.7] * 6))
        assert np.allclose(np.diag(d), D_FLOOR)

    def test_sqrt_scaling(self):
        m = np.diag([5.0] * 6)
        c = np.array([0.7] * 6)
        d1 = damping_matrix(np.diag([100.0] * 6), m, c)
        d2 = damping_matrix(np.diag([200.0] * 6), m, c)
        ratio = (d2[0, 0] - D_FLOOR) / (d1[0, 0] - D_FLOOR)
        assert ratio == pytest.approx(np.sqrt(2.0), abs=1e-12)


class TestImpedanceWrench:
    def test_zero(self):
        out = impedance_wrench(np.zeros(6), np.zeros(6), np.zeros((6, 6)), np.zeros((6, 6)))
        assert np.allclose(out, 0.0)

    def test_spring_term(self):
        k = np.diag([1000.0] * 3 + [0.0] * 3)
        out = impedance_wrench(np.array([0.01, 0, 0, 0, 0, 0]), np.zeros(6), k, np.zeros((6, 6)))
        assert out[0] == pytest.approx(-10.0)

    def test_damping_term(self):
        d = np.diag([0.0, 100.0, 0.0, 0.0, 0.0, 0.0])
        out = impedance_wrench(np.zeros(6), np.array([0, 0.1, 0, 0, 0, 0]), np.zeros((6, 6)), d)
        assert out[1] == pytest.approx(-10.0)


class TestForceWrench:
    def test_zero_error_pass_through(self):
        state = ControllerState()
        f_d = ee_force_z(15.0)
        out = force_wrench(f_d, f_d, state, np.eye(3), 1e-3, TABLE)
        assert np.allclose(out, f_d)

    def test_proportional_correction(self):
        state = ControllerState()
        out = force_wrench(ee_force_z(15.0), ee_force_z(20.0), state, np.eye(3), 1e-3, TABLE)
        assert out[2] == pytest.approx(15.0 + 0.6 * 5.0, abs=1e-12)

    def test_rotation_to_base(self):
        state = ControllerState()
        out = force_wrench(ee_force_z(15.0), ee_force_z(20.0), state, rotation_x(np.pi / 2), 1e-3, TABLE)
        assert np.allclose(out[:3], [0.0, -18.0, 0.0], atol=1e-12)

    def test_integral_clamped(self):
        state = ControllerState()
        f_d = ee_force_z(15.0)
        f_ext = np.zeros(6)
        for _ in range(5000):
            force_wrench(f_d, f_ext, state, np.eye(3), 1e-2, TABLE)
            assert np.abs(state.pi_integral).max() <= TABLE.integral_limit + 1e-12

    def test_integral_opposes_persistent_over_press(self):
        # sustained over-press must wind the command down, not up
        state = ControllerState()
        f_d, f_ext = ee_force_z(15.0), ee_force_z(20.0)
        first = force_wrench(f_d, f_ext, state, np.eye(3), 1e-3, TABLE)[2]
        for _ in range(2000):
            last = force_wrench(f_d, f_ext, state, np.eye(3), 1e-3, TABLE)[2]
        assert last < first

    def test_bad_dt(self):
        with pytest.raises(ValueError):
            force_wrench(np.zeros(6), np.zeros(6), ControllerState(), np.eye(3), 0.0, TABLE)


class TestDesiredOrientation:
    def test_already_aligned(self):
        assert np.allclose(desired_orientation(np.array([0.0, 0.0, 1.0]), np.eye(3)), np.eye(3))

    def test_preserves_yaw(self):
        r = rotation_z(0.7)
        out = desired_orientation(np.array([0.0, 0.0, 1.0]), r)
        assert np.allclose(out, r, atol=1e-12)

    def test_gram_schmidt_structure(self):
        n = np.array([0.0, 0.2, 1.0])
        n = n / np.linalg.norm(n)
        out = desired_orientation(n, np.eye(3))
        assert np.allclose(out[:, 2], n, atol=1e-12)
        assert np.abs(out.T @ out - np.eye(3)).max() < 1e-12
        assert np.linalg.det(out) == pytest.approx(1.0, abs=1e-12)

    def test_random_normals_valid_rotations(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            n = rng.normal(size=3)
            n = n / np.linalg.norm(n)
            if n[2] < 0:
                n = -n
            r_ee = random_rotation(rng)
            if np.linalg.norm(r_ee[:, 0] - (r_ee[:, 0] @ n) * n) < 1e-6:
                continue
            out = desired_orientation(n, r_ee)
            assert np.abs(out.T @ out - np.eye(3)).max() < 1e-9
            assert np.allclose(out[:, 2], n, atol=1e-9)

    def test_degenerate_x_axis_fallback(self):
        # tool x-axis parallel to the normal: y-axis is projected instead
        n = np.array([1.0, 0.0, 0.0])
        out = desired_orientation(n, np.eye(3))
        assert np.allclose(out[:, 2], n, atol=1e-12)
        assert np.abs(out.T @ out - np.eye(3)).max() < 1e-12
        assert np.linalg.det(out) == pytest.approx(1.0, abs=1e-12)


class TestOrientationFilter:
    def _state(self):
        st = ControllerState()
        restart_filter(st, np.eye(3), rotation_z(np.pi / 2))
        return st

    def test_start_returns_initial(self):
        st = self._state()
        assert np.allclose(orientation_filter(st, 1e-3, 0.5), np.eye(3), atol=1e-12)

    def test_horizon_returns_target_exactly(self):
        st = self._state()
        st.t_filter = 0.5
        out = orientation_filter(st, 1e-3, 0.5)
        assert np.array_equal(out, st.r_d)

    def test_halfway_is_half_angle(self):
        st = self._state()
        st.t_filter = 0.25
        out = orientation_filter(st, 1e-3, 0.5)
        assert np.allclose(out, rotation_z(np.pi / 4), atol=1e-9)

    def test_clock_advances(self):
        st = self._state()
        orientation_filter(st, 1e-3, 0.5)
        assert st.t_filter == pytest.approx(1e-3)

    def test_cached_log_matches_rotation_power_exactly(self):
        # the log cached at restart must give the very bits rotation_power
        # computes from scratch, at every clock value and horizon
        rng = np.random.default_rng(3)
        for _ in range(40):
            r_init, r_d = random_rotation(rng), random_rotation(rng)
            for filter_time in (0.05, 0.3, 0.5, 1.7):
                st = ControllerState()
                restart_filter(st, r_init, r_d)
                while st.t_filter < filter_time:
                    zeta = min(st.t_filter / filter_time, 1.0)
                    expect = rotation_power(r_init, r_d, zeta)
                    assert np.array_equal(orientation_filter(st, 7e-3, filter_time), expect)
                assert np.array_equal(orientation_filter(st, 7e-3, filter_time), r_d)


class TestComposeCommand:
    def _parts(self):
        f_damp = np.array([0.0, 0.0, -1.0, 0.0, 0.0, 0.0])
        f_var = np.array([0.0, -2.0, 0.0, 0.0, 0.0, 0.0])
        f_frc = np.array([0.0, 0.0, -15.0, 0.0, 0.0, 0.0])
        return f_damp, f_var, f_frc

    def test_all_gates_open_is_plain_sum(self):
        f_damp, f_var, f_frc = self._parts()
        out = compose_command(f_damp, f_var, f_frc, 1.0, 1, 1.0, 1.0)
        assert np.allclose(out, f_damp + f_var + f_frc)

    def test_depleted_force_tank_blocks_active_force(self):
        f_damp, f_var, f_frc = self._parts()
        out = compose_command(f_damp, f_var, f_frc, 1.0, 0, 0.0, 1.0)
        assert np.allclose(out, f_damp + f_var)

    def test_contact_loss_gives_pure_impedance(self):
        f_damp, f_var, f_frc = self._parts()
        out = compose_command(f_damp, f_var, f_frc, 0.0, 1, 1.0, 1.0)
        assert np.allclose(out, f_damp + f_var)

    def test_passive_demand_bypasses_the_valve(self):
        # with lam = 1 the force path is applied directly; sigma_f is moot
        f_damp, f_var, f_frc = self._parts()
        gated = compose_command(f_damp, f_var, f_frc, 1.0, 1, 0.0, 1.0)
        open_valve = compose_command(f_damp, f_var, f_frc, 1.0, 1, 1.0, 1.0)
        assert np.allclose(gated, open_valve)

    def test_linearity_in_each_gate(self):
        rng = np.random.default_rng(2)
        f_damp, f_var, f_frc = (rng.normal(size=6) for _ in range(3))

        def f(rho, lam, sf, si):
            return compose_command(f_damp, f_var, f_frc, rho, lam, sf, si)

        base = f(0.0, 0, 0.0, 0.0)
        mid = f(0.5, 0, 0.5, 0.5)
        # linear in sigma_i
        assert np.allclose(f(0.5, 0, 0.5, 1.0) - mid, mid - f(0.5, 0, 0.5, 0.0))
        # linear in rho_frc
        assert np.allclose(f(1.0, 0, 0.5, 0.5) - mid, mid - f(0.0, 0, 0.5, 0.5))
        # linear in sigma_f at lam = 0
        assert np.allclose(f(0.5, 0, 1.0, 0.5) - mid, mid - f(0.5, 0, 0.0, 0.5))
        assert base is not None


class TestFreeSpaceDissipativity:
    def test_energy_non_increasing(self):
        # constant stiffness, force path off, fixed desired pose: spring +
        # kinetic energy must not grow over 5 simulated seconds
        from vauf.runtime import PlantState, plant_step

        cfg = ControllerConfig()
        k_c = variable_stiffness(1.0, np.eye(3), cfg)
        m = np.array([5.0, 5.0, 5.0, 0.3, 0.3, 0.3])
        d_c = damping_matrix(k_c, np.diag(m), np.asarray(cfg.damping_coeffs))
        x_d = Pose(np.eye(3), np.zeros(3))
        plant = PlantState(
            pose=Pose(rotation_z(0.4), np.array([0.05, -0.03, 0.02])),
            twist=np.concatenate([[0.1, 0.0, -0.05], [0.0, 0.2, 0.0]]),
            m_diag=m,
        )
        def energy(p):
            err = pose_error(p.pose, x_d)
            return 0.5 * p.twist @ (m * p.twist) + 0.5 * err @ k_c @ err

        prev = energy(plant)
        for _ in range(5000):
            err = pose_error(plant.pose, x_d)
            f_cmd = -k_c @ err - d_c @ plant.twist
            plant = plant_step(plant, f_cmd, np.zeros(6), 1e-3)
            e = energy(plant)
            assert e <= prev + 1e-9
            prev = e
        assert prev < 0.05 * energy(PlantState(Pose(rotation_z(0.4), np.array([0.05, -0.03, 0.02])), np.concatenate([[0.1, 0.0, -0.05], [0.0, 0.2, 0.0]]), m))
