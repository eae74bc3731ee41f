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
    orientation_filter,
    restart_filter,
    spring_wrench,
    variable_stiffness,
)
from vauf.spatial import mat_mul, pose_error, rotate_wrench, rotation_log, rotation_power, rotation_x, transpose
from conftest import flat, mat, random_rotation, rotation_z

TABLE = ControllerConfig()
EYE = flat(np.eye(3))


def stiffness_from_alignment(rho_align, r_ee, k_max_t):
    """variable_stiffness's translational block as a 3x3 array."""
    k_t, _ = variable_stiffness(rho_align, r_ee, ControllerConfig(k_max=(*k_max_t, 200.0, 200.0, 200.0)))
    return mat(k_t)


def full_stiffness(k_var):
    """The 6x6 stiffness of variable_stiffness's (3x3 block, rotational diagonal)."""
    k = np.zeros((6, 6))
    k[:3, :3] = mat(k_var[0])
    k[3:, 3:] = np.diag(k_var[1])
    return k


def ee_force_z(fz):
    return np.array([0.0, 0.0, fz, 0.0, 0.0, 0.0])


class TestStiffness:
    def test_full_alignment_identity_frame(self):
        k = stiffness_from_alignment(1.0, EYE, (1000.0, 1000.0, 10.0))
        assert np.allclose(k, np.diag([1000.0, 1000.0, 10.0]))

    def test_zero_alignment(self):
        k = stiffness_from_alignment(0.0, rotation_z(0.3), (1000.0, 1000.0, 10.0))
        assert np.allclose(k, 0.0)

    def test_conjugation_by_quarter_turn(self):
        k = stiffness_from_alignment(1.0, flat(rotation_x(np.pi / 2)), (1000.0, 1000.0, 10.0))
        assert np.allclose(k, np.diag([1000.0, 10.0, 1000.0]), atol=1e-9)

    def test_psd_with_scaled_eigenvalues(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            r = random_rotation(rng)
            rho = rng.uniform(0.0, 1.0)
            k = stiffness_from_alignment(rho, r, (1000.0, 1000.0, 10.0))
            assert np.abs(k - k.T).max() < 1e-9
            vals = np.sort(np.linalg.eigvalsh(k))
            assert np.allclose(vals, np.sort(rho * np.array([1000.0, 1000.0, 10.0])), atol=1e-6)

    def test_variable_stiffness_rotational_block_constant(self):
        k = full_stiffness(variable_stiffness(0.25, EYE, TABLE))
        assert np.allclose(np.diag(k)[:3], [250.0, 250.0, 2.5])
        assert np.allclose(np.diag(k)[3:], [200.0, 200.0, 200.0])
        assert not k[:3, 3:].any() and not k[3:, :3].any()

    def test_spring_wrench_is_minus_k_x(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            k_var = variable_stiffness(rng.uniform(0.0, 1.0), random_rotation(rng), TABLE)
            x = tuple(rng.normal(size=6).tolist())
            assert np.allclose(spring_wrench(k_var, x), -full_stiffness(k_var) @ x, rtol=1e-12, atol=1e-12)


class TestDamping:
    def test_square_root_design(self):
        k = (flat(np.diag([1000.0, 1000.0, 1000.0])), (0.0, 0.0, 0.0))
        d = damping_matrix(k, (5.0,) * 6, (0.7,) * 6)
        assert len(d) == 6
        assert d[0] == pytest.approx(2 * 0.7 * np.sqrt(5000.0) + D_FLOOR, abs=1e-9)

    def test_floor_at_zero_stiffness(self):
        d = damping_matrix(((0.0,) * 9, (0.0,) * 3), (5.0,) * 6, (0.7,) * 6)
        assert np.allclose(d, D_FLOOR)

    def test_sqrt_scaling(self):
        m = np.full(6, 5.0)
        c = np.array([0.7] * 6)
        d1 = damping_matrix((flat(np.diag([100.0] * 3)), (100.0,) * 3), m, c)
        d2 = damping_matrix((flat(np.diag([200.0] * 3)), (200.0,) * 3), m, c)
        ratio = (d2[0] - D_FLOOR) / (d1[0] - D_FLOOR)
        assert ratio == pytest.approx(np.sqrt(2.0), abs=1e-12)


class TestForceWrench:
    def test_zero_error_pass_through(self):
        state = ControllerState()
        out = force_wrench(15.0, 15.0, state, EYE, 1e-3, TABLE)
        assert np.allclose(out, ee_force_z(15.0))

    def test_proportional_correction(self):
        state = ControllerState()
        out = force_wrench(15.0, 20.0, state, EYE, 1e-3, TABLE)
        assert out[2] == pytest.approx(15.0 + 0.6 * 5.0, abs=1e-12)

    def test_rotation_to_base(self):
        state = ControllerState()
        out = force_wrench(15.0, 20.0, state, flat(rotation_x(np.pi / 2)), 1e-3, TABLE)
        assert np.allclose(out[:3], [0.0, -18.0, 0.0], atol=1e-12)

    def test_integral_clamped(self):
        state = ControllerState()
        for _ in range(5000):
            force_wrench(15.0, 0.0, state, EYE, 1e-2, TABLE)
            assert abs(state.pi_integral) <= TABLE.integral_limit + 1e-12
        assert isinstance(state.pi_integral, float)

    def test_integral_opposes_persistent_over_press(self):
        # sustained over-press must wind the command down, not up
        state = ControllerState()
        first = force_wrench(15.0, 20.0, state, EYE, 1e-3, TABLE)[2]
        for _ in range(2000):
            last = force_wrench(15.0, 20.0, state, EYE, 1e-3, TABLE)[2]
        assert last < first

    def test_bad_dt(self):
        with pytest.raises(ValueError):
            force_wrench(0.0, 0.0, ControllerState(), EYE, 0.0, TABLE)


def force_wrench_6d(f_d_ee, f_ext_ee, pi_integral, r_ee, dt, cfg):
    """The 6-axis PI the scalar force_wrench replaced; k_p and k_i repeat on every axis.

    Returns (base-frame wrench, next integral).
    """
    f_err = f_ext_ee - f_d_ee
    out_ee = f_d_ee + np.full(6, cfg.k_p) * f_err + np.full(6, cfg.k_i) * pi_integral
    pi_integral = (pi_integral - f_err * dt).clip(-cfg.integral_limit, cfg.integral_limit)
    return rotate_wrench(r_ee, out_ee), pi_integral


class TestForceWrenchOracle:
    """The tool-z force_wrench against the 6-axis PI, with desired and measured force along tool z."""

    @staticmethod
    def assert_matches(f_d_z, f_ext_z, integral, r_ee, dt, cfg):
        state = ControllerState(pi_integral=integral)
        out = force_wrench(f_d_z, f_ext_z, state, r_ee, dt, cfg)
        ref, ref_integral = force_wrench_6d(ee_force_z(f_d_z), ee_force_z(f_ext_z), ee_force_z(integral), r_ee, dt, cfg)
        assert np.array(out).tobytes() == np.array(ref).tobytes()
        assert np.float64(state.pi_integral).tobytes() == ref_integral[2].tobytes()
        assert not ref_integral[[0, 1, 3, 4, 5]].any()

    def test_random_inputs_bit_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(3000):
            cfg = ControllerConfig(
                k_p=rng.uniform(0.0, 5.0), k_i=rng.uniform(0.0, 5.0), integral_limit=rng.uniform(0.0, 50.0)
            )
            integral = rng.uniform(-cfg.integral_limit, cfg.integral_limit)
            f_d_z, f_ext_z = rng.normal(0.0, 20.0, 2)
            self.assert_matches(f_d_z, f_ext_z, integral, random_rotation(rng), rng.uniform(1e-4, 1e-2), cfg)

    @pytest.mark.parametrize("f_d_z, f_ext_z", [(0.0, 0.0), (0.0, 12.5), (15.0, 0.0), (15.0, -0.0), (-0.0, 3.0)])
    @pytest.mark.parametrize("integral", [-30.0, 30.0, 0.0, 29.99])
    def test_edges_bit_exact(self, f_d_z, f_ext_z, integral):
        # integrals at the clamp, zero forces of either sign, a zero setpoint
        r_ee = random_rotation(np.random.default_rng(8))
        self.assert_matches(f_d_z, f_ext_z, integral, r_ee, 1e-2, TABLE)


class TestDesiredOrientation:
    def test_already_aligned(self):
        assert np.allclose(desired_orientation((0.0, 0.0, 1.0), EYE), EYE)

    def test_preserves_yaw(self):
        r = rotation_z(0.7)
        out = desired_orientation((0.0, 0.0, 1.0), r)
        assert np.allclose(out, r, atol=1e-12)

    def test_gram_schmidt_structure(self):
        n = np.array([0.0, 0.2, 1.0])
        n = n / np.linalg.norm(n)
        out = mat(desired_orientation(tuple(n.tolist()), EYE))
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
            x_axis = mat(r_ee)[:, 0]
            if np.linalg.norm(x_axis - (x_axis @ n) * n) < 1e-6:
                continue
            out = mat(desired_orientation(tuple(n.tolist()), r_ee))
            assert np.abs(out.T @ out - np.eye(3)).max() < 1e-9
            assert np.allclose(out[:, 2], n, atol=1e-9)

    def test_degenerate_x_axis_fallback(self):
        # tool x-axis parallel to the normal: y-axis is projected instead
        n = np.array([1.0, 0.0, 0.0])
        out = mat(desired_orientation((1.0, 0.0, 0.0), EYE))
        assert np.allclose(out[:, 2], n, atol=1e-12)
        assert np.abs(out.T @ out - np.eye(3)).max() < 1e-12
        assert np.linalg.det(out) == pytest.approx(1.0, abs=1e-12)


class TestOrientationFilter:
    def _state(self):
        st = ControllerState()
        restart_filter(st, EYE, rotation_z(np.pi / 2))
        return st

    def test_start_returns_initial(self):
        st = self._state()
        assert np.allclose(orientation_filter(st, 1e-3, 0.5), EYE, atol=1e-12)

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
        # gives on the log of r_d r_init^T, at every clock value and horizon
        rng = np.random.default_rng(3)
        for _ in range(40):
            r_init, r_d = random_rotation(rng), random_rotation(rng)
            rel = rotation_log(mat_mul(r_d, transpose(r_init)))
            for filter_time in (0.05, 0.3, 0.5, 1.7):
                st = ControllerState()
                restart_filter(st, r_init, r_d)
                while st.t_filter < filter_time:
                    zeta = min(st.t_filter / filter_time, 1.0)
                    expect = rotation_power(r_init, rel, zeta)
                    assert np.array_equal(orientation_filter(st, 7e-3, filter_time), expect)
                assert np.array_equal(orientation_filter(st, 7e-3, filter_time), r_d)


class TestComposeCommand:
    def _parts(self):
        f_damp = (0.0, 0.0, -1.0, 0.0, 0.0, 0.0)
        f_var = (0.0, -2.0, 0.0, 0.0, 0.0, 0.0)
        f_frc = (0.0, 0.0, -15.0, 0.0, 0.0, 0.0)
        return f_damp, f_var, f_frc

    def test_all_gates_open_is_plain_sum(self):
        f_damp, f_var, f_frc = self._parts()
        out = compose_command(f_damp, f_var, f_frc, 1.0, 1, 1.0, 1.0)
        assert np.allclose(out, np.add(f_damp, f_var) + f_frc)

    def test_depleted_force_tank_blocks_active_force(self):
        f_damp, f_var, f_frc = self._parts()
        out = compose_command(f_damp, f_var, f_frc, 1.0, 0, 0.0, 1.0)
        assert np.allclose(out, np.add(f_damp, f_var))

    def test_contact_loss_gives_pure_impedance(self):
        f_damp, f_var, f_frc = self._parts()
        out = compose_command(f_damp, f_var, f_frc, 0.0, 1, 1.0, 1.0)
        assert np.allclose(out, np.add(f_damp, f_var))

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
        assert np.allclose(np.subtract(f(0.5, 0, 0.5, 1.0), mid), np.subtract(mid, f(0.5, 0, 0.5, 0.0)))
        # linear in rho_frc
        assert np.allclose(np.subtract(f(1.0, 0, 0.5, 0.5), mid), np.subtract(mid, f(0.0, 0, 0.5, 0.5)))
        # linear in sigma_f at lam = 0
        assert np.allclose(np.subtract(f(0.5, 0, 1.0, 0.5), mid), np.subtract(mid, f(0.5, 0, 0.0, 0.5)))
        assert base is not None


class TestFreeSpaceDissipativity:
    def test_energy_non_increasing(self):
        # constant stiffness, force path off, fixed desired pose: spring +
        # kinetic energy must not grow over 5 simulated seconds
        from vauf.runtime import plant_step

        cfg = ControllerConfig()
        k_var = variable_stiffness(1.0, EYE, cfg)
        k_c = full_stiffness(k_var)
        m = (5.0, 5.0, 5.0, 0.3, 0.3, 0.3)
        d = np.array(damping_matrix(k_var, m, cfg.damping_coeffs))
        r_d, p_d = EYE, (0.0, 0.0, 0.0)
        start = (rotation_z(0.4), (0.05, -0.03, 0.02), (0.1, 0.0, -0.05, 0.0, 0.2, 0.0))

        def energy(r, p, twist):
            err = np.array(pose_error(r, p, r_d, p_d))
            twist = np.array(twist)
            return 0.5 * twist @ (m * twist) + 0.5 * err @ k_c @ err

        plant = start
        prev = energy(*plant)
        for _ in range(5000):
            r, p, twist = plant
            f_cmd = tuple((-k_c @ pose_error(r, p, r_d, p_d) - d * twist).tolist())
            plant = plant_step(r, p, twist, m, f_cmd, (0.0,) * 6, 1e-3)
            e = energy(*plant)
            assert e <= prev + 1e-9
            prev = e
        assert prev < 0.05 * energy(*start)
