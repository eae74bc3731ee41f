import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from vauf.spatial import (
    mat_mul,
    pose_error,
    rotate_wrench,
    rotation_exp,
    rotation_log,
    rotation_power,
    rotation_to_quaternion,
    rotation_x,
    transpose,
)
from vauf.tanks import _quat_to_rot_batch
from conftest import flat, is_rotation, mat, random_rotation, rotation_z

ROTATION_VECTORS = st.lists(st.floats(-np.pi, np.pi), min_size=3, max_size=3).map(tuple)
EYE = flat(np.eye(3))
# |log(exp(w)) - w| / |w| for |w| in [1e-12, 1e-6]; 200,000 random draws
# gave at most 5.6e-16
SMALL_ANGLE_REL_TOL = 1e-15


def rodrigues(axis, angle):
    # independent oracle for exp-map checks
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    k = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    return flat(np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k))


def rel(r0, r1):
    # the whole way from r0 to r1, as rotation_power takes it
    return rotation_log(mat_mul(r1, transpose(r0)))


class TestRotationPower:
    def test_zeta_zero_returns_start(self):
        rng = np.random.default_rng(1)
        r0, r1 = random_rotation(rng), random_rotation(rng)
        assert np.allclose(rotation_power(r0, rel(r0, r1), 0.0), r0, atol=1e-12)

    def test_zeta_one_returns_target(self):
        rng = np.random.default_rng(2)
        r0, r1 = random_rotation(rng), random_rotation(rng)
        assert np.allclose(rotation_power(r0, rel(r0, r1), 1.0), r1, atol=1e-9)

    def test_half_of_quarter_turn_is_eighth_turn(self):
        out = rotation_power(EYE, rel(EYE, rotation_z(np.pi / 2)), 0.5)
        assert np.allclose(out, rodrigues([0, 0, 1], np.pi / 4), atol=1e-12)

    def test_geodesic_angle_scaling(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            r0, r1 = random_rotation(rng), random_rotation(rng)
            total = np.linalg.norm(rotation_log(flat(mat(r1) @ mat(r0).T)))
            for zeta in (0.1, 0.25, 0.5, 0.75, 0.9):
                out = rotation_power(r0, rel(r0, r1), zeta)
                part = np.linalg.norm(rotation_log(flat(mat(out) @ mat(r0).T)))
                assert abs(part - zeta * total) < 1e-9

    def test_pi_rotation_deterministic(self):
        r = rodrigues([0, 0, 1], np.pi)
        a = rotation_power(EYE, rel(EYE, r), 0.5)
        b = rotation_power(EYE, rel(EYE, r), 0.5)
        assert np.array_equal(a, b)
        assert is_rotation(a)

    def test_zeta_out_of_range(self):
        with pytest.raises(ValueError):
            rotation_power(EYE, rel(EYE, EYE), 1.5)


class TestRotateWrench:
    def test_identity(self):
        w = np.array([1.0, 2.0, 3.0, 0.1, 0.2, 0.3])
        out = rotate_wrench(EYE, w)
        assert np.allclose(out, w)

    def test_quarter_turn_permutes_axes(self):
        w = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        out = rotate_wrench(rotation_z(np.pi / 2), w)
        assert np.allclose(out[:3], [0.0, 1.0, 0.0], atol=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(6)
        r = random_rotation(rng)
        w = np.concatenate([rng.normal(size=3), rng.normal(size=3)])
        back = rotate_wrench(transpose(r), rotate_wrench(r, w))
        assert np.abs(back - w).max() < 1e-12

    def test_norm_preserved(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            r = random_rotation(rng)
            w = np.concatenate([rng.normal(size=3), rng.normal(size=3)])
            out = rotate_wrench(r, w)
            assert abs(np.linalg.norm(out[:3]) - np.linalg.norm(w[:3])) < 1e-12
            assert abs(np.linalg.norm(out[3:]) - np.linalg.norm(w[3:])) < 1e-12


class TestRotationLog:
    def test_identity(self):
        assert np.allclose(rotation_log(EYE), 0.0)

    def test_quarter_turn_x(self):
        assert np.allclose(rotation_log(flat(rotation_x(np.pi / 2))), [np.pi / 2, 0, 0], atol=1e-12)

    def test_exp_log_round_trip(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            r = random_rotation(rng)
            assert np.abs(np.subtract(rotation_exp(rotation_log(r)), r)).max() < 1e-9

    def test_log_exp_matches_rodrigues(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            angle = rng.uniform(0.01, 3.1)
            w = rotation_log(rodrigues(axis, angle))
            assert abs(np.linalg.norm(w) - angle) < 1e-9

    def test_half_turn_axis_sign_deterministic(self):
        r = rodrigues([1, 0, 0], np.pi)
        w = rotation_log(r)
        assert np.allclose(np.abs(w), [np.pi, 0, 0], atol=1e-7)
        assert w[np.argmax(np.abs(w))] > 0

    def test_magnitude_bounded_by_pi(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            assert np.linalg.norm(rotation_log(random_rotation(rng))) <= np.pi + 1e-12

    @given(ROTATION_VECTORS)
    def test_log_inverts_exp(self, w):
        assume(np.linalg.norm(w) < np.pi - 1e-3)  # away from the half-turn axis ambiguity
        assert np.abs(np.subtract(rotation_log(rotation_exp(w)), w)).max() <= 5e-8

    @given(st.floats(-12.0, -6.0), st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
    def test_log_inverts_exp_at_small_angles(self, log_angle, direction):
        # the atan2 form keeps full relative precision down to the smallest
        # angles; the arccos form it replaced read every angle below about
        # 1.5e-8 rad as exactly zero
        d = np.asarray(direction)
        assume(np.linalg.norm(d) > 1e-3)
        w = tuple((d / np.linalg.norm(d) * 10.0**log_angle).tolist())
        err = np.abs(np.subtract(rotation_log(rotation_exp(w)), w)).max()
        assert err <= SMALL_ANGLE_REL_TOL * np.linalg.norm(w)


class TestPoseError:
    def test_zero_for_equal_poses(self):
        rng = np.random.default_rng(11)
        r, p = random_rotation(rng), tuple(rng.normal(size=3).tolist())
        assert np.allclose(pose_error(r, p, r, p), 0.0)

    def test_translation_sign(self):
        err = pose_error(EYE, (1.0, 0.0, 0.0), EYE, (0.0, 0.0, 0.0))
        assert np.allclose(err[:3], [1.0, 0.0, 0.0])

    def test_rotation_part_is_restoring_under_negative_gain(self):
        # torque -k*err must push the current yaw toward the desired yaw
        err = pose_error(rotation_z(0.3), (0.0, 0.0, 0.0), rotation_z(0.5), (0.0, 0.0, 0.0))
        torque_z = -1.0 * err[5]
        assert torque_z > 0.0  # current is behind desired, torque increases yaw


class TestQuaternion:
    def test_unit_norm_and_round_trip(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            r = random_rotation(rng)
            q = rotation_to_quaternion(r)
            assert abs(np.linalg.norm(q) - 1.0) < 1e-12
            w, x, y, z = q
            back = np.array(
                [
                    [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                    [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                    [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
                ]
            )
            assert np.abs(back - mat(r)).max() < 1e-9
            assert q[0] >= 0.0

    @given(ROTATION_VECTORS)
    def test_audit_conversion_recovers_rotation(self, w):
        # the passivity audit rebuilds each tick's rotation from the logged quaternion
        r = rotation_exp(w)
        assert np.abs(_quat_to_rot_batch(np.array([rotation_to_quaternion(r)]))[0] - mat(r)).max() <= 1e-12
