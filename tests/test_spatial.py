import numpy as np
import pytest

from vauf.spatial import (
    Pose,
    eig_sym3,
    is_rotation,
    pose_error,
    rotate_wrench,
    rotation_exp,
    rotation_log,
    rotation_power,
    rotation_to_quaternion,
    rotation_x,
    rotation_z,
)
from conftest import random_rotation


def rodrigues(axis, angle):
    # independent oracle for exp-map checks
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    k = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


class TestRotationPower:
    def test_zeta_zero_returns_start(self):
        rng = np.random.default_rng(1)
        r0, r1 = random_rotation(rng), random_rotation(rng)
        assert np.allclose(rotation_power(r0, r1, 0.0), r0, atol=1e-12)

    def test_zeta_one_returns_target(self):
        rng = np.random.default_rng(2)
        r0, r1 = random_rotation(rng), random_rotation(rng)
        assert np.allclose(rotation_power(r0, r1, 1.0), r1, atol=1e-9)

    def test_half_of_quarter_turn_is_eighth_turn(self):
        out = rotation_power(np.eye(3), rotation_z(np.pi / 2), 0.5)
        assert np.allclose(out, rodrigues([0, 0, 1], np.pi / 4), atol=1e-12)

    def test_geodesic_angle_scaling(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            r0, r1 = random_rotation(rng), random_rotation(rng)
            total = np.linalg.norm(rotation_log(r1 @ r0.T))
            for zeta in (0.1, 0.25, 0.5, 0.75, 0.9):
                out = rotation_power(r0, r1, zeta)
                part = np.linalg.norm(rotation_log(out @ r0.T))
                assert abs(part - zeta * total) < 1e-9

    def test_pi_rotation_deterministic(self):
        r = rodrigues([0, 0, 1], np.pi)
        a = rotation_power(np.eye(3), r, 0.5)
        b = rotation_power(np.eye(3), r, 0.5)
        assert np.array_equal(a, b)
        assert is_rotation(a)

    def test_zeta_out_of_range(self):
        with pytest.raises(ValueError):
            rotation_power(np.eye(3), np.eye(3), 1.5)


class TestEigSym3:
    def test_diagonal(self):
        vals, vecs = eig_sym3(np.diag([3.0, 2.0, 1.0]))
        assert np.allclose(vals, [3.0, 2.0, 1.0])
        assert np.allclose(np.abs(vecs), np.eye(3), atol=1e-12)
        # sign convention: largest-magnitude component positive
        assert all(vecs[np.argmax(np.abs(vecs[:, k])), k] > 0 for k in range(3))

    def test_isotropic(self):
        vals, vecs = eig_sym3(np.eye(3))
        assert np.allclose(vals, 1.0)
        assert np.allclose(vecs.T @ vecs, np.eye(3), atol=1e-12)

    def test_planar_covariance_smallest_eigenvalue(self):
        # brute-force covariance of synthetic planar samples
        rng = np.random.default_rng(4)
        pts = np.column_stack([rng.uniform(-1, 1, 1000), rng.uniform(-1, 1, 1000), np.zeros(1000)])
        centered = pts - pts.mean(axis=0)
        cov = centered.T @ centered / len(pts)
        vals, _ = eig_sym3(cov)
        assert abs(vals[2]) < 1e-9 * np.trace(cov)

    def test_reconstruction(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = rng.normal(size=(3, 3))
            m = a + a.T
            vals, vecs = eig_sym3(m)
            assert np.abs(vecs @ np.diag(vals) @ vecs.T - m).max() < 1e-8 * np.abs(m).max()
            assert np.abs(np.abs(vals)[:-1] - np.abs(vals)[1:]).min() > -1  # sorted |.| desc
            assert np.all(np.abs(vals)[:-1] >= np.abs(vals)[1:] - 1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            eig_sym3(np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))


class TestRotateWrench:
    def test_identity(self):
        w = np.array([1.0, 2.0, 3.0, 0.1, 0.2, 0.3])
        out = rotate_wrench(np.eye(3), w)
        assert np.allclose(out, w)

    def test_quarter_turn_permutes_axes(self):
        w = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        out = rotate_wrench(rotation_z(np.pi / 2), w)
        assert np.allclose(out[:3], [0.0, 1.0, 0.0], atol=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(6)
        r = random_rotation(rng)
        w = np.concatenate([rng.normal(size=3), rng.normal(size=3)])
        back = rotate_wrench(r.T, rotate_wrench(r, w))
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
        assert np.allclose(rotation_log(np.eye(3)), 0.0)

    def test_quarter_turn_x(self):
        assert np.allclose(rotation_log(rotation_x(np.pi / 2)), [np.pi / 2, 0, 0], atol=1e-12)

    def test_exp_log_round_trip(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            r = random_rotation(rng)
            assert np.abs(rotation_exp(rotation_log(r)) - r).max() < 1e-9

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


class TestPoseError:
    def test_zero_for_equal_poses(self):
        rng = np.random.default_rng(11)
        p = Pose(random_rotation(rng), rng.normal(size=3))
        assert np.allclose(pose_error(p, p), 0.0)

    def test_translation_sign(self):
        cur = Pose(np.eye(3), np.array([1.0, 0.0, 0.0]))
        des = Pose(np.eye(3), np.zeros(3))
        assert np.allclose(pose_error(cur, des)[:3], [1.0, 0.0, 0.0])

    def test_rotation_part_is_restoring_under_negative_gain(self):
        # torque -k*err must push the current yaw toward the desired yaw
        cur = Pose(rotation_z(0.3), np.zeros(3))
        des = Pose(rotation_z(0.5), np.zeros(3))
        err = pose_error(cur, des)
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
            assert np.abs(back - r).max() < 1e-9
            assert q[0] >= 0.0
