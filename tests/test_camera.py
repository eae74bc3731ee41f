import numpy as np
import pytest

from vauf.camera import CameraModel, EmptyViewError, MOUNT_ROTATION, camera_pose_from_tool, render
from vauf.spatial import Pose, rotation_x
from vauf.surface import HeightField

FLAT = HeightField(amplitude=0.0, offset=0.0, x_half=1.0, y_half=1.0)
PAPER = HeightField()

DOWN = Pose(MOUNT_ROTATION, np.array([0.0, 0.0, 0.3]))  # camera z looks along -z base


class TestRender:
    def test_flat_plane_depth(self):
        cam = CameraModel(cols=16, rows=16, noise_sigma=0.0)
        cloud = render(cam, DOWN, FLAT, rng=np.random.default_rng(0))
        assert len(cloud) == 256
        assert np.abs(cloud[:, 2] - 0.3).max() < 2e-5

    def test_pixel_count_bound(self):
        cam = CameraModel(cols=32, rows=32)
        cloud = render(cam, DOWN, FLAT, rng=np.random.default_rng(0))
        assert len(cloud) <= 1024
        z = cloud[:, 2]
        assert np.all((z >= cam.range_min) & (z <= cam.range_max))

    def test_noise_statistics(self):
        cam = CameraModel(cols=128, rows=96, noise_sigma=0.002)
        clean = render(CameraModel(cols=128, rows=96, noise_sigma=0.0), DOWN, FLAT, rng=np.random.default_rng(0))
        noisy = render(cam, DOWN, FLAT, rng=np.random.default_rng(0))
        assert len(noisy) >= 10_000
        # ray-depth residuals: distance along each ray vs the clean render
        d_clean = np.linalg.norm(clean, axis=1)
        d_noisy = np.linalg.norm(noisy, axis=1)
        resid = d_noisy - d_clean[: len(d_noisy)]
        assert 0.0018 <= resid.std() <= 0.0022

    def test_deterministic_given_seed(self):
        cam = CameraModel(cols=24, rows=16, noise_sigma=0.002)
        a = render(cam, DOWN, PAPER, rng=np.random.default_rng(7))
        b = render(cam, DOWN, PAPER, rng=np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_noise_free_points_lie_on_surface(self):
        cam = CameraModel(cols=32, rows=24, noise_sigma=0.0)
        pose = Pose(MOUNT_ROTATION, np.array([0.0, 0.05, 0.33]))
        cloud = render(cam, pose, PAPER, rng=np.random.default_rng(0))
        pts_base = cloud @ pose.rotation.T + pose.position
        h = PAPER.height_unchecked(pts_base[:, 0], pts_base[:, 1])
        assert np.abs(pts_base[:, 2] - h).max() < 2e-5

    def test_empty_view_when_looking_up(self):
        cam = CameraModel(cols=16, rows=16)
        up = Pose(np.eye(3), np.array([0.0, 0.0, 0.3]))  # camera z along +z base
        with pytest.raises(EmptyViewError):
            render(cam, up, FLAT, rng=np.random.default_rng(0))

    def test_tilted_view_still_returns(self):
        cam = CameraModel(cols=24, rows=18)
        pose = Pose(rotation_x(np.deg2rad(20.0)) @ MOUNT_ROTATION, np.array([0.0, 0.05, 0.33]))
        cloud = render(cam, pose, PAPER, rng=np.random.default_rng(0))
        assert len(cloud) > 0.5 * 24 * 18

    def test_minimum_range_drops_logged(self, caplog):
        # surface closer than the minimum range: hits found, dropped, warned
        import logging

        cam = CameraModel(cols=16, rows=16, range_min=0.3)
        pose = Pose(MOUNT_ROTATION, np.array([0.0, 0.0, 0.25]))
        with caplog.at_level(logging.WARNING, logger="vauf.camera"):
            cloud = render(cam, pose, FLAT, rng=np.random.default_rng(0))
        assert any("minimum range" in r.message for r in caplog.records)
        assert len(cloud) == 0


class TestCameraModel:
    def test_mount_pose(self):
        tool = Pose(np.eye(3), np.array([0.1, 0.2, 0.3]))
        cam = CameraModel(mount_offset=(0.0, 0.0, 0.25))
        pose = camera_pose_from_tool(tool, cam)
        assert np.allclose(pose.position, [0.1, 0.2, 0.55])
        assert np.allclose(pose.rotation[:, 2], [0.0, 0.0, -1.0])  # looks down

    def test_validation(self):
        with pytest.raises(ValueError):
            CameraModel(fov_h=0.0)
        with pytest.raises(ValueError):
            CameraModel(cols=4)
        with pytest.raises(ValueError):
            CameraModel(range_min=1.0, range_max=0.5)

    def test_ray_directions_unit(self):
        cam = CameraModel(cols=8, rows=8)
        d = cam.ray_directions()
        assert np.abs(np.linalg.norm(d, axis=1) - 1.0).max() < 1e-12
        assert np.all(d[:, 2] > 0.0)
