from dataclasses import replace
import logging

import numpy as np
import pytest

from march_render import MARCH_STEPS, march_render
from vauf.camera import CameraModel, EmptyViewError, Frame, MOUNT_ROTATION, camera_pose_from_tool, render
from vauf.spatial import Pose, rotation_exp, rotation_x
from vauf.surface import HeightField

FLAT = HeightField(amplitude=0.0, offset=0.0, x_half=1.0, y_half=1.0)
PAPER = HeightField()

DOWN = Pose(MOUNT_ROTATION, np.array([0.0, 0.0, 0.3]))  # camera z looks along -z base


def rotation_y(angle: float) -> np.ndarray:
    return np.reshape(rotation_exp((0.0, angle, 0.0)), (3, 3))


class TestRender:
    def test_flat_plane_depth(self):
        cam = CameraModel(cols=16, rows=16, noise_sigma=0.0)
        frame = render(cam, DOWN, FLAT, rng=np.random.default_rng(0))
        assert len(frame) == 256
        assert np.abs(frame.points[:, 2] - 0.3).max() < 2e-5

    def test_pixel_count_bound(self):
        cam = CameraModel(cols=32, rows=32)
        frame = render(cam, DOWN, FLAT, rng=np.random.default_rng(0))
        assert len(frame) <= 1024
        z = frame.points[:, 2]
        assert np.all((z >= cam.range_min) & (z <= cam.range_max))

    def test_noise_statistics(self):
        cam = CameraModel(cols=128, rows=96, noise_sigma=0.002)
        clean = render(CameraModel(cols=128, rows=96, noise_sigma=0.0), DOWN, FLAT, rng=np.random.default_rng(0))
        noisy = render(cam, DOWN, FLAT, rng=np.random.default_rng(0))
        assert len(noisy) >= 10_000
        # ray-depth residuals: distance along each ray vs the clean render
        d_clean = np.linalg.norm(clean.points, axis=1)
        d_noisy = np.linalg.norm(noisy.points, axis=1)
        resid = d_noisy - d_clean[: len(d_noisy)]
        assert 0.0018 <= resid.std() <= 0.0022

    def test_deterministic_given_seed(self):
        cam = CameraModel(cols=24, rows=16, noise_sigma=0.002)
        a = render(cam, DOWN, PAPER, rng=np.random.default_rng(7))
        b = render(cam, DOWN, PAPER, rng=np.random.default_rng(7))
        assert all(np.array_equal(getattr(a, f), getattr(b, f)) for f in ("points", "row", "col"))

    def test_noise_free_points_lie_on_surface(self):
        cam = CameraModel(cols=32, rows=24, noise_sigma=0.0)
        pose = Pose(MOUNT_ROTATION, np.array([0.0, 0.05, 0.33]))
        frame = render(cam, pose, PAPER, rng=np.random.default_rng(0))
        pts_base = frame.points @ pose.rotation.T + pose.position
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
        frame = render(cam, pose, PAPER, rng=np.random.default_rng(0))
        assert len(frame) > 0.5 * 24 * 18

    def test_minimum_range_drops_logged(self, caplog):
        # surface closer than the minimum range: hits found, dropped, warned
        cam = CameraModel(cols=16, rows=16, range_min=0.3)
        pose = Pose(MOUNT_ROTATION, np.array([0.0, 0.0, 0.25]))
        with caplog.at_level(logging.WARNING, logger="vauf.camera"), pytest.raises(EmptyViewError):
            render(cam, pose, FLAT, rng=np.random.default_rng(0))
        assert any("minimum range" in r.message for r in caplog.records)

    @pytest.mark.parametrize("range_min", [0.225, 0.3])
    def test_range_gated_view_is_empty(self, range_min):
        # from 0.2 m above the paper surface every pixel hits it, but at
        # most 32 of the 768 returns lie beyond range_min: fewer than 10%
        pose = Pose(MOUNT_ROTATION, np.array([0.0, 0.0, PAPER.height_unchecked(0.0, 0.0) + 0.2]))
        with pytest.raises(EmptyViewError, match="working range"):
            render(CameraModel(range_min=range_min), pose, PAPER, rng=np.random.default_rng(0))

    def test_noise_drawn_per_pixel(self):
        cam = CameraModel(cols=16, rows=16, noise_sigma=0.002)
        clean = render(replace(cam, noise_sigma=0.0), DOWN, FLAT, rng=np.random.default_rng(0))
        noisy = render(cam, DOWN, FLAT, rng=np.random.default_rng(3))
        assert len(clean) == len(noisy) == 256
        twin = np.random.default_rng(3).normal(0.0, 0.002, 256)
        resid = np.linalg.norm(noisy.points, axis=1) - np.linalg.norm(clean.points, axis=1)
        assert np.abs(resid - twin).max() < 1e-12

    def test_noise_free_camera_draws_as_a_noisy_one(self):
        cam = CameraModel(cols=16, rows=16, noise_sigma=0.002)
        clean_rng, noisy_rng = np.random.default_rng(5), np.random.default_rng(5)
        clean = render(replace(cam, noise_sigma=0.0), DOWN, PAPER, rng=clean_rng)
        render(cam, DOWN, PAPER, rng=noisy_rng)
        assert clean_rng.bit_generator.state == noisy_rng.bit_generator.state
        # the +0.0 samples leave every point's bits independent of the generator
        other = render(replace(cam, noise_sigma=0.0), DOWN, PAPER, rng=np.random.default_rng(0))
        assert clean.points.tobytes() == other.points.tobytes()

    def test_band_beyond_range_max_is_empty(self):
        deep = HeightField(offset=-1.0, x_half=1.0, y_half=1.0)  # band 1.28-1.32 m below the camera
        with pytest.raises(EmptyViewError):
            render(CameraModel(cols=16, rows=16), DOWN, deep, rng=np.random.default_rng(0))


# Oblique view toward -x: EDGE_PIXEL's ray crosses the band's 4 cm of height
# over 2.5 cm of x, so it marches off the patch until just before a hit 0.1 mm
# inside the +x edge, and only the patch test on the hit point keeps it.
OBLIQUE = Pose(rotation_y(0.6) @ MOUNT_ROTATION, np.array([0.0, 0.05, 0.33]))
EDGE_PIXEL = 8 * 16 + 8


def edge_view(inside: float) -> tuple[Pose, np.ndarray]:
    """OBLIQUE shifted along x so EDGE_PIXEL's ray meets the unbounded sinusoid
    `inside` metres inside the patch's +x edge; returns the pose and that point."""
    cam = CameraModel(cols=16, rows=16)
    wide = render(cam, OBLIQUE, replace(PAPER, x_half=1.0, y_half=1.0), rng=np.random.default_rng(0))
    (point,) = wide.points[pixel_of(wide, cam) == EDGE_PIXEL]
    hit = OBLIQUE.rotation @ point + OBLIQUE.position
    shift = np.array([PAPER.x_half - inside - hit[0], 0.0, 0.0])
    return Pose(OBLIQUE.rotation, OBLIQUE.position + shift), hit + shift


def pixel_of(frame: Frame, cam: CameraModel) -> np.ndarray:
    """Row-major pixel index of each point of the frame."""
    return frame.row * cam.cols + frame.col


class TestPatchEdge:
    def test_hit_just_inside_the_edge_is_kept(self):
        cam = CameraModel(cols=16, rows=16)
        pose, expected = edge_view(inside=1e-4)
        frame = render(cam, pose, PAPER, rng=np.random.default_rng(0))
        pix = pixel_of(frame, cam)
        assert EDGE_PIXEL in pix
        hit = pose.rotation @ frame.points[pix == EDGE_PIXEL][0] + pose.position
        assert np.abs(hit - expected).max() < 2e-5
        assert abs(hit[2] - PAPER.height_unchecked(hit[0], hit[1])) < 2e-5
        assert 0.0 < PAPER.x_half - hit[0] < 2e-4

    def test_crossing_just_outside_the_edge_is_no_hit(self):
        cam = CameraModel(cols=16, rows=16)
        pose, _ = edge_view(inside=-1e-4)
        frame = render(cam, pose, PAPER, rng=np.random.default_rng(0))
        assert EDGE_PIXEL not in pixel_of(frame, cam)


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


# The renderer against the test-local oracle of the 97-sample march: the
# renderer loses no pixel, gains only pixels whose hit is within one march step
# of the patch edge (the march needs both bracketing samples on the patch),
# and returns the same point on every pixel both hit.
ORACLE_CAMERAS = {
    "32x24": CameraModel(),
    "64x48": CameraModel(fov_h=np.deg2rad(30), fov_v=np.deg2rad(24), cols=64, rows=48),
}


def oracle_poses(n: int = 12) -> list[Pose]:
    rng = np.random.default_rng(11)
    poses = []
    for _ in range(n):  # straight down from 0.3 m, over the whole patch
        x, y = rng.uniform(-0.12, 0.12), rng.uniform(-0.25, 0.25)
        poses.append(Pose(MOUNT_ROTATION, np.array([x, y, PAPER.height_unchecked(x, y) + 0.3])))
    for _ in range(n):  # tool-mounted, tool tilted up to 0.4 rad, tip 5 mm above the surface
        x, y = rng.uniform(-0.1, 0.1), rng.uniform(-0.2, 0.2)
        tilt = np.reshape(rotation_exp((rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4), 0.0)), (3, 3))
        tool = Pose(tilt, np.array([x, y, PAPER.height_unchecked(x, y) + 0.005]))
        poses.append(camera_pose_from_tool(tool, CameraModel()))
    return poses


@pytest.mark.parametrize("sigma", [0.0, 0.002])
@pytest.mark.parametrize("name", sorted(ORACLE_CAMERAS))
def test_band_march_against_march_oracle(name, sigma):
    cam = replace(ORACLE_CAMERAS[name], noise_sigma=sigma)
    march_step = (cam.range_max - min(0.01, cam.range_min)) / MARCH_STEPS
    gained = 0
    for i, pose in enumerate(oracle_poses()):
        old, old_pix = march_render(cam, pose, PAPER, np.random.default_rng(i))
        frame = render(cam, pose, PAPER, rng=np.random.default_rng(i))
        new, new_pix = frame.points, pixel_of(frame, cam)
        assert np.isin(old_pix, new_pix).all(), f"pose {i}: pixels lost"
        extra = ~np.isin(new_pix, old_pix)
        gained += extra.sum()
        base = new[extra] @ pose.rotation.T + pose.position
        edge = np.minimum(PAPER.x_half - abs(base[:, 0]), PAPER.y_half - abs(base[:, 1]))
        assert np.all(edge <= march_step), f"pose {i}: a gained hit lies {edge.max():.4f} m inside the edge"
        order = np.argsort(new_pix)
        shared = new[order][np.isin(new_pix[order], old_pix)]
        assert np.abs(shared - old[np.argsort(old_pix)]).max() < 1e-6
    print(f"{name}, sigma {sigma}: {gained} pixels gained")


# Crests 4 cm high and 24 mm apart, steeper than any view ray below: a ray can
# leave the solid through one flank and meet the next.
CRESTS = HeightField(amplitude=0.02, period=0.012, phase=np.pi / 2, offset=0.0, x_half=1.0, y_half=1.0)


def ray_gaps(cam: CameraModel, pose: Pose, surface: HeightField, z: np.ndarray) -> np.ndarray:
    """Height above the unbounded sinusoid of every ray (columns) at each z-depth in z (rows)."""
    d = cam.ray_directions()
    pts = pose.position + z[:, None, None] * ((d / d[:, 2:]) @ pose.rotation.T)
    return pts[..., 2] - surface.height_unchecked(pts[..., 0], pts[..., 1])


def test_ray_starting_inside_the_solid_is_a_miss():
    # 1 mm under the crest at y = 0, looking down: the march starts at 5 mm depth
    cam = CameraModel(cols=16, rows=16, fov_v=np.deg2rad(90.0), range_min=0.005)
    pose = Pose(MOUNT_ROTATION, np.array([0.0, 0.0, CRESTS.height_band()[1] - 0.001]))
    gap = ray_gaps(cam, pose, CRESTS, np.linspace(0.005, 0.1, 20_001))
    inside = gap[0] <= 0.0
    crossed = ((gap[:-1] > 0.0) & (gap[1:] <= 0.0)).any(axis=0)
    assert (inside & crossed).sum() >= 32  # rays that leave the solid, then meet the next crest
    frame = render(cam, pose, CRESTS, rng=np.random.default_rng(0))
    assert sorted(pixel_of(frame, cam)) == list(np.nonzero(~inside & crossed)[0])


def test_thin_crest_between_band_samples_is_found():
    # the optical axis descends at 30 degrees along +y and dips 0.1 mm into
    # the crest at y = 0, 0.3 m out, so it is inside the solid for 1.3 mm
    s, c = 0.5, np.sqrt(0.75)
    rotation = np.array([[1.0, 0.0, 0.0], [0.0, -s, c], [0.0, -c, -s]])  # camera z = (0, c, -s)
    lo, hi = CRESTS.height_band()
    o = np.array([0.0, -0.3 * c, hi - 1e-4 + 0.3 * s])

    def gap(z):  # along the optical axis, pixel 40 of a 9x9 camera
        return o[2] - z * s - CRESTS.height_unchecked(0.0, o[1] + z * c)

    # the first crossing, where the gap falls monotonically toward the crest
    z_lo, z_hi = (hi - o[2]) / -s, 0.3
    for _ in range(60):
        z_mid = 0.5 * (z_lo + z_hi)
        z_lo, z_hi = (z_mid, z_hi) if gap(z_mid) > 0.0 else (z_lo, z_mid)
    # a 25-sample march over the band finds both samples around the crest above
    # the surface, so it sees no sign change there and skips the crest
    samples = np.linspace((hi - o[2]) / -s, (lo - o[2]) / -s, 25)
    assert samples[0] < z_lo < 0.3 < samples[1]
    assert gap(samples[0]) > 0.0 and gap(0.3) < 0.0 and gap(samples[1]) > 0.0
    cam = CameraModel(cols=9, rows=9)
    frame = render(cam, Pose(rotation, o), CRESTS, rng=np.random.default_rng(0))
    (hit,) = frame.points[pixel_of(frame, cam) == 40]
    assert abs(hit[2] - z_lo) < 1e-6 and np.abs(hit[:2]).max() < 1e-12


def test_grazing_ray_reaches_the_pass_cap(caplog):
    # a level camera 2e-8 m above a gentle crest line at y = 0: its middle row
    # of level rays closes in on the crest without ever stepping below 1e-7 m
    gentle = replace(CRESTS, period=1.0)
    rotation = np.array([[-1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])  # camera z = base +y
    pose = Pose(rotation, np.array([0.0, -0.3, gentle.height_band()[1] + 2e-8]))
    cam = CameraModel(cols=9, rows=9)
    with caplog.at_level(logging.DEBUG, logger="vauf.camera"):
        frame = render(cam, pose, gentle, rng=np.random.default_rng(0))
    assert [r.message for r in caplog.records] == ["camera: 9 grazing rays still marching after 1000 passes, counted as misses"]
    assert len(frame) and not np.isin(pixel_of(frame, cam), np.arange(36, 45)).any()
