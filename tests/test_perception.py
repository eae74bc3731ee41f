from collections import deque

import numpy as np
import pytest

from vauf.camera import MOUNT_ROTATION, CameraModel, EmptyViewError, render
from vauf.perception import (
    DegenerateSegmentError,
    NoSegmentError,
    PerceptionConfig,
    PointNormals,
    Segment,
    estimate_point_normals,
    orientation_error,
    perceive,
    pixel_index,
    region_grow,
    segment_from_points,
    segment_pca,
    select_working_segment,
)
from vauf.spatial import Pose
from vauf.surface import HeightField


def plane_cloud(n_side=24, z=0.3, extent=0.2, jitter=None, seed=0):
    """Grid on the plane z=const in the camera frame (camera at the origin)."""
    g = np.linspace(-extent / 2, extent / 2, n_side)
    xx, yy = np.meshgrid(g, g)
    pts = np.column_stack([xx.ravel(), yy.ravel(), np.full(xx.size, z)])
    if jitter:
        pts += np.random.default_rng(seed).normal(0, jitter, pts.shape)
    return pts


def two_plane_cloud(cols=40, rows=24):
    """An L shape seen from the origin: pinhole rays cast against the floor
    z = 0.3 and the wall x = -0.05, keeping the nearer hit."""
    u, v = np.meshgrid((np.arange(cols) + 0.5) / cols - 0.5, 0.8 * ((np.arange(rows) + 0.5) / rows - 0.5))
    rays = np.column_stack([u.ravel(), v.ravel(), np.ones(u.size)])
    with np.errstate(divide="ignore"):
        wall_depth = np.where(rays[:, 0] < 0.0, -0.05 / rays[:, 0], np.inf)
    return rays * np.minimum(0.3, wall_depth)[:, None]


def spherical_cap(radius, footprint=0.04, n=1200, center_depth=0.3):
    """Spherical patch over a fixed circular footprint, bulging toward the camera.

    Smaller sphere radius means a deeper bulge over the same footprint, so
    the covariance curvature ratio grows as the radius shrinks.
    """
    rng = np.random.default_rng(42)
    aperture = np.arcsin(min(footprint / radius, 1.0))
    cos_t = rng.uniform(np.cos(aperture), 1.0, n)
    sin_t = np.sqrt(1.0 - cos_t**2)
    phi = rng.uniform(0.0, 2 * np.pi, n)
    # sphere center behind the cap; cap apex at center_depth
    pts = np.column_stack(
        [radius * sin_t * np.cos(phi), radius * sin_t * np.sin(phi), center_depth + radius * (1 - cos_t)]
    )
    return pts


class TestPointNormals:
    def test_plane_normals_face_camera(self):
        res = estimate_point_normals(plane_cloud(), k=10)
        assert np.all(res.valid)
        assert np.abs(res.normals - np.array([0.0, 0.0, -1.0])).max() < 1e-9

    def test_two_plane_populations(self):
        cloud = two_plane_cloud()
        res = estimate_point_normals(cloud, k=8)
        dots = np.abs(res.normals[res.valid] @ np.array([0.0, 0.0, 1.0]))
        near_floor = (dots > 0.95).sum()
        near_wall = (dots < 0.05).sum()
        assert near_floor > 200 and near_wall > 200
        assert near_floor + near_wall > 0.9 * res.valid.sum()

    @pytest.mark.parametrize("k, side", [(5, 3), (9, 3), (10, 5), (80, 9), (81, 9), (82, 11)])
    def test_window_is_smallest_odd_square_and_graph_one_ring_wider(self, k, side):
        res = estimate_point_normals(plane_cloud(), k=k)
        assert res.neighbors.shape == (24 * 24, (side + 2) ** 2 - 1)

    def test_k_larger_than_cloud(self):
        with pytest.raises(ValueError):
            estimate_point_normals(plane_cloud(n_side=3), k=10)

    def test_collinear_points_flagged(self):
        pts = np.column_stack([np.linspace(0, 1, 50), np.zeros(50), np.full(50, 0.3)])
        res = estimate_point_normals(pts, k=6)
        assert not res.valid.any()


class TestRegionGrow:
    def test_single_plane_single_segment(self):
        cloud = plane_cloud()
        res = estimate_point_normals(cloud, k=10)
        segs = region_grow(cloud, res, np.deg2rad(8.0), 30)
        assert len(segs) == 1
        assert segs[0].size >= 0.95 * res.valid.sum()

    def test_two_planes_two_segments(self):
        cloud = two_plane_cloud()
        res = estimate_point_normals(cloud, k=8)
        segs = region_grow(cloud, res, np.deg2rad(8.0), 30)
        assert len(segs) == 2

    def test_empty_cloud(self):
        cloud = np.empty((0, 3))
        res_dummy = None
        with pytest.raises(NoSegmentError):
            region_grow(cloud, res_dummy or estimate_dummy(cloud), np.deg2rad(8.0), 30)


def region_grow_oracle(normals, angle_thresh, min_segment_size):
    """Member indices from a point-at-a-time FIFO search: the reference for region_grow."""
    cos_thresh = np.cos(angle_thresh)
    visited = ~normals.valid.copy()
    found = []
    for seed in np.argsort(normals.curvature, kind="stable"):
        if visited[seed]:
            continue
        seed_normal = normals.normals[seed]
        members = [int(seed)]
        visited[seed] = True
        queue = deque([int(seed)])
        while queue:
            i = queue.popleft()
            for j in normals.neighbors[i]:
                if not visited[j] and seed_normal @ normals.normals[j] >= cos_thresh:
                    visited[j] = True
                    members.append(int(j))
                    queue.append(int(j))
        if len(members) >= min_segment_size:
            found.append(np.array(members))
    found.sort(key=lambda m: -len(m))
    return found


def assert_matches_oracle(cloud, normals, angle_thresh, min_segment_size):
    segments = region_grow(cloud, normals, angle_thresh, min_segment_size)
    expected = region_grow_oracle(normals, angle_thresh, min_segment_size)
    assert len(segments) == len(expected)
    for seg, members in zip(segments, expected):
        assert np.array_equal(seg.indices, members)  # order included
        ref = segment_from_points(cloud[members])
        assert seg.centroid.tobytes() == ref.centroid.tobytes()
        assert seg.covariance.tobytes() == ref.covariance.tobytes()
    return segments


SURFACE = HeightField()
REFERENCE_CAMERA = CameraModel(noise_sigma=0.001)  # scenarios/reference.cfg
NOISY_32_CAMERA = CameraModel(noise_sigma=0.002)
DENSE_CAMERA = CameraModel(fov_h=np.deg2rad(30), fov_v=np.deg2rad(24), cols=64, rows=48, noise_sigma=0.002)
SURVEY_CAMERA = CameraModel(fov_h=np.deg2rad(30), fov_v=np.deg2rad(24), cols=48, rows=36)
ORACLE_CASES = {
    "reference": (REFERENCE_CAMERA, PerceptionConfig(), 0.25, 8),
    "noisy-2mm-32x24": (NOISY_32_CAMERA, PerceptionConfig(), 0.25, 8),
    "dense-64x48-k80": (DENSE_CAMERA, PerceptionConfig(k=80, angle_thresh=np.deg2rad(4.0), min_segment_size=60), 0.3, 3),
    "noise-free-survey": (SURVEY_CAMERA, PerceptionConfig(k=10, angle_thresh=np.deg2rad(3.0), min_segment_size=30), 0.3, 4),
}


def rendered_clouds(camera, height, n_frames, seed=0):
    """Frames over the wiping patch, from views tilted up to about 17 degrees."""
    rng = np.random.default_rng(seed)
    clouds = []
    while len(clouds) < n_frames:
        x, y, tilt = rng.uniform(-0.06, 0.06), rng.uniform(-0.2, 0.2), rng.uniform(-0.3, 0.3)
        c, s = np.cos(tilt), np.sin(tilt)
        r = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]]) @ MOUNT_ROTATION
        pose = Pose(r, np.array([x, y, float(SURFACE.height_unchecked(x, y)) + height]))
        try:
            clouds.append(render(camera, pose, SURFACE, rng=rng))
        except EmptyViewError:
            continue
    return clouds


class TestRegionGrowOracle:
    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_rendered_frames_match_fifo_search(self, case):
        camera, cfg, height, n_frames = ORACLE_CASES[case]
        for cloud in rendered_clouds(camera, height, n_frames):
            normals = estimate_point_normals(cloud, cfg.k)
            assert_matches_oracle(cloud, normals, cfg.angle_thresh, cfg.min_segment_size)

    def test_invalid_points_never_join(self):
        camera = REFERENCE_CAMERA
        cloud = rendered_clouds(camera, 0.25, 1)[0]
        # an organized rank-deficient strip: one pixel row of collinear points
        # 1 cm in front of the surface, three rows from the nearest kept row:
        # one more than the normal window's half-width (k=10: 5x5), so strip
        # windows hold strip points only, and within the growing graph's (7x7)
        strip_row = camera.rows // 2
        rays = camera.ray_directions()[strip_row * camera.cols : (strip_row + 1) * camera.cols]
        slope, pitch = rays[0, 1] / rays[0, 2], 2.0 * np.tan(0.5 * camera.fov_v) / camera.rows
        cloud = cloud[np.abs(cloud[:, 1] / cloud[:, 2] - slope) > 2.5 * pitch]
        strip = rays / rays[:, 2:] * (np.median(cloud[:, 2]) - 0.01)
        cloud = np.vstack([cloud, strip])
        normals = estimate_point_normals(cloud, 10)
        invalid = np.flatnonzero(~normals.valid)
        assert len(invalid) > 0
        assert np.isin(normals.neighbors[normals.valid], invalid).any()  # valid points border them
        segments = assert_matches_oracle(cloud, normals, np.deg2rad(8.0), 5)
        assert not any(np.isin(seg.indices, invalid).any() for seg in segments)

    def test_predicate_within_ulps_of_threshold(self):
        # a seed and neighbors whose per-pair dot product sits within a few
        # ulps of cos(angle_thresh), where a batched product can round across it
        angle = np.deg2rad(8.0)
        cos_thresh = np.cos(angle)
        rng = np.random.default_rng(3)
        seed = rng.normal(size=3)
        seed /= np.linalg.norm(seed)
        u = np.cross(seed, [1.0, 0.0, 0.0])
        u /= np.linalg.norm(u)
        w = np.cross(seed, u)
        phi = rng.uniform(0.0, 2.0 * np.pi, 100_000)
        ring = np.cos(angle) * seed + np.sin(angle) * (np.cos(phi)[:, None] * u + np.sin(phi)[:, None] * w)
        ring += rng.integers(-8, 9, ring.shape) * np.spacing(ring)
        ring = ring[np.abs(ring @ seed - cos_thresh) <= 4 * np.spacing(cos_thresh)][:300]
        nrm = np.vstack([seed, ring])
        n = len(nrm)
        assert n > 200
        assert (np.abs(nrm @ seed - cos_thresh) <= 1e-12).sum() == n - 1  # all take the re-check
        # every point neighbors all others; the seed has the lowest curvature
        neighbors = np.array([np.delete(np.arange(n), i) for i in range(n)])
        curvature = np.r_[0.0, np.ones(n - 1)]
        normals = PointNormals(normals=nrm, curvature=curvature, valid=np.ones(n, dtype=bool), neighbors=neighbors)
        cloud = rng.normal(size=(n, 3))
        segments = assert_matches_oracle(cloud, normals, angle, 1)
        from_seed = next(seg for seg in segments if seg.indices[0] == 0)
        scalar_ok = [j for j in range(1, n) if seed @ nrm[j] >= cos_thresh]
        assert 0 < len(scalar_ok) < n - 1
        assert from_seed.indices.tolist() == [0, *scalar_ok]


def camera_pixels(camera, cloud):
    """(row, col) of each point's pixel from the camera's own ray grid."""
    tan_h, tan_v = np.tan(0.5 * camera.fov_h), np.tan(0.5 * camera.fov_v)
    col = np.rint((cloud[:, 0] / cloud[:, 2] / tan_h + 1.0) * camera.cols / 2 - 0.5).astype(int)
    row = np.rint((cloud[:, 1] / cloud[:, 2] / tan_v + 1.0) * camera.rows / 2 - 0.5).astype(int)
    return row, col


def assert_pixels_recovered(camera, cloud):
    row, col = pixel_index(cloud)
    true_row, true_col = camera_pixels(camera, cloud)
    assert np.array_equal(row, true_row - true_row.min())
    assert np.array_equal(col, true_col - true_col.min())


class TestPixelIndex:
    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_exact_on_rendered_frames(self, case):
        camera, _, height, n_frames = ORACLE_CASES[case]
        for cloud in rendered_clouds(camera, height, n_frames):
            assert_pixels_recovered(camera, cloud)

    def test_exact_on_reference_run_frames(self, reference_scenario, monkeypatch):
        from vauf import runtime

        frames = []

        def render(*args, **kwargs):
            frames.append(runtime_render(*args, **kwargs))
            return frames[-1]

        runtime_render = runtime.render
        monkeypatch.setattr(runtime, "render", render)
        runtime.run_scenario(reference_scenario)
        assert len(frames) == 67
        for cloud in frames:
            assert_pixels_recovered(reference_scenario.camera, cloud)

    @pytest.mark.parametrize("shift", [np.sqrt(2.0) * 1e-5, 0.3, 1e-3])
    def test_off_grid_point_raises(self, shift):
        # 1.4e-5 and 0.3 pitch leave the point off every grid through the
        # other slopes; 1e-3 pitch makes a grid 1,000 times finer that holds
        # every point but is far too large for the cloud
        camera = REFERENCE_CAMERA
        cloud = rendered_clouds(camera, 0.25, 1)[0]
        pitch = 2.0 * np.tan(0.5 * camera.fov_h) / camera.cols
        cloud[7, 0] += shift * pitch * cloud[7, 2]
        with pytest.raises(ValueError, match="organized"):
            pixel_index(cloud)

    def test_two_points_on_one_pixel_raise(self):
        cloud = rendered_clouds(REFERENCE_CAMERA, 0.25, 1)[0]
        cloud = np.vstack([cloud, 1.01 * cloud[7]])  # same ray, 1% deeper
        with pytest.raises(ValueError, match="organized"):
            pixel_index(cloud)


def estimate_dummy(cloud):
    from vauf.perception import PointNormals

    n = len(cloud)
    return PointNormals(
        normals=np.zeros((n, 3)),
        curvature=np.zeros(n),
        valid=np.zeros(n, dtype=bool),
        neighbors=np.zeros((n, 1), dtype=int),
    )


def covariance_segment(cov, centroid=(0.1, 0.1, 0.3)):
    """A segment with the given covariance, off the axis of a camera at the origin."""
    return Segment(indices=np.arange(3), centroid=np.array(centroid), covariance=np.array(cov, dtype=float))


class TestSegmentPCA:
    def test_diagonal_covariance(self):
        for diagonal, eigenvalues, axis in (
            ([3.0, 2.0, 1.0], [3.0, 2.0, 1.0], 2),
            ([1.0, 3.0, 2.0], [3.0, 2.0, 1.0], 0),
            ([2.0, 1.0, 3.0], [3.0, 2.0, 1.0], 1),
            ([1.0, -3.0, 4.0], [4.0, -3.0, 1.0], 0),  # descending |l|, not descending l
        ):
            res = segment_pca(covariance_segment(np.diag(diagonal)))
            assert np.array_equal(res.eigenvalues, eigenvalues)
            assert np.array_equal(res.n_s_camera, -np.eye(3)[axis])  # the smallest |l|, facing the camera
            assert res.l_s == pytest.approx(abs(eigenvalues[2] / sum(eigenvalues)), rel=1e-15)

    def test_isotropic_covariance(self):
        res = segment_pca(covariance_segment(np.eye(3)))
        assert np.allclose(res.eigenvalues, 1.0)
        assert abs(np.linalg.norm(res.n_s_camera) - 1.0) < 1e-12
        assert res.n_s_camera @ np.array([0.1, 0.1, 0.3]) <= 0.0
        assert res.l_s == pytest.approx(1.0 / 3.0)

    def test_plane_samples_smallest_eigenvalue(self):
        # brute-force covariance of synthetic planar samples
        rng = np.random.default_rng(4)
        pts = np.column_stack([rng.uniform(-1, 1, 1000), rng.uniform(-1, 1, 1000), np.zeros(1000)])
        centered = pts - pts.mean(axis=0)
        cov = centered.T @ centered / len(pts)
        res = segment_pca(segment_from_points(pts))
        assert abs(res.eigenvalues[2]) < 1e-9 * np.trace(cov)

    def test_eigenpairs_of_random_symmetric_matrices(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = rng.normal(size=(3, 3))
            m = a + a.T
            if np.trace(m) < 0.0:  # segment_pca rejects a trace below 1e-12
                m = -m
            res = segment_pca(covariance_segment(m))
            vals, n_s = res.eigenvalues, res.n_s_camera
            assert np.all(np.abs(vals)[:-1] >= np.abs(vals)[1:])  # sorted |.| desc
            assert np.abs(np.sort(vals) - np.linalg.eigvalsh(m)).max() < 1e-12 * np.abs(m).max()
            assert np.abs(m @ n_s - vals[2] * n_s).max() < 1e-8 * np.abs(m).max()
            assert abs(np.linalg.norm(n_s) - 1.0) < 1e-12

    def test_planar_segment(self):
        seg = segment_from_points(plane_cloud())
        res = segment_pca(seg)
        assert res.l_s < 1e-6
        assert np.allclose(res.n_s_camera, [0.0, 0.0, -1.0], atol=1e-9)

    def test_spherical_cap_matches_brute_force(self):
        pts = spherical_cap(radius=0.1)
        res = segment_pca(segment_from_points(pts))
        # independent oracle: numpy covariance + eigvalsh
        cov = np.cov(pts.T, bias=True)
        vals = np.linalg.eigvalsh(cov)
        l_s_ref = abs(vals[np.argmin(np.abs(vals))] / np.trace(cov))
        assert res.l_s == pytest.approx(l_s_ref, rel=1e-10)

    def test_curvature_monotone_in_radius(self):
        ls = [segment_pca(segment_from_points(spherical_cap(r))).l_s for r in (0.05, 0.1, 0.2)]
        assert ls[0] > ls[1] > ls[2]

    def test_degenerate_segment(self):
        pts = np.tile(np.array([0.0, 0.0, 0.3]), (40, 1))
        with pytest.raises(DegenerateSegmentError):
            segment_pca(segment_from_points(pts))


class TestOrientationError:
    def test_aligned_sign_folded(self):
        assert orientation_error(np.array([0.0, 0.0, -1.0])) == 0.0

    def test_orthogonal(self):
        assert orientation_error(np.array([1.0, 0.0, 0.0])) == pytest.approx(np.pi / 2)

    def test_ten_degrees(self):
        a = np.deg2rad(10.0)
        n = np.array([0.0, np.sin(a), -np.cos(a)])
        assert orientation_error(n) == pytest.approx(a, abs=1e-12)


class TestSelectWorkingSegment:
    def test_single(self):
        seg = segment_from_points(plane_cloud())
        assert select_working_segment([seg]) is seg

    def test_prefers_on_axis(self):
        center = segment_from_points(plane_cloud(extent=0.1))
        off = segment_from_points(plane_cloud(extent=0.1) + np.array([0.2, 0.0, 0.0]))
        assert select_working_segment([off, center]) is center

    def test_tie_broken_by_size(self):
        big = segment_from_points(plane_cloud(n_side=23) + np.array([0.1, 0.0, 0.0]))
        small = segment_from_points(plane_cloud(n_side=20) + np.array([-0.1, 0.0, 0.0]))
        # equal axis distance, larger segment wins; list arrives size-sorted
        assert select_working_segment([big, small]) is big


class TestPipeline:
    def test_perceive_plane(self):
        res = perceive(plane_cloud(), PerceptionConfig())
        assert res.theta < 1e-6
        assert res.l_s < 1e-6

    def test_perceive_small_cloud(self):
        with pytest.raises(NoSegmentError):
            perceive(np.zeros((3, 3)), PerceptionConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PerceptionConfig(k=2)
        with pytest.raises(ValueError):
            PerceptionConfig(angle_thresh=2.0)
