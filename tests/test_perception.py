from collections import deque
import math
import tracemalloc

from hypothesis import assume, given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from vauf import perception
from vauf.camera import MOUNT_ROTATION, CameraModel, EmptyViewError, Frame, render
from vauf.perception import (
    DegenerateSegmentError,
    NoSegmentError,
    PerceptionConfig,
    PointNormals,
    _box_sum,
    _facing_normals,
    estimate_point_normals,
    orientation_error,
    perceive,
    region_grow,
    segment_pca,
    select_working_segment,
    smallest_eigenpairs,
)
from vauf.spatial import Pose
from vauf.surface import HeightField
from conftest import traced_peak


def grid_frame(points, cols):
    """Frame of points given row by row over a full pixel grid cols wide."""
    row, col = np.divmod(np.arange(len(points)), cols)
    return Frame(points, row, col)


def subset(frame, index):
    """The frame's points at index (a mask or indices), each on its own pixel."""
    return Frame(frame.points[index], frame.row[index], frame.col[index])


def plane_frame(n_side=24, z=0.3, extent=0.2):
    """Grid on the plane z=const in the camera frame (camera at the origin)."""
    g = np.linspace(-extent / 2, extent / 2, n_side)
    xx, yy = np.meshgrid(g, g)
    return grid_frame(np.column_stack([xx.ravel(), yy.ravel(), np.full(xx.size, z)]), n_side)


def two_plane_frame(cols=40, rows=24):
    """An L shape seen from the origin: pinhole rays cast against the floor
    z = 0.3 and the wall x = -0.05, keeping the nearer hit."""
    u, v = np.meshgrid((np.arange(cols) + 0.5) / cols - 0.5, 0.8 * ((np.arange(rows) + 0.5) / rows - 0.5))
    rays = np.column_stack([u.ravel(), v.ravel(), np.ones(u.size)])
    with np.errstate(divide="ignore"):
        wall_depth = np.where(rays[:, 0] < 0.0, -0.05 / rays[:, 0], np.inf)
    return grid_frame(rays * np.minimum(0.3, wall_depth)[:, None], cols)


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


def window_graph(normals):
    """(N, m) table of each point's window points, ring by ring, read from the
    raster addresses; a pixel that holds no point reads the sentinel N."""
    n = len(normals.pixel)
    index = np.full(normals.pixel.max() + normals.offsets.max() + 1, n)
    index[normals.pixel] = np.arange(n)
    return index[normals.pixel[:, None] + normals.offsets]


class TestPointNormals:
    def test_plane_normals_face_camera(self):
        res = estimate_point_normals(plane_frame(), k=10)
        assert np.all(res.valid)
        assert np.abs(res.normals - np.array([0.0, 0.0, -1.0])).max() < 1e-9

    def test_two_plane_populations(self):
        res = estimate_point_normals(two_plane_frame(), k=8)
        dots = np.abs(res.normals[res.valid] @ np.array([0.0, 0.0, 1.0]))
        near_floor = (dots > 0.95).sum()
        near_wall = (dots < 0.05).sum()
        assert near_floor > 200 and near_wall > 200
        assert near_floor + near_wall > 0.9 * res.valid.sum()

    @pytest.mark.parametrize("k, side", [(5, 3), (9, 3), (10, 5), (80, 9), (81, 9), (82, 11)])
    def test_window_is_smallest_odd_square_and_graph_one_ring_wider(self, k, side):
        frame = plane_frame()
        graph = window_graph(estimate_point_normals(frame, k=k))
        n = len(frame)
        assert graph.shape == (n, (side + 2) ** 2 - 1)
        # the sentinel n exactly where the window pixel holds no point: off
        # the 24x24 grid, or on a pixel dropped from the cloud
        assert graph.min() >= 0 and graph.max() == n
        half = side // 2 + 1
        offsets = [(dr, dc) for dr in range(-half, half + 1) for dc in range(-half, half + 1)]
        ring = sorted(offsets, key=lambda o: max(abs(o[0]), abs(o[1])))[1:]  # stable: row-major per ring
        kept = np.delete(np.arange(n), [0, 100, 300])
        sub = window_graph(estimate_point_normals(subset(frame, kept), k=k))
        at = {(i // 24, i % 24): j for j, i in enumerate(kept)}
        for j, i in enumerate(kept):
            expected = [at.get((i // 24 + dr, i % 24 + dc), len(kept)) for dr, dc in ring]
            assert sub[j].tolist() == expected

    def test_collinear_points_flagged(self):
        pts = np.column_stack([np.linspace(0, 1, 50), np.zeros(50), np.full(50, 0.3)])
        res = estimate_point_normals(grid_frame(pts, 50), k=6)
        assert not res.valid.any()


# the six second moments x*x, x*y, x*z, y*y, y*z, z*z
FIRST, SECOND = [0, 0, 0, 1, 1, 2], [0, 1, 2, 1, 2, 2]


def padded_copy_window_sums(frame, k):
    """(N, 10) window sums of the moments at each point's pixel, the way an
    unpadded moment image, its np.pad copy and a [row, col] gather gave them."""
    row, col = frame.row, frame.col
    half = (math.isqrt(k - 1) + 1) // 2
    c = frame.points - frame.points.mean(axis=0)
    image = np.zeros((row.max() + 1, col.max() + 1, 10))
    image[row, col] = np.column_stack([np.ones(len(c)), c, c[:, FIRST] * c[:, SECOND]])
    rows, cols = image.shape[:2]
    padded = np.pad(image, ((half, half), (half, half), (0, 0)))
    band = np.zeros((rows,) + padded.shape[1:])
    for i in range(2 * half + 1):
        band += padded[i : i + rows]
    out = np.zeros(image.shape)
    for j in range(2 * half + 1):
        out += band[:, j : j + cols]
    return out[row, col]


def random_organized_frame(rng, rows, cols):
    """Points at random depths on a random share of a rows x cols pinhole grid.
    The four corner pixels always hold a point, so windows cross every edge."""
    r, c = np.divmod(np.arange(rows * cols), cols)
    kept = rng.random(rows * cols) < rng.uniform(0.3, 1.0)
    kept[[0, cols - 1, (rows - 1) * cols, rows * cols - 1]] = True
    r, c = r[kept], c[kept]
    z = rng.uniform(0.2, 0.4, len(c))
    return Frame(np.column_stack([(c - 0.5 * cols) * 0.01 * z, (r - 0.5 * rows) * 0.01 * z, z]), r, c)


def creased_frame(rng, rows, cols, bend, sigma):
    """Points on a random share of a rows x cols pinhole grid, on a surface
    creased down the middle column by bend, with depth noise sigma. The four
    corner pixels always hold a point."""
    r, c = np.divmod(np.arange(rows * cols), cols)
    kept = rng.random(rows * cols) < rng.uniform(0.3, 1.0)
    kept[[0, cols - 1, (rows - 1) * cols, rows * cols - 1]] = True
    r, c = r[kept], c[kept]
    z = 0.3 + 0.01 * bend * np.abs(c - 0.5 * cols) + rng.normal(0.0, sigma, len(c))
    return Frame(np.column_stack([(c - 0.5 * cols) * 0.01 * z, (r - 0.5 * rows) * 0.01 * z, z]), r, c)


class TestWindowSums:
    """Window sums taken in the growing raster and read at each point's
    address, against the padded-copy sums they replaced, bit for bit."""

    @staticmethod
    def assert_matches_padded_copy(frame, k, monkeypatch):
        rasters = []

        def box_sum(image, half):
            _box_sum(image, half)
            rasters.append(image)

        monkeypatch.setattr(perception, "_box_sum", box_sum)
        normals = estimate_point_normals(frame, k)
        (raster,) = rasters
        sums = raster.reshape(-1, 10)[normals.pixel]
        expected = padded_copy_window_sums(frame, k)
        assert sums.tobytes() == expected.tobytes()
        # the raster region growing walks: a window one ring wider stays inside it
        assert normals.pixel.max() + normals.offsets.max() < raster.shape[0] * raster.shape[1]
        assert normals.pixel.min() + normals.offsets.min() >= 0
        count, mean = expected[:, 0], expected[:, 1:4] / expected[:, :1]
        cov = (expected[:, 4:] / expected[:, :1] - mean[:, FIRST] * mean[:, SECOND]).T
        _, _, oracle_normals, curvature, usable = _facing_normals(cov, frame.points)
        assert normals.normals.tobytes() == oracle_normals.tobytes()
        assert normals.curvature.tobytes() == curvature.tobytes()
        assert np.array_equal(normals.valid, (count >= 3) & usable)

    @pytest.mark.parametrize("half", [1, 2, 3, 4, 5])
    def test_random_organized_clouds(self, half, monkeypatch):
        rng = np.random.default_rng(half)
        for _ in range(8):
            rows, cols = rng.integers(1, 3 * half + 9, size=2)
            self.assert_matches_padded_copy(random_organized_frame(rng, rows, cols), (2 * half + 1) ** 2, monkeypatch)

    @pytest.mark.parametrize("case", ["reference", "dense-64x48-k80"])
    def test_rendered_frames(self, case, monkeypatch):
        camera, cfg, height, n_frames = ORACLE_CASES[case]
        for frame in rendered_frames(camera, height, n_frames):
            self.assert_matches_padded_copy(frame, cfg.k, monkeypatch)


# entries zero or at least 1e-30 in magnitude, so no product the closed form
# takes underflows; 0, 1, 2 or 3 outer products make the zero matrix, a
# rank-1 matrix, an exact rank-2 matrix and a random symmetric PSD one
ENTRIES = st.one_of(st.just(0.0), st.floats(1e-30, 1.0), st.floats(-1.0, -1e-30))
PSD_MATRICES = st.lists(st.tuples(ENTRIES, ENTRIES, ENTRIES), max_size=3).map(
    lambda vs: sum((np.outer(v, v) for v in vs), np.zeros((3, 3)))
)
EPS = np.finfo(float).eps


class TestSmallestEigenpairs:
    @settings(max_examples=500, deadline=None)
    @given(PSD_MATRICES)
    def test_matches_eigh(self, m):
        low, high, vec, usable = smallest_eigenpairs(m[[0, 0, 0, 1, 1, 2], [0, 1, 2, 1, 2, 2]][:, None])
        low, high, vec = low[0], high[0], vec[0]
        vals, vecs = np.linalg.eigh(m)
        trace, gap, norm = vals.sum(), vals[1] - vals[0], np.abs(vals).max()
        spread = vals[2] - vals[0]
        # where the two largest coincide, the trigonometric l2 keeps about half its digits
        assert abs(high - vals[2]) <= 1e3 * EPS * norm + 2.0 * np.sqrt(EPS * norm * spread)
        # a pair within 1e-6 of the spread has no defined normal; the band
        # up to 1e-3, where the cut at about 1e-4 falls, is assumed away
        assume(not 1e-6 * spread < gap <= 1e-3 * spread)
        if gap <= 1e-6 * spread:
            assert not usable[0]
            return
        # the minor sum over l2 lies in [l1, 3 l1]: away from the threshold
        # it flags what the rule l1 > 1e-12 trace on eigh's l1 flagged
        assume(not 0.3e-12 * trace < vals[1] <= 1.01e-12 * trace)
        assert usable[0] == (trace > 0.0 and vals[1] > 1e-12 * trace)
        assert abs(np.linalg.norm(vec) - 1.0) <= 4 * EPS
        # l0 and its vector lose at most the digits of a pair 1e-3 of the
        # spread apart
        assert np.linalg.norm(m @ vec - low * vec) <= 1e5 * EPS * norm
        if gap > 1e-6 * trace:
            assert np.linalg.norm(np.cross(vec, vecs[:, 0])) <= 1e5 * EPS * trace / gap

    @pytest.mark.parametrize("n", [2, 7, 300])
    def test_one_column_matches_its_batch(self, n):
        # segment_pca solves one matrix and estimate_point_normals thousands:
        # a matrix gets the same bits alone as inside a batch
        rng = np.random.default_rng(n)
        a = rng.normal(size=(n, 3, 3))
        cov = np.einsum("nij,nkj->nik", a, a)[:, [0, 0, 0, 1, 1, 2], [0, 1, 2, 1, 2, 2]].T.copy()
        batch = smallest_eigenpairs(cov)
        for j in range(n):
            alone = smallest_eigenpairs(cov[:, j : j + 1])
            assert all(got.tobytes() == whole[j : j + 1].tobytes() for got, whole in zip(alone, batch))

    def test_close_smallest_pair_not_usable(self):
        # the two smallest eigenvalues coincide: every unit vector of their
        # plane is an eigenvector, so the window has no normal
        m = np.diag([1e-3, 1e-3, 1.0])
        *_, usable = smallest_eigenpairs(m[[0, 0, 0, 1, 1, 2], [0, 1, 2, 1, 2, 2]][:, None])
        assert not usable[0]


class TestRegionGrow:
    def test_single_plane_single_segment(self):
        frame = plane_frame()
        res = estimate_point_normals(frame, k=10)
        segs = region_grow(frame.points, res, np.deg2rad(8.0), 30)
        assert len(segs) == 1
        assert segs[0].size >= 0.95 * res.valid.sum()

    def test_two_planes_two_segments(self):
        frame = two_plane_frame()
        res = estimate_point_normals(frame, k=8)
        segs = region_grow(frame.points, res, np.deg2rad(8.0), 30)
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
    graph = window_graph(normals)
    found = []
    for seed in np.argsort(normals.curvature, kind="stable"):
        if visited[seed]:
            continue
        dots = normals.normals @ normals.normals[seed]  # the predicate, once per seed
        members = [int(seed)]
        visited[seed] = True
        queue = deque([int(seed)])
        while queue:
            i = queue.popleft()
            for j in graph[i]:
                if j < len(visited) and not visited[j] and dots[j] >= cos_thresh:
                    visited[j] = True
                    members.append(int(j))
                    queue.append(int(j))
        if len(members) >= min_segment_size:
            found.append(np.array(members))
    found.sort(key=lambda m: -len(m))
    return found


def assert_matches_oracle(points, normals, angle_thresh, min_segment_size):
    segments = region_grow(points, normals, angle_thresh, min_segment_size)
    expected = region_grow_oracle(normals, angle_thresh, min_segment_size)
    assert len(segments) == len(expected)
    for seg, members in zip(segments, expected):
        assert np.array_equal(seg, members)  # order included
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
    # growing stops after 17, 7 and 8 of the frames' 85, 94 and 73 seeds
    "dense-64x48-k80-min600": (DENSE_CAMERA, PerceptionConfig(k=80, angle_thresh=np.deg2rad(4.0), min_segment_size=600), 0.3, 3),
}


def rendered_frames(camera, height, n_frames, seed=0):
    """Frames over the wiping patch, from views tilted up to about 17 degrees."""
    rng = np.random.default_rng(seed)
    frames = []
    while len(frames) < n_frames:
        x, y, tilt = rng.uniform(-0.06, 0.06), rng.uniform(-0.2, 0.2), rng.uniform(-0.3, 0.3)
        c, s = np.cos(tilt), np.sin(tilt)
        r = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]]) @ MOUNT_ROTATION
        pose = Pose(r, np.array([x, y, float(SURFACE.height_unchecked(x, y)) + height]))
        try:
            frames.append(render(camera, pose, SURFACE, rng=rng))
        except EmptyViewError:
            continue
    return frames


class TestRegionGrowOracle:
    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_rendered_frames_match_fifo_search(self, case):
        camera, cfg, height, n_frames = ORACLE_CASES[case]
        for frame in rendered_frames(camera, height, n_frames):
            normals = estimate_point_normals(frame, cfg.k)
            assert_matches_oracle(frame.points, normals, cfg.angle_thresh, cfg.min_segment_size)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 10),
        cols=st.integers(1, 10),
        k=st.sampled_from([5, 9, 25]),
        bend=st.floats(0.0, 1.0),
        sigma=st.sampled_from([0.0, 1e-4, 1e-3]),
        angle_deg=st.floats(1.0, 60.0),
        data=st.data(),
    )
    def test_stop_keeps_every_segment(self, seed, rows, cols, k, bend, sigma, angle_deg, data):
        # min_segment_size from 1, where growing runs to the last seed, to
        # N + 1, where it stops before the first: the same segments, in the
        # same order, or NoSegmentError from both
        frame = creased_frame(np.random.default_rng(seed), rows, cols, bend, sigma)
        normals = estimate_point_normals(frame, k)
        angle, min_segment_size = np.deg2rad(angle_deg), data.draw(st.integers(1, len(frame) + 1))
        if region_grow_oracle(normals, angle, min_segment_size):
            assert_matches_oracle(frame.points, normals, angle, min_segment_size)
        else:
            with pytest.raises(NoSegmentError):
                region_grow(frame.points, normals, angle, min_segment_size)

    def test_dense_frame_builds_no_window_table(self):
        # an (N, m) growing graph on the 64x48, k=80 frame is about 2,900 x 120
        # int64, 2.8 MB per table; growing on raster addresses holds arrays of
        # the padded raster's 58 x 74 pixels instead
        camera, cfg, height, n_frames = ORACLE_CASES["dense-64x48-k80"]
        for frame in rendered_frames(camera, height, n_frames):
            tracemalloc.start()
            try:
                perceive(frame, cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4e6

    def test_invalid_points_never_join(self):
        camera = REFERENCE_CAMERA
        frame = rendered_frames(camera, 0.25, 1)[0]
        # an organized rank-deficient strip: one pixel row of collinear points
        # 1 cm in front of the surface, three rows from the nearest kept row:
        # one more than the normal window's half-width (k=10: 5x5), so strip
        # windows hold strip points only, and within the growing graph's (7x7)
        strip_row = camera.rows // 2
        rays = camera.ray_directions()[strip_row * camera.cols : (strip_row + 1) * camera.cols]
        frame = subset(frame, np.abs(frame.row - strip_row) >= 3)
        strip = rays / rays[:, 2:] * (np.median(frame.points[:, 2]) - 0.01)
        frame = Frame(
            np.vstack([frame.points, strip]),
            np.r_[frame.row, np.full(camera.cols, strip_row)],
            np.r_[frame.col, np.arange(camera.cols)],
        )
        normals = estimate_point_normals(frame, 10)
        invalid = np.flatnonzero(~normals.valid)
        assert len(invalid) > 0
        assert np.isin(window_graph(normals)[normals.valid], invalid).any()  # valid points border them
        segments = assert_matches_oracle(frame.points, normals, np.deg2rad(8.0), 5)
        assert not any(np.isin(seg, invalid).any() for seg in segments)

    def test_predicate_within_ulps_of_threshold(self):
        # a seed and neighbors whose per-pair dot product sits within a few
        # ulps of cos(angle_thresh), where the batched row and a per-pair dot
        # round to different sides: membership follows the batched row alone
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
        assert (np.abs(nrm @ seed - cos_thresh) <= 1e-12).sum() == n - 1
        # every point neighbors all others, in ascending order: a raster row
        # padded by n on each side and every nonzero step in (-n, n); the
        # seed has the lowest curvature
        pixel, offsets = n + np.arange(n), np.delete(np.arange(1 - n, n), n - 1)
        curvature = np.r_[0.0, np.ones(n - 1)]
        normals = PointNormals(
            normals=nrm, curvature=curvature, valid=np.ones(n, dtype=bool), pixel=pixel, offsets=offsets
        )
        graph = window_graph(normals)
        assert all(np.array_equal(row[row < n], np.delete(np.arange(n), i)) for i, row in enumerate(graph))
        cloud = rng.normal(size=(n, 3))
        segments = assert_matches_oracle(cloud, normals, angle, 1)
        from_seed = next(seg for seg in segments if seg[0] == 0)
        batched_ok = np.flatnonzero((nrm @ seed)[1:] >= cos_thresh) + 1
        assert 0 < len(batched_ok) < n - 1
        scalar_ok = [j for j in range(1, n) if seed @ nrm[j] >= cos_thresh]
        assert batched_ok.tolist() != scalar_ok  # a per-pair re-check would move members
        assert from_seed.tolist() == [0, *batched_ok]


def frame_bytes(frame, cfg):
    """Every array estimate_point_normals returns for the frame, and its perceive result, as bytes."""
    normals = estimate_point_normals(frame, cfg.k)
    result = perceive(frame, cfg)
    return b"".join(
        a.tobytes() for a in (*vars(normals).values(), result.n_s_camera, result.eigenvalues, np.array([result.l_s, result.theta]))
    )


class TestFrameWorkspace:
    """The moments raster and _box_sum's band are kept across calls."""

    def test_no_value_leaks_between_frames(self, monkeypatch):
        camera, dense_cfg, height, _ = ORACLE_CASES["dense-64x48-k80"]
        dense = rendered_frames(camera, height, 1)[0]
        cropped = subset(dense, dense.row < dense.row.max() - 3)  # the bottom rows missed: a shorter raster
        reference = rendered_frames(REFERENCE_CAMERA, 0.25, 1)[0]
        calls = [(dense, dense_cfg), (reference, PerceptionConfig()), (cropped, dense_cfg), (dense, dense_cfg)]
        assert len({frame.row.max() for frame, _ in calls}) == 3
        in_turn = [frame_bytes(frame, cfg) for frame, cfg in calls]
        fresh = []
        for frame, cfg in calls:  # each call as the first of a process
            monkeypatch.setattr(perception, "_WORKSPACE", {"moments": np.empty(0), "band": np.empty(0)})
            fresh.append(frame_bytes(frame, cfg))
        assert in_turn == fresh

    def test_warm_dense_frame_holds_only_its_temporaries(self):
        # the traced peak of a warm call above the live heap: 2.05-2.09 MB when
        # both rasters were allocated anew and the eigensolver held all its
        # temporaries to the end, 1.11-1.13 MB with the rasters kept and the
        # solver's halves freeing theirs on return
        camera, cfg, height, n_frames = ORACLE_CASES["dense-64x48-k80"]
        for frame in rendered_frames(camera, height, n_frames):
            estimate_point_normals(frame, cfg.k)
            assert traced_peak(lambda: estimate_point_normals(frame, cfg.k)) < 1.5e6


def assert_on_own_pixel_rays(camera, frame):
    rays = camera.ray_directions()[frame.row * camera.cols + frame.col]
    assert np.abs(frame.points / np.linalg.norm(frame.points, axis=1, keepdims=True) - rays).max() <= 1e-12


class TestPixelIndex:
    """The pixel a frame gives each point: the pixel whose ray the point lies on, one point per pixel."""

    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_exact_on_rendered_frames(self, case):
        camera, _, height, n_frames = ORACLE_CASES[case]
        for frame in rendered_frames(camera, height, n_frames):
            assert_on_own_pixel_rays(camera, frame)

    def test_exact_on_reference_run_frames(self, reference_scenario, monkeypatch):
        from vauf import runtime

        frames = []

        def render(*args, **kwargs):
            frames.append(runtime_render(*args, **kwargs))
            return frames[-1]

        runtime_render = runtime.render
        monkeypatch.setattr(runtime, "render", render)
        runtime.run_scenario(reference_scenario)
        assert len(frames) == 66  # the perception ticks but the last, t = 0 to 19.5 s
        for frame in frames:
            assert_on_own_pixel_rays(reference_scenario.camera, frame)

    def test_arrays_of_different_lengths_raise(self):
        frame = rendered_frames(REFERENCE_CAMERA, 0.25, 1)[0]
        with pytest.raises(ValueError, match="differ in length"):
            Frame(frame.points, frame.row[:-1], frame.col)

    def test_two_points_on_one_pixel_raise(self):
        frame = rendered_frames(REFERENCE_CAMERA, 0.25, 1)[0]
        points = np.vstack([frame.points, 1.01 * frame.points[7]])  # same ray, 1% deeper
        with pytest.raises(ValueError, match="two points on one pixel"):
            Frame(points, np.r_[frame.row, frame.row[7]], np.r_[frame.col, frame.col[7]])


def estimate_dummy(cloud):
    from vauf.perception import PointNormals

    n = len(cloud)
    return PointNormals(
        normals=np.zeros((n, 3)),
        curvature=np.zeros(n),
        valid=np.zeros(n, dtype=bool),
        pixel=np.arange(1, n + 1),
        offsets=np.array([-1, 1]),
    )


def axis_pairs(counts, centroid=(0.125, 0.125, 0.375)):
    """Points c +- 3 e_i, counts[i] pairs along axis i, off the axis of a camera at the origin.

    Every sum is exact, so the covariance is exactly 9 diag(counts) / sum(counts).
    """
    offsets = np.vstack([np.repeat(3.0 * np.eye(3), counts, axis=0)] * 2)
    offsets[len(offsets) // 2 :] *= -1.0
    return offsets + np.array(centroid)


class TestSegmentPCA:
    def test_diagonal_covariance(self):
        for counts, eigenvalues, axis in (
            ([3, 2, 1], [4.5, 3.0, 1.5], 2),
            ([1, 3, 2], [4.5, 3.0, 1.5], 0),
            ([2, 1, 3], [4.5, 3.0, 1.5], 1),
        ):
            res = segment_pca(axis_pairs(counts))
            assert np.allclose(res.eigenvalues, eigenvalues, rtol=1e-15, atol=0.0)  # the closed form's 1.5 is 1.5 + 4e-16
            assert np.array_equal(res.n_s_camera, -np.eye(3)[axis])  # the smallest, facing the camera
            assert res.l_s == pytest.approx(eigenvalues[2] / sum(eigenvalues), rel=1e-15)

    def test_isotropic_covariance(self):
        # every direction is an eigenvector: the segment has no normal
        with pytest.raises(DegenerateSegmentError):
            segment_pca(axis_pairs([1, 1, 1]))

    @pytest.mark.parametrize("shape", ["collinear", "isotropic"])
    def test_segment_without_normal(self, shape):
        if shape == "collinear":  # rank 1: a line has no plane normal
            points = np.array([0.01, 0.02, 0.3]) + np.linspace(-0.05, 0.05, 40)[:, None] * np.array([0.6, 0.0, 0.8])
        else:  # a cube's corners: every sum is exact, so the covariance is exactly I / 16
            points = np.array(np.meshgrid(*[[-0.25, 0.25]] * 3)).reshape(3, -1).T + np.array([0.125, 0.125, 0.375])
        with pytest.raises(DegenerateSegmentError):
            segment_pca(points)

    def test_plane_samples_smallest_eigenvalue(self):
        # brute-force covariance of synthetic planar samples
        rng = np.random.default_rng(4)
        pts = np.column_stack([rng.uniform(-1, 1, 1000), rng.uniform(-1, 1, 1000), np.zeros(1000)])
        centered = pts - pts.mean(axis=0)
        cov = centered.T @ centered / len(pts)
        res = segment_pca(pts)
        assert abs(res.eigenvalues[2]) < 1e-9 * np.trace(cov)

    def test_eigenpairs_of_random_symmetric_matrices(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            pts = rng.normal(size=(20, 3)) @ rng.normal(size=(3, 3)) + np.array([0.0, 0.0, 0.3])
            cov = np.cov(pts.T, bias=True)
            res = segment_pca(pts)
            vals, n_s = res.eigenvalues, res.n_s_camera
            assert np.all(vals[:-1] >= vals[1:])  # sorted descending
            assert np.abs(np.sort(vals) - np.linalg.eigvalsh(cov)).max() < 1e-12 * np.abs(cov).max()
            assert np.abs(cov @ n_s - vals[2] * n_s).max() < 1e-8 * np.abs(cov).max()
            assert abs(np.linalg.norm(n_s) - 1.0) < 1e-12

    def test_planar_segment(self):
        res = segment_pca(plane_frame().points)
        assert res.l_s < 1e-6
        assert np.allclose(res.n_s_camera, [0.0, 0.0, -1.0], atol=1e-9)

    def test_spherical_cap_matches_brute_force(self):
        pts = spherical_cap(radius=0.1)
        res = segment_pca(pts)
        # independent oracle: numpy covariance + eigvalsh
        cov = np.cov(pts.T, bias=True)
        vals = np.linalg.eigvalsh(cov)
        l_s_ref = abs(vals[np.argmin(np.abs(vals))] / np.trace(cov))
        assert res.l_s == pytest.approx(l_s_ref, rel=1e-10)

    def test_curvature_monotone_in_radius(self):
        ls = [segment_pca(spherical_cap(r)).l_s for r in (0.05, 0.1, 0.2)]
        assert ls[0] > ls[1] > ls[2]

    def test_degenerate_segment(self):
        pts = np.tile(np.array([0.0, 0.0, 0.3]), (40, 1))
        with pytest.raises(DegenerateSegmentError):
            segment_pca(pts)


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
        pts = plane_frame().points
        seg = np.arange(len(pts))
        assert select_working_segment(pts, [seg]) is seg

    def test_prefers_on_axis(self):
        plane = plane_frame(extent=0.1).points
        pts = np.vstack([plane + np.array([0.2, 0.0, 0.0]), plane])
        off, center = np.arange(len(plane)), np.arange(len(plane), len(pts))
        assert select_working_segment(pts, [off, center]) is center

    def test_tie_broken_by_size(self):
        big_pts = plane_frame(n_side=23).points + np.array([0.1, 0.0, 0.0])
        small_pts = plane_frame(n_side=20).points + np.array([-0.1, 0.0, 0.0])
        pts = np.vstack([big_pts, small_pts])
        big, small = np.arange(len(big_pts)), np.arange(len(big_pts), len(pts))
        # equal axis distance, larger segment wins; list arrives size-sorted
        assert select_working_segment(pts, [big, small]) is big


class TestPipeline:
    def test_perceive_plane(self):
        res = perceive(plane_frame(), PerceptionConfig())
        assert res.theta < 1e-6
        assert res.l_s < 1e-6

    def test_perceive_small_cloud(self):
        with pytest.raises(NoSegmentError):
            perceive(grid_frame(np.zeros((3, 3)), 3), PerceptionConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PerceptionConfig(k=2)
        with pytest.raises(ValueError):
            PerceptionConfig(angle_thresh=2.0)
