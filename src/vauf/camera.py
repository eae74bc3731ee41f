"""Synthetic depth camera: pinhole rays against the height field.

The camera is rigidly mounted at the tool. By convention its optical axis
(+z, out of the lens) points along the tool's -z axis, so with the tool
aligned (z up, away from the surface) the camera looks straight down at the
patch. Each ray is marched in z-depth from where its base-frame height enters
the surface's height band, by conservative advancement (Hart's sphere
tracing): a step of gap / L, with L a bound on |d gap / dz| for the unbounded
sinusoid, cannot pass the first crossing. A step below 1e-7 m is a hit, kept
only if it lies on the patch; a ray that starts under the surface, leaves the
band or range, or still marches after 1000 passes is a miss. Every camera
draws range noise once per pixel and frame, +0.0 at sigma 0, so a pixel's
noise does not depend on which other pixels hit. `render` returns a `Frame`:
the (N, 3) float64 camera-frame points in meters and each point's pixel row
and column, so perception reads the pixel grid the rays were cast from.
"""

from __future__ import annotations

from dataclasses import dataclass
import functools
import logging

import numpy as np

from .spatial import Pose, rotation_x
from .surface import HeightField

log = logging.getLogger(__name__)

# tool -> camera rotation: camera +z looks along tool -z
MOUNT_ROTATION = rotation_x(np.pi)

_BAND_PAD = 1e-6  # m, so a ray enters the band above the surface
_STOP_STEP = 1e-7  # m, a step this short is a hit
_MAX_PASSES = 1000  # only grazing rays reach it; paper-surface frames need at most 26


class EmptyViewError(RuntimeError):
    """Fewer than 10% of pixels returned a surface hit inside the working range."""


@dataclass(frozen=True)
class Frame:
    """One depth frame: (N, 3) camera-frame points and the (N,) row and column of each point's pixel."""

    points: np.ndarray
    row: np.ndarray
    col: np.ndarray

    def __post_init__(self):
        if not len(self.row) == len(self.col) == len(self.points):
            raise ValueError(f"frame arrays differ in length: {len(self.points)} points, "
                             f"{len(self.row)} rows, {len(self.col)} columns")
        if np.bincount(self.row * (self.col.max(initial=0) + 1) + self.col).max(initial=0) > 1:
            raise ValueError("frame has two points on one pixel")

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class CameraModel:
    fov_h: float = np.deg2rad(58.0)  # radians
    fov_v: float = np.deg2rad(45.0)
    cols: int = 32
    rows: int = 24
    range_min: float = 0.05  # m, along camera z
    range_max: float = 1.0
    noise_sigma: float = 0.0  # m, along the ray
    # tool-frame camera position: at the flange, up the tool axis, so the
    # surface stays outside the minimum range while the tool is in contact
    mount_offset: tuple = (0.0, 0.0, 0.25)

    def __post_init__(self):
        if not (0.0 < self.fov_h < np.pi and 0.0 < self.fov_v < np.pi):
            raise ValueError(f"camera.fov_deg must lie in (0, 180), got "
                             f"{np.rad2deg(self.fov_h):g}, {np.rad2deg(self.fov_v):g}")
        for key, value in (("camera.cols", self.cols), ("camera.rows", self.rows)):
            if value < 8:
                raise ValueError(f"{key} must be at least 8, got {value!r}")
        if not 0.0 < self.range_min < self.range_max:
            raise ValueError(f"camera.range_min must lie in (0, camera.range_max = {self.range_max!r}), "
                             f"got {self.range_min!r}")
        if not self.noise_sigma >= 0.0:
            raise ValueError(f"camera.noise_sigma must be non-negative, got {self.noise_sigma!r}")

    def ray_directions(self) -> np.ndarray:
        """Unit ray directions in the camera frame, one per pixel, (N, 3); built once per ray geometry, read-only."""
        return _ray_directions(self.fov_h, self.fov_v, self.cols, self.rows)


@functools.lru_cache(maxsize=16)
def _ray_directions(fov_h: float, fov_v: float, cols: int, rows: int) -> np.ndarray:
    tan_h = np.tan(0.5 * fov_h)
    tan_v = np.tan(0.5 * fov_v)
    u = (2.0 * (np.arange(cols) + 0.5) / cols - 1.0) * tan_h
    v = (2.0 * (np.arange(rows) + 0.5) / rows - 1.0) * tan_v
    uu, vv = np.meshgrid(u, v)
    d = np.stack([uu.ravel(), vv.ravel(), np.ones(cols * rows)], axis=1)
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    d.flags.writeable = False
    return d


def camera_pose_from_tool(tool_pose: Pose, camera: CameraModel) -> Pose:
    """Camera pose in the base frame given the tool pose and the fixed mount."""
    r, m, (o0, o1, o2) = tool_pose.rotation, MOUNT_ROTATION, camera.mount_offset
    return Pose(r[:, :1] * m[0] + r[:, 1:2] * m[1] + r[:, 2:] * m[2],
                tool_pose.position + (r[:, 0] * o0 + r[:, 1] * o1 + r[:, 2] * o2))


def render(
    camera: CameraModel,
    camera_pose_in_base: Pose,
    surface: HeightField,
    rng: np.random.Generator,
) -> Frame:
    """Render one depth frame: the camera-frame points and each one's pixel.

    Deterministic given the state of rng, from which every camera draws one
    range-noise sample per pixel each frame, hit or not, also at sigma 0. Raises
    EmptyViewError when fewer than 10% of the pixels hit the surface inside
    the working range.
    """
    dirs_cam = camera.ray_directions()
    o, r = camera_pose_in_base.position, camera_pose_in_base.rotation
    dz = dirs_cam[:, 2]  # z-depth per unit ray length is dz (== 1/ray stretch)
    n_pix = len(dirs_cam)
    noise = rng.normal(0.0, camera.noise_sigma, n_pix)
    # base-frame displacement per unit z-depth: a ray's points are o + z * step
    step = np.stack([(r[i, 0] * dirs_cam[:, 0] + r[i, 1] * dirs_cam[:, 1]) / dz + r[i, 2] for i in range(3)], axis=1)

    # depth interval where each ray's height lies in the padded surface band, starting below
    # the minimum range so too-close geometry is found, then dropped with a warning
    lo, hi = surface.height_band()
    with np.errstate(divide="ignore", invalid="ignore"):  # level rays
        z_a = (lo - _BAND_PAD - o[2]) / step[:, 2]
        z_b = (hi + _BAND_PAD - o[2]) / step[:, 2]
        # 1 / L, where L >= |d gap / dz|, so a step of gap / L cannot pass the first crossing
        inv_lip = 1.0 / (np.abs(step[:, 2]) + surface.height_rate_bound(step[:, 0], step[:, 1]))
    z_near = np.maximum(np.minimum(z_a, z_b), min(0.01, camera.range_min))
    z_far = np.minimum(np.maximum(z_a, z_b), camera.range_max)
    ray = np.nonzero(z_near < z_far)[0]

    z = z_near[ray]
    gap = _gap(surface, o, step[ray], z)
    outside = gap > 0.0  # else the ray starts inside the solid: a miss
    ray, z, gap, hits = ray[outside], z[outside], gap[outside], []
    for _ in range(_MAX_PASSES):
        advance = gap * inv_lip[ray]
        z = z + advance
        stop = advance < _STOP_STEP
        hits.append((ray[stop], z[stop]))
        going = ~stop & (z < z_far[ray])
        ray, z = ray[going], z[going]
        if not len(ray):
            break
        gap = _gap(surface, o, step[ray], z)
    else:
        log.debug("camera: %d grazing rays still marching after %d passes, counted as misses", len(ray), _MAX_PASSES)
    ray, z_hit = (np.concatenate(part) for part in zip(*hits))

    p = o + z_hit[:, None] * step[ray]
    on_patch = surface.in_domain(p[:, 0], p[:, 1])
    hit_idx = ray[on_patch]

    dz_hit = dz[hit_idx]
    ray_len = z_hit[on_patch] / dz_hit + noise[hit_idx]
    z_noisy = ray_len * dz_hit

    below_min = z_noisy < camera.range_min
    if below_min.sum() > 0.5 * n_pix:
        log.warning("camera: %d/%d returns below minimum range", int(below_min.sum()), n_pix)
    keep = (~below_min) & (z_noisy <= camera.range_max)
    pixel = hit_idx[keep]
    if len(pixel) < 0.10 * n_pix:
        raise EmptyViewError(f"{len(pixel)}/{n_pix} pixels returned inside the working range")

    row, col = np.divmod(pixel, camera.cols)
    return Frame(ray_len[keep, None] * dirs_cam[pixel], row, col)


def _gap(surface: HeightField, o: np.ndarray, step: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Height of the ray points o + z * step above the unbounded sinusoid."""
    x, y, h = (o[i] + z * step[..., i] for i in range(3))
    return h - surface.height_unchecked(x, y)
