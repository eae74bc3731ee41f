"""Synthetic depth camera: pinhole rays against the height field.

The camera is rigidly mounted at the tool. By convention its optical axis
(+z, out of the lens) points along the tool's -z axis, so with the tool
aligned (z up, away from the surface) the camera looks straight down at the
patch. Ray/height-field intersections are found by marching the depth along
the optical axis and bisecting the first sign change. A frame is a plain
(N, 3) float64 array of camera-frame points in meters.
"""

from __future__ import annotations

from dataclasses import dataclass
import logging

import numpy as np

from .spatial import Pose, rotation_x
from .surface import HeightField

log = logging.getLogger(__name__)

# tool -> camera rotation: camera +z looks along tool -z
MOUNT_ROTATION = rotation_x(np.pi)

_MARCH_STEPS = 96
_BISECT_TOL = 1e-6  # m, an order tighter than the advertised 1e-5


class EmptyViewError(RuntimeError):
    """Fewer than 10% of pixels returned a surface hit."""


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
    seed: int = 0

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
        """Unit ray directions in the camera frame, one per pixel, (N, 3)."""
        tan_h = np.tan(0.5 * self.fov_h)
        tan_v = np.tan(0.5 * self.fov_v)
        u = (2.0 * (np.arange(self.cols) + 0.5) / self.cols - 1.0) * tan_h
        v = (2.0 * (np.arange(self.rows) + 0.5) / self.rows - 1.0) * tan_v
        uu, vv = np.meshgrid(u, v)
        d = np.stack([uu.ravel(), vv.ravel(), np.ones(self.cols * self.rows)], axis=1)
        return d / np.linalg.norm(d, axis=1, keepdims=True)


def camera_pose_from_tool(tool_pose: Pose, camera: CameraModel) -> Pose:
    """Camera pose in the base frame given the tool pose and the fixed mount."""
    offset = np.asarray(camera.mount_offset, dtype=float)
    return Pose(
        rotation=tool_pose.rotation @ MOUNT_ROTATION,
        position=tool_pose.position + tool_pose.rotation @ offset,
    )


def render(
    camera: CameraModel,
    camera_pose_in_base: Pose,
    surface: HeightField,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Render one depth frame as an (N, 3) point cloud in the camera frame.

    Deterministic given the RNG state (a fresh generator seeded from
    camera.seed is used when rng is None). Raises EmptyViewError when fewer
    than 10% of the pixels hit the surface inside the working range.
    """
    if rng is None:
        rng = np.random.default_rng(camera.seed)
    dirs_cam = camera.ray_directions()
    r = camera_pose_in_base.rotation
    o = camera_pose_in_base.position
    dirs_base = dirs_cam @ r.T

    dz = dirs_cam[:, 2]  # z-depth per unit ray length is dz (== 1/ray stretch)
    n_pix = len(dirs_cam)

    # march z-depth out to range_max, starting below the minimum range so
    # too-close geometry is found and then dropped (with a warning) rather
    # than silently missed; t = z / dz along the ray
    z_near = min(0.01, camera.range_min)
    z_samples = np.linspace(z_near, camera.range_max, _MARCH_STEPS + 1)
    t = z_samples[None, :] / dz[:, None]  # (N, S)
    pts = o[None, None, :] + t[..., None] * dirs_base[:, None, :]
    in_dom = surface.in_domain(pts[..., 0], pts[..., 1])
    gap = pts[..., 2] - surface.height_unchecked(pts[..., 0], pts[..., 1])

    above = in_dom & (gap > 0.0)
    below = in_dom & (gap <= 0.0)
    cross = above[:, :-1] & below[:, 1:]
    has_hit = cross.any(axis=1)
    first = np.argmax(cross, axis=1)

    hit_idx = np.nonzero(has_hit)[0]
    if len(hit_idx) < 0.10 * n_pix:
        raise EmptyViewError(f"{len(hit_idx)}/{n_pix} pixels returned")

    z_lo = z_samples[first[hit_idx]]
    z_hi = z_samples[first[hit_idx] + 1]
    d_hit = dirs_base[hit_idx]
    dz_hit = dz[hit_idx]
    while (z_hi - z_lo).max() > _BISECT_TOL:
        z_mid = 0.5 * (z_lo + z_hi)
        p = o[None, :] + (z_mid / dz_hit)[:, None] * d_hit
        g = p[:, 2] - surface.height_unchecked(p[:, 0], p[:, 1])
        go_lo = g > 0.0
        z_lo = np.where(go_lo, z_mid, z_lo)
        z_hi = np.where(go_lo, z_hi, z_mid)
    z_hit = 0.5 * (z_lo + z_hi)

    ray_len = z_hit / dz_hit
    if camera.noise_sigma > 0.0:
        ray_len = ray_len + rng.normal(0.0, camera.noise_sigma, size=ray_len.shape)
    z_noisy = ray_len * dz_hit

    below_min = z_noisy < camera.range_min
    if below_min.sum() > 0.5 * n_pix:
        log.warning("camera: %d/%d returns below minimum range", int(below_min.sum()), n_pix)
    keep = (~below_min) & (z_noisy <= camera.range_max)

    return ray_len[keep, None] * dirs_cam[hit_idx[keep]]
