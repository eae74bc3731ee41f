"""Test-local oracle: the renderer as it was before the band march.

It marches 97 z-depth samples over [min(0.01, range_min), range_max] for
every ray and bisects the first sign change whose two bracketing samples both
lie on the patch. Range noise is drawn per pixel, as `vauf.camera.render`
draws it, so the two renderers can be compared pixel by pixel under noise.
`march_render` returns the cloud and the pixel index of each of its points;
the below-minimum-range warning is left out.

Its samples lie about 1 cm of depth apart, so, unlike `render`, it misses a
crest tip that a ray enters and leaves between two samples, and reports the
next crossing instead. It is an oracle only where crossings lie farther apart
than that, as on the paper surface; `test_thin_crest_between_band_samples_is_found`
checks such a crest against a bisected crossing.
"""

from __future__ import annotations

import numpy as np

from vauf.camera import CameraModel, EmptyViewError
from vauf.spatial import Pose
from vauf.surface import HeightField

MARCH_STEPS = 96
BISECT_TOL = 1e-6


def march_render(
    camera: CameraModel, camera_pose_in_base: Pose, surface: HeightField, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    dirs_cam = camera.ray_directions()
    r = camera_pose_in_base.rotation
    o = camera_pose_in_base.position
    dirs_base = dirs_cam @ r.T

    dz = dirs_cam[:, 2]
    n_pix = len(dirs_cam)
    noise = rng.normal(0.0, camera.noise_sigma, n_pix) if camera.noise_sigma > 0.0 else np.zeros(n_pix)

    z_near = min(0.01, camera.range_min)
    z_samples = np.linspace(z_near, camera.range_max, MARCH_STEPS + 1)
    t = z_samples[None, :] / dz[:, None]
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
    while (z_hi - z_lo).max() > BISECT_TOL:
        z_mid = 0.5 * (z_lo + z_hi)
        p = o[None, :] + (z_mid / dz_hit)[:, None] * d_hit
        g = p[:, 2] - surface.height_unchecked(p[:, 0], p[:, 1])
        go_lo = g > 0.0
        z_lo = np.where(go_lo, z_mid, z_lo)
        z_hi = np.where(go_lo, z_hi, z_mid)
    z_hit = 0.5 * (z_lo + z_hi)

    ray_len = z_hit / dz_hit + noise[hit_idx]
    z_noisy = ray_len * dz_hit
    keep = (z_noisy >= camera.range_min) & (z_noisy <= camera.range_max)
    return ray_len[keep, None] * dirs_cam[hit_idx[keep]], hit_idx[keep]
