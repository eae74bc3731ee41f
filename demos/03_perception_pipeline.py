"""Perception pipeline: normals, region growing, segment PCA.

Renders the curved patch from a few viewpoints, runs the full pipeline, and
compares the recovered surface normal with the analytic one at the camera
footprint. Also shows the curvature ratio separating flat from curved
patches.
"""

import numpy as np

from vauf import CameraModel, HeightField, PerceptionConfig, analytic_normal, perceive
from vauf.camera import MOUNT_ROTATION, render
from vauf.perception import estimate_point_normals, region_grow, segment_pca
from vauf.spatial import Pose

surf = HeightField()
cam = CameraModel(fov_h=np.deg2rad(30), fov_v=np.deg2rad(24), cols=48, rows=36)
cfg = PerceptionConfig(k=10, angle_thresh=np.deg2rad(3.0), min_segment_size=30)

print("recovered vs analytic surface normal (noise-free, straight-down views):")
for y in (-0.15, -0.05, 0.05, 0.15):
    pose = Pose(MOUNT_ROTATION, np.array([0.0, y, float(surf.height_unchecked(0.0, y)) + 0.3]))
    res = perceive(render(cam, pose, surf, rng=np.random.default_rng(0)), cfg)
    n_base = pose.rotation @ res.n_s_camera
    if n_base[2] < 0:
        n_base = -n_base
    err = np.rad2deg(np.arccos(np.clip(n_base @ analytic_normal(surf, 0.0, y), -1, 1)))
    print(f"  y={y:+.2f}: error {err:5.2f} deg, theta {np.rad2deg(res.theta):5.2f} deg, l_s {res.l_s:.5f}")

pose = Pose(MOUNT_ROTATION, np.array([0.0, 0.0, 0.33]))
frame = render(cam, pose, surf, rng=np.random.default_rng(0))
normals = estimate_point_normals(frame, cfg.k)
segments = region_grow(frame.points, normals, cfg.angle_thresh, cfg.min_segment_size)
print(f"\nregion growing split the view into {len(segments)} segments "
      f"(sizes: {[s.size for s in segments[:6]]}...)")

print("\ncurvature ratio l_s for synthetic patches:")
g = np.linspace(-0.05, 0.05, 30)
xx, yy = np.meshgrid(g, g)
plane = np.column_stack([xx.ravel(), yy.ravel(), np.full(xx.size, 0.3)])
print(f"  flat plane:            {segment_pca(plane).l_s:.2e}")
rng = np.random.default_rng(0)
for radius in (0.2, 0.1, 0.05):
    ap = np.arcsin(0.04 / radius)
    cos_t = rng.uniform(np.cos(ap), 1.0, 1500)
    sin_t = np.sqrt(1 - cos_t**2)
    phi = rng.uniform(0, 2 * np.pi, 1500)
    cap = np.column_stack(
        [radius * sin_t * np.cos(phi), radius * sin_t * np.sin(phi), 0.3 + radius * (1 - cos_t)]
    )
    print(f"  sphere radius {radius:.2f} m:   {segment_pca(cap).l_s:.2e}")
