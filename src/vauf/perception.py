"""Point-cloud pipeline: per-point normals, region growing, segment PCA.

A cloud is a plain (N, 3) float64 array of camera-frame points, organized:
each point lies on the ray of one pixel of an evenly spaced pinhole grid, so
its pixel is recovered from the ray slopes x/z and y/z. Per-point normals
come from the covariance of the points in a square pixel window (smallest
eigenvector), oriented toward the camera origin. Region growing clusters
points whose normals stay within an angular threshold of the region seed,
over a pixel window one ring wider. The working segment's covariance
eigenstructure yields the surface normal and the local-curvature ratio.
Everything is deterministic for a given cloud.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np


class NoSegmentError(RuntimeError):
    """Segmentation produced no usable segment."""


class DegenerateSegmentError(RuntimeError):
    """Segment covariance has (near-)zero trace."""


@dataclass(frozen=True)
class PerceptionConfig:
    k: int = 10
    angle_thresh: float = np.deg2rad(8.0)
    min_segment_size: int = 30

    def __post_init__(self):
        if self.k < 5:
            raise ValueError(f"perception.k must be at least 5, got {self.k!r}")
        if not 0.0 < self.angle_thresh < 0.5 * np.pi:
            raise ValueError(f"perception.angle_thresh_deg must lie in (0, 90), got "
                             f"{np.rad2deg(self.angle_thresh):g}")
        if self.min_segment_size < 1:
            raise ValueError(f"perception.min_segment_size must be at least 1, got {self.min_segment_size!r}")


@dataclass(frozen=True)
class PointNormals:
    normals: np.ndarray  # (N, 3) unit, camera-facing
    curvature: np.ndarray  # (N,) smallest-eigenvalue ratio of the window covariance
    valid: np.ndarray  # (N,) bool, False for degenerate neighborhoods
    # (N, m) growing graph: the points of each point's pixel window one ring
    # wider than the normal window, ring by ring; a missing pixel holds the
    # point itself
    neighbors: np.ndarray


@dataclass(frozen=True)
class Segment:
    indices: np.ndarray
    centroid: np.ndarray
    covariance: np.ndarray

    @property
    def size(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class PerceptionResult:
    n_s_camera: np.ndarray  # unit surface normal, camera frame
    eigenvalues: np.ndarray  # |l1| >= |l2| >= |l3|
    l_s: float  # |l3 / tr|
    theta: float  # rad, folded deviation from the camera axis


def pixel_index(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, col) of each point's pixel, recovered from the ray slopes y/z and x/z.

    The slopes of a rendered frame lie on an evenly spaced grid up to
    rounding; its pitch is the smallest gap between distinct slopes. Raises
    ValueError when the cloud is not organized: a point lies more than 1e-6
    pitch off the grid, two points land on one pixel, or the grid has more
    than 100 pixels per point (a rational off-grid slope makes a finer grid
    that holds every point, and its images would not fit in memory).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        row, col = (_grid_index(pts[:, axis] / pts[:, 2]) for axis in (1, 0))
    n_rows, n_cols = row.max() + 1, col.max() + 1
    if n_rows * n_cols > 100 * len(pts):
        raise ValueError(f"cloud is not organized: {len(pts)} points span a {n_rows}x{n_cols} pixel grid")
    if np.bincount(row * n_cols + col).max() > 1:
        raise ValueError("cloud is not organized: two points land on one pixel")
    return row, col


def _grid_index(slope: np.ndarray) -> np.ndarray:
    """Place of each slope on the evenly spaced grid through all of them."""
    lo = slope.min()
    gaps = np.diff(np.unique(slope))
    gaps = gaps[gaps > 1e-9 * (slope.max() - lo)]  # closer slopes are one grid value, apart by rounding
    if not len(gaps):
        return np.zeros(len(slope), dtype=np.intp)
    steps = (slope - lo) / gaps.min()
    index = np.rint(steps)
    if not np.all(np.abs(steps - index) <= 1e-6):  # also false on a NaN slope
        raise ValueError("cloud is not organized: a point lies off the pixel grid")
    return index.astype(np.intp)


# the six second moments x*x, x*y, x*z, y*y, y*z, z*z, and their places in a 3x3 matrix
_FIRST, _SECOND = [0, 0, 0, 1, 1, 2], [0, 1, 2, 1, 2, 2]
_SYMMETRIC = [0, 1, 2, 1, 3, 4, 2, 4, 5]


def estimate_point_normals(pts: np.ndarray, k: int) -> PointNormals:
    """Per-point unit normals from pixel-window covariance, oriented toward the camera.

    The window is the smallest odd square with at least k pixels, and a
    point's neighborhood is the cloud's points on it. A neighborhood of
    fewer than 3 points or of rank below 2 (collinear) flags the point
    invalid, and it takes no part in region growing. The growing graph is
    the window one ring wider.
    """
    n = len(pts)
    if k < 5:
        raise ValueError("k must be at least 5")
    if n < k:
        raise ValueError(f"cloud has {n} points, need at least k={k}")
    row, col = pixel_index(pts)
    half = (math.isqrt(k - 1) + 1) // 2  # the smallest odd square with at least k pixels is 2 * half + 1 wide
    c = pts - pts.mean(axis=0)  # centred on the frame, so the window sums cancel less
    moments = np.zeros((row.max() + 1, col.max() + 1, 10))
    moments[row, col] = np.column_stack([np.ones(n), c, c[:, _FIRST] * c[:, _SECOND]])
    sums = _box_sum(moments, half)[row, col]
    count = sums[:, 0]
    mean = sums[:, 1:4] / count[:, None]
    second = sums[:, 4:][:, _SYMMETRIC].reshape(n, 3, 3) / count[:, None, None]
    cov = second - mean[:, :, None] * mean[:, None, :]
    vals, vecs = np.linalg.eigh(cov)  # ascending
    normals = vecs[:, :, 0]
    trace = vals.sum(axis=1)
    valid = (count >= 3) & (trace > 0.0) & (vals[:, 1] > 1e-12 * np.maximum(trace, 1e-300))
    curvature = np.where(trace > 0.0, np.abs(vals[:, 0]) / np.maximum(trace, 1e-300), np.inf)
    # camera-facing: flip normals pointing away from the origin
    flip = np.einsum("ni,ni->n", normals, pts) > 0.0
    normals = np.where(flip[:, None], -normals, normals)
    neighbors = _window_neighbors(row, col, half + 1)
    return PointNormals(normals=normals, curvature=curvature, valid=valid, neighbors=neighbors)


def _box_sum(image: np.ndarray, half: int) -> np.ndarray:
    """Sum of each channel over the square window around every pixel, zero off the image."""
    rows, cols = image.shape[:2]
    padded = np.pad(image, ((half, half), (half, half), (0, 0)))
    band = sum(padded[i : i + rows] for i in range(2 * half + 1))
    return sum(band[:, j : j + cols] for j in range(2 * half + 1))


def _window_neighbors(row: np.ndarray, col: np.ndarray, half: int) -> np.ndarray:
    """Points on each point's square pixel window, ring by ring; a missing pixel is the point itself."""
    n = len(row)
    width = col.max() + 1 + 2 * half
    index = np.full((row.max() + 1 + 2 * half, width), -1)
    index[row + half, col + half] = np.arange(n)
    d_row, d_col = np.mgrid[-half : half + 1, -half : half + 1].reshape(2, -1)
    ring = np.argsort(np.maximum(abs(d_row), abs(d_col)), kind="stable")[1:]  # the centre pixel dropped
    nb = index.ravel()[((row + half) * width + col + half)[:, None] + (d_row * width + d_col)[ring]]
    return np.where(nb < 0, np.arange(n)[:, None], nb)


def region_grow(
    pts: np.ndarray,
    normals: PointNormals,
    angle_thresh: float,
    min_segment_size: int,
) -> list[Segment]:
    """Cluster points whose normals stay within angle_thresh of the seed.

    Seeds are taken at the lowest-curvature unvisited point and grow one BFS
    level of the window graph per numpy step, keeping each admissible neighbor's
    first occurrence, so members come in the order of a FIFO-queue search.
    Segments below min_segment_size are dropped; the rest are sorted largest first.
    """
    if len(pts) == 0:
        raise NoSegmentError("empty cloud")
    cos_thresh = np.cos(angle_thresh)
    nrm, nb = normals.normals, normals.neighbors
    visited = ~normals.valid.copy()
    first = np.full(len(pts), nb.size)  # never reset: a point is a candidate in one level only
    segments: list[Segment] = []
    for seed in np.argsort(normals.curvature, kind="stable"):
        if visited[seed]:
            continue
        dots = nrm @ nrm[seed]
        ok = dots >= cos_thresh
        for j in np.flatnonzero(np.abs(dots - cos_thresh) <= 1e-12):  # batched dots may be an ulp off
            ok[j] = nrm[seed] @ nrm[j] >= cos_thresh
        level, levels = np.array([seed]), []
        while len(level):
            visited[level] = True
            levels.append(level)
            cand = nb[level]
            cand = cand[ok[cand] & ~visited[cand]]  # row-major: frontier order, then ring order
            pos = np.arange(len(cand))
            np.minimum.at(first, cand, pos)
            level = cand[first[cand] == pos]
        if sum(map(len, levels)) >= min_segment_size:
            segments.append(_make_segment(pts, np.concatenate(levels)))
    if not segments:
        raise NoSegmentError("no segment above minimum size")
    return sorted(segments, key=lambda s: -s.size)


def _make_segment(points: np.ndarray, indices: np.ndarray) -> Segment:
    member = points[indices]
    centroid = member.mean(axis=0)
    centered = member - centroid
    cov = centered.T @ centered / len(member)
    return Segment(indices=indices, centroid=centroid, covariance=cov)


def segment_from_points(points: np.ndarray) -> Segment:
    """Build a segment directly from raw points (synthetic-cloud helper)."""
    return _make_segment(np.asarray(points, dtype=float), np.arange(len(points)))


def select_working_segment(segments: list[Segment]) -> Segment:
    """Segment whose centroid lies closest to the camera axis; ties go to size."""
    if not segments:
        raise NoSegmentError("no segments to select from")
    best = None
    best_dist = np.inf
    for seg in segments:  # already size-descending, so ties keep the larger
        dist = float(np.hypot(seg.centroid[0], seg.centroid[1]))
        if dist < best_dist - 1e-12:
            best = seg
            best_dist = dist
    return best


def segment_pca(segment: Segment) -> PerceptionResult:
    """Eigenstructure of the segment covariance: normal and curvature ratio."""
    trace = float(np.trace(segment.covariance))
    if trace < 1e-12:
        raise DegenerateSegmentError("segment covariance trace below 1e-12")
    vals, vecs = np.linalg.eigh(segment.covariance)
    order = np.argsort(-np.abs(vals), kind="stable")  # |l1| >= |l2| >= |l3|
    vals = vals[order]
    vecs = vecs[:, order]
    n_s = vecs[:, 2]
    if n_s @ segment.centroid > 0.0:  # camera-facing
        n_s = -n_s
    l_s = abs(vals[2] / vals.sum())
    return PerceptionResult(
        n_s_camera=n_s, eigenvalues=vals, l_s=float(l_s), theta=orientation_error(n_s)
    )


def orientation_error(n_s_camera: np.ndarray) -> float:
    """Folded angle between the surface normal and the camera axis, [0, pi/2]."""
    return float(np.arccos(np.clip(abs(n_s_camera[2]), 0.0, 1.0)))


def perceive(pts: np.ndarray, cfg: PerceptionConfig) -> PerceptionResult:
    """Full pipeline on an (N, 3) cloud: normals -> region growing -> working segment -> PCA."""
    if len(pts) < cfg.k:
        raise NoSegmentError(f"cloud too small ({len(pts)} points)")
    normals = estimate_point_normals(pts, cfg.k)
    segments = region_grow(pts, normals, cfg.angle_thresh, cfg.min_segment_size)
    working = select_working_segment(segments)
    return segment_pca(working)
