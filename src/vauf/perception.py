"""Point-cloud pipeline: per-point normals, region growing, segment PCA.

A cloud is a plain (N, 3) float64 array of camera-frame points. Per-point
normals come from k-nearest-neighbor covariance (smallest eigenvector),
oriented toward the camera origin. Region growing clusters points whose
normals stay within an angular threshold of the region seed. The working
segment's covariance eigenstructure yields the surface normal and the
local-curvature ratio. Everything is deterministic for a given cloud.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .spatial import eig_sym3


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
    curvature: np.ndarray  # (N,) smallest-eigenvalue ratio of the kNN covariance
    valid: np.ndarray  # (N,) bool, False for degenerate neighborhoods
    neighbors: np.ndarray  # (N, k) kNN indices, reused as the growing graph


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


def estimate_point_normals(pts: np.ndarray, k: int) -> PointNormals:
    """Per-point unit normals from kNN covariance, oriented toward the camera.

    Points whose neighborhood is rank-deficient (collinear) are flagged
    invalid and take no part in region growing.
    """
    n = len(pts)
    if k < 5:
        raise ValueError("k must be at least 5")
    if n < k:
        raise ValueError(f"cloud has {n} points, need at least k={k}")
    tree = cKDTree(pts)
    _, idx = tree.query(pts, k=k)
    nb = pts[idx]  # (N, k, 3)
    centered = nb - nb.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered) / k
    vals, vecs = np.linalg.eigh(cov)  # ascending
    normals = vecs[:, :, 0]
    trace = vals.sum(axis=1)
    valid = (trace > 0.0) & (vals[:, 1] > 1e-12 * np.maximum(trace, 1e-300))
    curvature = np.where(trace > 0.0, np.abs(vals[:, 0]) / np.maximum(trace, 1e-300), np.inf)
    # camera-facing: flip normals pointing away from the origin
    flip = np.einsum("ni,ni->n", normals, pts) > 0.0
    normals = np.where(flip[:, None], -normals, normals)
    return PointNormals(normals=normals, curvature=curvature, valid=valid, neighbors=idx)


def region_grow(
    pts: np.ndarray,
    normals: PointNormals,
    angle_thresh: float,
    min_segment_size: int,
) -> list[Segment]:
    """Cluster points whose normals stay within angle_thresh of the seed.

    Seeds are taken at the lowest-curvature unvisited point and grow one BFS
    level of the kNN graph per numpy step, keeping each admissible neighbor's
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
            cand = cand[ok[cand] & ~visited[cand]]  # row-major: frontier order, then kNN order
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
    vals, vecs = eig_sym3(segment.covariance)
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
