"""Point-cloud pipeline: per-point normals, region growing, segment PCA.

The input is a camera `Frame`: (N, 3) float64 camera-frame points, each
with the row and column of its pixel, which give it its one address in the
frame's one raster: the pixel grid padded by the reach of the
region-growing window. Per-point normals come from the covariance of the
points in a square pixel window, summed in that raster and oriented toward
the camera origin. The window covariances are diagonalized in
closed form, with no LAPACK call: the smallest eigenvalue from Smith's
trigonometric formula (O. K. Smith, Comm. ACM 4(4), 1961), its eigenvector
as the longest cross product of two rows of A - l0 I (J. Kopp,
arXiv:physics/0610206), and the rank test on the sum of the principal 2x2
minors; a window whose two smallest eigenvalues nearly coincide is flagged
like a collinear one. Region growing clusters points whose normals stay
within an angular threshold of the region seed, over a pixel window one
ring wider, stepping through the same raster, where a missing or padding
pixel is never free; a segment is its member indices. Growing stops when
too few points are left to make a kept segment, so no output moves. The
raster's moments and the band its box sums pass through are two process-wide
buffers, grown to the largest frame seen and zeroed on each frame, so frames
keep one steady working set: shared state, for single-threaded use.
The working segment's covariance goes through the same function as a
window's for the surface normal and the local-curvature ratio, with no
LAPACK call. Everything is deterministic for a given frame.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .camera import Frame


class NoSegmentError(RuntimeError):
    """Segmentation produced no usable segment."""


class DegenerateSegmentError(RuntimeError):
    """Segment covariance has (near-)zero trace, or no defined normal (collinear or isotropic points)."""


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
    normals: np.ndarray  # (N, 3) unit where valid, camera-facing
    curvature: np.ndarray  # (N,) smallest-eigenvalue ratio of the window covariance
    valid: np.ndarray  # (N,) bool, False for degenerate neighborhoods
    pixel: np.ndarray  # (N,) each point's address in the frame's pixel raster, padded by the growing reach
    offsets: np.ndarray  # (m,) ring-ordered address steps to the growing window, one ring wider than the normals'


@dataclass(frozen=True)
class PerceptionResult:
    n_s_camera: np.ndarray  # unit surface normal, camera frame
    eigenvalues: np.ndarray  # l1 >= l2 >= l3, with l2 = tr - l1 - l3
    l_s: float  # |l3| / tr
    theta: float  # rad, folded deviation from the camera axis


# the six second moments x*x, x*y, x*z, y*y, y*z, z*z
_FIRST, _SECOND = [0, 0, 0, 1, 1, 2], [0, 1, 2, 1, 2, 2]


def estimate_point_normals(frame: Frame, k: int) -> PointNormals:
    """Per-point unit normals from pixel-window covariance, oriented toward the camera.

    The window is the smallest odd square with at least k pixels, and a
    point's neighborhood is the frame's points on it. A neighborhood of
    fewer than 3 points, of rank below 2 (collinear) or with no defined
    normal flags the point invalid, and it takes no part in region
    growing. The growing graph is the window one ring wider, and the raster
    is padded by its reach: each point's moments are summed there in place
    and read back at the point's address, which the graph keeps.
    """
    pts, row, col = frame.points, frame.row, frame.col
    half = (math.isqrt(k - 1) + 1) // 2  # the smallest odd square with at least k pixels is 2 * half + 1 wide
    reach = half + 1
    height, width = row.max() + 1 + 2 * reach, col.max() + 1 + 2 * reach
    pixel = (row + reach) * width + col + reach
    c = pts - pts.mean(axis=0)  # centred on the frame, so the window sums cancel less
    moments = _workspace("moments", (height, width, 10))
    channels = moments.reshape(-1, 10).T  # count, x, y, z, then the six second moments, each a view of the raster
    channels[0][pixel] = 1.0
    for i in range(3):
        channels[1 + i][pixel] = c[:, i]
    for m, (i, j) in enumerate(zip(_FIRST, _SECOND), 4):
        channels[m][pixel] = c[:, i] * c[:, j]
    _box_sum(moments, half)
    count = channels[0][pixel]
    mean = [channels[1 + i][pixel] / count for i in range(3)]
    cov = np.empty((6, len(pts)))  # xx, xy, xz, yy, yz, zz
    for m, (i, j) in enumerate(zip(_FIRST, _SECOND)):
        cov[m] = channels[m + 4][pixel] / count - mean[i] * mean[j]
    _, _, normals, curvature, usable = _facing_normals(cov, pts)
    valid = (count >= 3) & usable
    return PointNormals(normals, curvature, valid, pixel, _window_offsets(reach, width))


# The moments raster and _box_sum's band, kept for the process: a stream of
# frames does not hand them back to the allocator and fault them in again
_WORKSPACE = {"moments": np.empty(0), "band": np.empty(0)}


def _workspace(name: str, shape: tuple) -> np.ndarray:
    """The named workspace buffer as a zeroed float64 array of this shape."""
    size = math.prod(shape)
    if _WORKSPACE[name].size < size:
        _WORKSPACE[name] = np.empty(size)
    buffer = _WORKSPACE[name][:size].reshape(shape)
    buffer.fill(0.0)
    return buffer


def _facing_normals(cov: np.ndarray, pts: np.ndarray) -> tuple[np.ndarray, ...]:
    """Largest and smallest eigenvalue, camera-facing normal, curvature |l0| / trace and usable flag.

    cov is (6, N) as in smallest_eigenpairs, pts (N, 3) a camera-frame point of each; curvature is inf at trace <= 0.
    """
    low, high, normals, usable = smallest_eigenpairs(cov)
    trace = cov[0] + cov[3] + cov[5]
    curvature = np.where(trace > 0.0, np.abs(low) / np.maximum(trace, 1e-300), np.inf)
    flip = np.einsum("ni,ni->n", normals, pts) > 0.0
    return high, low, np.where(flip[:, None], -normals, normals), curvature, usable


def smallest_eigenpairs(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Smallest and largest eigenvalues, an eigenvector of the smallest, and a usable flag, of symmetric 3x3 matrices.

    cov is (6, N): the entries xx, xy, xz, yy, yz, zz of one matrix per
    column. The eigenvalues come from Smith's trigonometric formula and the
    eigenvector is the longest of the three row cross products of A - l0 I.
    Where that product is short against the rows, the two smallest
    eigenvalues lie within about 1e-4 of the spread: the normal is not
    defined, and the flag is False, as on a rank-1 matrix. The rank test
    reads the sum of the principal 2x2 minors, l0 l1 + l0 l2 + l1 l2, against
    l2: the trigonometric l1 is too inexact on a rank-1 matrix.
    """
    low, high, rank2 = _smith_eigenvalues(cov)
    vec, close = _kopp_eigenvectors(cov, low)
    return low, high, vec, rank2 & ~close


def _smith_eigenvalues(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Smallest and largest eigenvalue by Smith's formula, and the rank-2 test on the principal minors."""
    xx, xy, xz, yy, yz, zz = cov
    trace = xx + yy + zz
    q = trace / 3.0
    dx, dy, dz = xx - q, yy - q, zz - q
    p = np.sqrt((dx * dx + dy * dy + dz * dz + 2.0 * (xy * xy + xz * xz + yz * yz)) / 6.0)
    s = np.where(p > 0.0, p, 1.0)  # A = qI leaves B = (A - qI) / p at zero
    bx, by, bz, bxy, bxz, byz = dx / s, dy / s, dz / s, xy / s, xz / s, yz / s
    det_b = bx * (by * bz - byz * byz) - bxy * (bxy * bz - byz * bxz) + bxz * (bxy * byz - by * bxz)
    phi = np.arccos(np.clip(0.5 * det_b, -1.0, 1.0)) / 3.0
    high = q + 2.0 * p * np.cos(phi)
    low = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    minors = xx * yy - xy * xy + xx * zz - xz * xz + yy * zz - yz * yz
    return low, high, (trace > 0.0) & (minors > 1e-12 * trace * high)


def _kopp_eigenvectors(cov: np.ndarray, low: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit eigenvector of each smallest eigenvalue, (N, 3), and where its longest cross product is too short."""
    xx, xy, xz, yy, yz, zz = cov
    a, d, f = xx - low, yy - low, zz - low
    # the rows of A - l0 I are (a, xy, xz), (xy, d, yz), (xz, yz, f); their
    # cross products r1 x r2, r2 x r0 and r0 x r1, each (3, N)
    cross = np.empty((3, 3, len(low)))
    cross[0, 0], cross[0, 1], cross[0, 2] = d * f - yz * yz, yz * xz - xy * f, xy * yz - d * xz
    cross[1, 0], cross[1, 1], cross[1, 2] = xz * yz - xy * f, a * f - xz * xz, xz * xy - a * yz
    cross[2, 0], cross[2, 1], cross[2, 2] = xy * yz - xz * d, xz * xy - a * yz, a * d - xy * xy
    c0, c1, c2 = cross[:, 0], cross[:, 1], cross[:, 2]  # written out: einsum rounds one column unlike a batch
    length = c0 * c0 + c1 * c1 + c2 * c2
    pick = length.argmax(axis=0), np.arange(len(low))
    frobenius = a * a + d * d + f * f + 2.0 * (xy * xy + xz * xz + yz * yz)  # |A - l0 I|^2
    close = length[pick] <= (1e-4 * frobenius) ** 2
    return cross[pick[0], :, pick[1]] / np.sqrt(np.where(close, 1.0, length[pick]))[:, None], close


def _box_sum(image: np.ndarray, half: int) -> None:
    """Overwrite each channel of image by its sums over squares 2 half + 1 wide; the border half wide reads zero."""
    rows, cols = image.shape[0] - 2 * half, image.shape[1] - 2 * half
    band = _workspace("band", (rows,) + image.shape[1:])
    for i in range(2 * half + 1):
        band += image[i : i + rows]
    image.fill(0.0)
    for j in range(2 * half + 1):
        image[half : half + rows, half : half + cols] += band[:, j : j + cols]


def _window_offsets(half: int, width: int) -> np.ndarray:
    """Address steps to the pixels of a square window, ring by ring, in a raster width pixels wide."""
    d_row, d_col = np.mgrid[-half : half + 1, -half : half + 1].reshape(2, -1)
    ring = np.argsort(np.maximum(abs(d_row), abs(d_col)), kind="stable")[1:]  # the centre pixel dropped
    return (d_row * width + d_col)[ring]


def region_grow(
    pts: np.ndarray,
    normals: PointNormals,
    angle_thresh: float,
    min_segment_size: int,
) -> list[np.ndarray]:
    """Cluster points whose normals stay within angle_thresh of the seed.

    The predicate is one batched row per seed, normals @ seed normal >=
    cos(angle_thresh), evaluated once over the whole cloud. Seeds are taken
    at the lowest-curvature unvisited point and grow one BFS level of the
    window graph per numpy step: a level's pixel addresses plus the
    ring-ordered steps, keeping each admissible candidate's first occurrence,
    so members come in the order of a FIFO-queue search. A seed's admissible
    pixels are one raster mask, free: a point close enough to the seed and
    not yet in a segment, cleared level by level as the search reaches it; a
    missing or padding pixel is never free. Segments below min_segment_size
    are dropped, the rest sorted largest first. Growing stops once fewer
    valid points are left outside all segments: each later one, drawn from
    them, would be dropped, and the points it took move no kept one.
    """
    cos_thresh = np.cos(angle_thresh)
    nrm, pixel, offsets = normals.normals, normals.pixel, normals.offsets
    index = np.zeros(pixel.max(initial=0) + offsets.max() + 1, dtype=np.intp)  # the point at each pixel
    index[pixel] = np.arange(len(pts))
    free = np.zeros(index.size, dtype=bool)
    first = np.full(index.size, pixel.size * offsets.size)  # never reset: a pixel is a candidate in one level only
    visited = ~normals.valid
    left = np.count_nonzero(normals.valid)  # valid points no segment holds yet
    segments: list[np.ndarray] = []
    for seed in np.argsort(normals.curvature, kind="stable").tolist():
        if left < min_segment_size:
            break
        if visited[seed]:
            continue
        free[pixel] = (nrm @ nrm[seed] >= cos_thresh) & ~visited
        level, levels = pixel[seed : seed + 1], []
        while len(level):
            free[level] = False
            levels.append(level)
            cand = (level[:, None] + offsets).ravel()
            cand = cand[free[cand]]  # row-major: frontier order, then ring order
            pos = np.arange(len(cand))
            np.minimum.at(first, cand, pos)
            level = cand[first[cand] == pos]
        members = index[np.concatenate(levels)]
        visited[members] = True
        left -= len(members)
        if len(members) >= min_segment_size:
            segments.append(members)
    if not segments:
        raise NoSegmentError("no segment above minimum size")
    return sorted(segments, key=lambda s: -s.size)


def select_working_segment(pts: np.ndarray, segments: list[np.ndarray]) -> np.ndarray:
    """Members of the segment whose centroid lies closest to the camera axis; ties go to size."""
    best = None
    best_dist = np.inf
    for seg in segments:  # already size-descending, so ties keep the larger
        centroid = pts[seg].mean(axis=0)
        dist = float(np.hypot(centroid[0], centroid[1]))
        if dist < best_dist - 1e-12:
            best = seg
            best_dist = dist
    return best


def segment_pca(points: np.ndarray) -> PerceptionResult:
    """Eigenstructure of the covariance of a segment's points: normal and curvature ratio."""
    centroid = points.mean(axis=0)
    centered = points - centroid
    cov = (centered[:, _FIRST] * centered[:, _SECOND]).mean(axis=0)[:, None]
    (high,), (low,), (n_s,), (l_s,), (usable,) = _facing_normals(cov, centroid[None, :])
    trace = float(cov[0, 0] + cov[3, 0] + cov[5, 0])
    if trace < 1e-12 or not usable:
        raise DegenerateSegmentError("segment trace below 1e-12" if trace < 1e-12 else "segment normal not defined")
    return PerceptionResult(n_s, np.array([high, trace - high - low, low]), float(l_s), orientation_error(n_s))


def orientation_error(n_s_camera: np.ndarray) -> float:
    """Folded angle between the surface normal and the camera axis, [0, pi/2]."""
    return math.acos(min(abs(float(n_s_camera[2])), 1.0))


def perceive(frame: Frame, cfg: PerceptionConfig) -> PerceptionResult:
    """Full pipeline on a camera frame: normals -> region growing -> working segment -> PCA."""
    pts = frame.points
    if len(pts) < cfg.k:
        raise NoSegmentError(f"frame too small ({len(pts)} points)")
    normals = estimate_point_normals(frame, cfg.k)
    segments = region_grow(pts, normals, cfg.angle_thresh, cfg.min_segment_size)
    return segment_pca(pts[select_working_segment(pts, segments)])
