"""Small linear algebra: rotations, poses, wrenches, 3x3 symmetric eigen.

Rotations are plain 3x3 orthonormal numpy arrays (determinant +1). Inside
the control loop wrenches, twists and pose errors are raw float64 6-vectors
(linear part first); the frame-tagged ``Wrench`` is the type handed across
module boundaries such as the contact model. All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BASE = "base"
EE = "ee"
CAMERA = "camera"

_PI_AXIS_TOL = 1e-7
_EYE3 = np.eye(3)


def hat(w: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix of a 3-vector."""
    x, y, z = w
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def rotation_x(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rotation_y(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rotation_z(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def is_rotation(r: np.ndarray, tol: float = 1e-9) -> bool:
    """Columns orthonormal and determinant +1, both within tol."""
    if r.shape != (3, 3):
        return False
    return (
        np.abs(r.T @ r - np.eye(3)).max() < tol
        and abs(np.linalg.det(r) - 1.0) < tol
    )


def rotation_exp(w: np.ndarray) -> np.ndarray:
    """Rodrigues formula: rotation about w/|w| by angle |w| (radians)."""
    theta = float(np.linalg.norm(w))
    wx = hat(w)
    if theta < 1e-10:
        # second-order series; exact enough below the cutoff
        return _EYE3 + wx + 0.5 * (wx @ wx)
    a = np.sin(theta) / theta
    b = (1.0 - np.cos(theta)) / (theta * theta)
    return _EYE3 + a * wx + b * (wx @ wx)


def _canonical_axis_sign(axis: np.ndarray) -> np.ndarray:
    # Deterministic tie-break: make the largest-magnitude component positive.
    i = int(np.argmax(np.abs(axis)))
    return -axis if axis[i] < 0.0 else axis


def rotation_log(r: np.ndarray) -> np.ndarray:
    """Axis*angle 3-vector with |result| <= pi.

    Near angle pi the off-diagonal formula degenerates; the axis is then
    recovered from (R + I)/2 and its sign fixed by making the
    largest-magnitude component positive.
    """
    tr = min(max((r.trace() - 1.0) * 0.5, -1.0), 1.0)
    theta = float(np.arccos(tr))
    if theta < 1e-12:
        return np.zeros(3)
    if np.pi - theta < _PI_AXIS_TOL:
        b = 0.5 * (r + np.eye(3))
        i = int(np.argmax(np.diag(b)))
        axis = np.empty(3)
        axis[i] = np.sqrt(max(b[i, i], 0.0))
        for j in range(3):
            if j != i:
                axis[j] = b[i, j] / axis[i]
        axis = _canonical_axis_sign(axis / np.linalg.norm(axis))
        return axis * theta
    w = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    return w * (theta / (2.0 * np.sin(theta)))


def rotation_power(
    r_init: np.ndarray, r_target: np.ndarray, zeta: float, rel: np.ndarray | None = None
) -> np.ndarray:
    """Geodesic interpolant (R_target R_init^T)^zeta R_init for zeta in [0, 1].

    ``rel`` is log(R_target R_init^T) when the caller already has it.
    """
    if not 0.0 <= zeta <= 1.0:
        raise ValueError(f"zeta must be in [0, 1], got {zeta}")
    if zeta == 0.0:
        return r_init.copy()
    if rel is None:
        rel = rotation_log(r_target @ r_init.T)
    return rotation_exp(zeta * rel) @ r_init


def eig_sym3(m: np.ndarray, sym_tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of a symmetric 3x3 matrix.

    Returns (eigenvalues, eigenvectors-as-columns) sorted by descending
    absolute eigenvalue, so index 2 is always the smallest-magnitude one.
    Each eigenvector's largest-magnitude component is made positive.
    """
    scale = max(np.abs(m).max(), 1.0)
    if np.abs(m - m.T).max() > sym_tol * scale:
        raise ValueError("matrix is not symmetric")
    vals, vecs = np.linalg.eigh(0.5 * (m + m.T))
    order = np.argsort(-np.abs(vals), kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    for k in range(3):
        vecs[:, k] = _canonical_axis_sign(vecs[:, k])
    return vals, vecs


@dataclass(frozen=True)
class Pose:
    """Rigid transform: rotation (3x3, base <- local) and position (m)."""

    rotation: np.ndarray
    position: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=float))
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))


@dataclass(frozen=True)
class Wrench:
    """Force (N) and torque (N*m) with the frame they are expressed in."""

    force: np.ndarray
    torque: np.ndarray
    frame: str = BASE

    def __post_init__(self):
        object.__setattr__(self, "force", np.asarray(self.force, dtype=float))
        object.__setattr__(self, "torque", np.asarray(self.torque, dtype=float))

    @classmethod
    def zero(cls, frame: str = BASE) -> "Wrench":
        return cls(np.zeros(3), np.zeros(3), frame)

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.force, self.torque])


def rotate_wrench(r: np.ndarray, w: np.ndarray) -> np.ndarray:
    """blockdiag(R, R) applied to a 6-vector (wrench, twist or pose error)."""
    return np.concatenate([r @ w[:3], r @ w[3:]])


def pose_error(current: Pose, desired: Pose) -> np.ndarray:
    """6-vector pose error: [p - p_d; log(R R_d^T)].

    The rotational part is the log of the current-relative-to-desired
    rotation so that -K * error is a restoring torque, matching the sign of
    the translational part.
    """
    return np.concatenate(
        [
            current.position - desired.position,
            rotation_log(current.rotation @ desired.rotation.T),
        ]
    )


def rotation_to_quaternion(r: np.ndarray) -> np.ndarray:
    """Unit quaternion (w, x, y, z) with w >= 0, Shepperd's method."""
    t = r.trace()
    if t > 0.0:
        s = np.sqrt(t + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (r[2, 1] - r[1, 2]) / s, (r[0, 2] - r[2, 0]) / s, (r[1, 0] - r[0, 1]) / s]
        )
    else:
        i = int(np.argmax(np.diag(r)))
        if i == 0:
            s = np.sqrt(1.0 + r[0, 0] - r[1, 1] - r[2, 2]) * 2.0
            q = np.array(
                [(r[2, 1] - r[1, 2]) / s, 0.25 * s, (r[0, 1] + r[1, 0]) / s, (r[0, 2] + r[2, 0]) / s]
            )
        elif i == 1:
            s = np.sqrt(1.0 + r[1, 1] - r[0, 0] - r[2, 2]) * 2.0
            q = np.array(
                [(r[0, 2] - r[2, 0]) / s, (r[0, 1] + r[1, 0]) / s, 0.25 * s, (r[1, 2] + r[2, 1]) / s]
            )
        else:
            s = np.sqrt(1.0 + r[2, 2] - r[0, 0] - r[1, 1]) * 2.0
            q = np.array(
                [(r[1, 0] - r[0, 1]) / s, (r[0, 2] + r[2, 0]) / s, (r[1, 2] + r[2, 1]) / s, 0.25 * s]
            )
    q = q / np.linalg.norm(q)
    return -q if q[0] < 0.0 else q
