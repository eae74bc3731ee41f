"""Small linear algebra: rotations, poses, 6-vectors.

On the control tick everything is Python floats and tuples, computed with
`math`: a rotation is a row-major 9-tuple (r00, r01, r02, r10, ..., r22,
determinant +1) and wrenches, twists and pose errors are 6-tuples, linear
part first; the caller knows which frame a vector is expressed in. numpy
appears only where the camera needs it: `Pose` and `rotation_x`. All
functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_PI_AXIS_TOL = 1e-7


def rotation_x(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def mat_mul(a: tuple, b: tuple) -> tuple:
    """Product of two row-major 3x3 matrices."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
    return (
        a0 * b0 + a1 * b3 + a2 * b6, a0 * b1 + a1 * b4 + a2 * b7, a0 * b2 + a1 * b5 + a2 * b8,
        a3 * b0 + a4 * b3 + a5 * b6, a3 * b1 + a4 * b4 + a5 * b7, a3 * b2 + a4 * b5 + a5 * b8,
        a6 * b0 + a7 * b3 + a8 * b6, a6 * b1 + a7 * b4 + a8 * b7, a6 * b2 + a7 * b5 + a8 * b8,
    )


def transpose(r: tuple) -> tuple:
    return r[0], r[3], r[6], r[1], r[4], r[7], r[2], r[5], r[8]


def rotation_exp(w: tuple) -> tuple:
    """Rodrigues formula: rotation about w/|w| by angle |w| (radians)."""
    x, y, z = w
    xx, yy, zz = x * x, y * y, z * z
    theta = math.sqrt(xx + yy + zz)
    if theta < 1e-10:
        a, b = 1.0, 0.5  # second-order series; exact enough below the cutoff
    else:
        a = math.sin(theta) / theta
        b = (1.0 - math.cos(theta)) / (theta * theta)
    bxy, bxz, byz = b * x * y, b * x * z, b * y * z
    return (
        1.0 - b * (yy + zz), bxy - a * z, bxz + a * y,
        bxy + a * z, 1.0 - b * (xx + zz), byz - a * x,
        bxz - a * y, byz + a * x, 1.0 - b * (xx + yy),
    )


def rotation_log(r: tuple) -> tuple:
    """Axis*angle 3-vector with |result| <= pi.

    The angle is atan2(|v|, tr - 1) with v the skew part, exact down to the
    smallest angles. Near angle pi the skew part vanishes; the axis is then
    recovered from (R + I)/2 and its sign fixed by making the
    largest-magnitude component positive.
    """
    v0, v1, v2 = r[7] - r[5], r[2] - r[6], r[3] - r[1]  # 2 sin(angle) * axis
    s = math.hypot(v0, v1, v2)
    theta = math.atan2(s, r[0] + r[4] + r[8] - 1.0)
    if math.pi - theta < _PI_AXIS_TOL:
        diag = (r[0], r[4], r[8])
        i = diag.index(max(diag))
        row = [0.5 * (r[3 * i + j] + (i == j)) for j in range(3)]  # row i of (R + I)/2
        row[i] = math.sqrt(max(row[i], 0.0))
        axis = [c / row[i] if j != i else c for j, c in enumerate(row)]
        scale = theta / math.hypot(*axis)
        if max(axis, key=abs) < 0.0:
            scale = -scale
        return tuple(c * scale for c in axis)
    if s == 0.0:
        return 0.0, 0.0, 0.0
    k = theta / s
    return v0 * k, v1 * k, v2 * k


def rotation_power(r_init: tuple, rel: tuple, zeta: float) -> tuple:
    """Geodesic interpolant (R_target R_init^T)^zeta R_init for zeta in [0, 1].

    ``rel`` is log(R_target R_init^T), the whole way from R_init to R_target.
    """
    if not 0.0 <= zeta <= 1.0:
        raise ValueError(f"zeta must be in [0, 1], got {zeta}")
    if zeta == 0.0:
        return r_init
    return mat_mul(rotation_exp((zeta * rel[0], zeta * rel[1], zeta * rel[2])), r_init)


@dataclass(frozen=True)
class Pose:
    """Rigid transform: rotation (3x3, base <- local) and position (m)."""

    rotation: np.ndarray
    position: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=float))
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))


def rotate_wrench(r: tuple, w: tuple) -> tuple:
    """blockdiag(R, R) applied to a 6-vector (wrench, twist or pose error)."""
    r0, r1, r2, r3, r4, r5, r6, r7, r8 = r
    f0, f1, f2, t0, t1, t2 = w
    return (
        r0 * f0 + r1 * f1 + r2 * f2, r3 * f0 + r4 * f1 + r5 * f2, r6 * f0 + r7 * f1 + r8 * f2,
        r0 * t0 + r1 * t1 + r2 * t2, r3 * t0 + r4 * t1 + r5 * t2, r6 * t0 + r7 * t1 + r8 * t2,
    )


def pose_error(r: tuple, p: tuple, r_d: tuple, p_d: tuple) -> tuple:
    """6-vector pose error of (r, p) from (r_d, p_d): [p - p_d; log(R R_d^T)].

    The rotational part is the log of the current-relative-to-desired
    rotation so that -K * error is a restoring torque, matching the sign of
    the translational part.
    """
    return (p[0] - p_d[0], p[1] - p_d[1], p[2] - p_d[2]) + rotation_log(mat_mul(r, transpose(r_d)))


def rotation_to_quaternion(r: tuple) -> tuple:
    """Unit quaternion (w, x, y, z) with w >= 0, Shepperd's method."""
    r0, r1, r2, r3, r4, r5, r6, r7, r8 = r
    t = r0 + r4 + r8
    if t > 0.0:
        s = math.sqrt(t + 1.0) * 2.0
        q = (0.25 * s, (r7 - r5) / s, (r2 - r6) / s, (r3 - r1) / s)
    elif r0 >= r4 and r0 >= r8:  # the largest diagonal entry, the first on ties
        s = math.sqrt(1.0 + r0 - r4 - r8) * 2.0
        q = ((r7 - r5) / s, 0.25 * s, (r1 + r3) / s, (r2 + r6) / s)
    elif r4 >= r8:
        s = math.sqrt(1.0 + r4 - r0 - r8) * 2.0
        q = ((r2 - r6) / s, (r1 + r3) / s, 0.25 * s, (r5 + r7) / s)
    else:
        s = math.sqrt(1.0 + r8 - r0 - r4) * 2.0
        q = ((r3 - r1) / s, (r2 + r6) / s, (r5 + r7) / s, 0.25 * s)
    n = math.hypot(*q)
    if q[0] < 0.0:
        n = -n
    return q[0] / n, q[1] / n, q[2] / n, q[3] / n
