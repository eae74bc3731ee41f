"""Unified force-impedance control with alignment-shaped stiffness.

The translational stiffness is the maximum stiffness scaled by rho_align and
conjugated into the base frame, a 3x3 block; the rotational block is a
constant diagonal (still routed through the tank-gated variable term).
Damping is diagonal: a 6-vector d, damper wrench -d * twist, from a
square-root design on the current stiffness and inertia with a floor so the
fully compliant robot is still damped. The force path is a scalar PI
controller on the tool-z reaction error with an anti-windup clamp. Desired
orientations are rebuilt from the perceived surface normal and blended in
via a geodesic low-pass filter. The wrenches built here are ungated: the
tank layer (`vauf.tanks`) gates them and composes the command. Everything
here runs on the control tick in floats and tuples (rotations row-major
9-tuples, wrenches and twists 6-tuples in the frame named by the argument:
``_ee`` tool frame, otherwise base); numpy only validates the configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spatial import mat_mul, rotate_wrench, rotation_log, rotation_power, transpose

D_FLOOR = 5.0  # N*s/m per axis, keeps the compliant robot damped
IDENTITY = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)


@dataclass(frozen=True)
class ControllerConfig:
    k_max: tuple = (1000.0, 1000.0, 10.0, 200.0, 200.0, 200.0)
    damping_coeffs: tuple = (0.7, 0.7, 0.7, 1.0, 1.0, 1.0)
    k_p: float = 0.6  # tool-z force PI gains
    k_i: float = 0.3
    integral_limit: float = 30.0  # N
    filter_time: float = 0.5  # s, orientation low-pass horizon

    def __post_init__(self):
        for name in ("k_max", "damping_coeffs", "k_p", "k_i", "integral_limit"):
            value = getattr(self, name)
            if not np.min(value) >= 0.0:
                raise ValueError(f"controller.{name} must be non-negative, got {value!r}")
        if not self.filter_time > 0.0:
            raise ValueError(f"controller.filter_time must be positive, got {self.filter_time!r}")


@dataclass
class ControllerState:
    pi_integral: float = 0.0  # N*s, tool-z force deficit
    r_init: tuple = IDENTITY
    r_d: tuple = IDENTITY
    t_filter: float = math.inf  # inf = filter settled
    rel_log: tuple = (0.0, 0.0, 0.0)  # log(r_d r_init^T)


def variable_stiffness(rho_align: float, r_ee: tuple, cfg: ControllerConfig) -> tuple[tuple, tuple]:
    """Tank-gated stiffness (k_t, k_r): the translational block
    rho * R diag(k_max_t) R^T (base frame, PSD, a row-major 9-tuple) and the
    fixed rotational diagonal; every other entry of the 6x6 stiffness is 0."""
    r0, r1, r2, r3, r4, r5, r6, r7, r8 = r_ee
    ka, kb, kc = cfg.k_max[0] * rho_align, cfg.k_max[1] * rho_align, cfg.k_max[2] * rho_align
    a0, a1, a2, a3, a4, a5 = r0 * ka, r1 * kb, r2 * kc, r3 * ka, r4 * kb, r5 * kc
    k01 = a0 * r3 + a1 * r4 + a2 * r5
    k02 = a0 * r6 + a1 * r7 + a2 * r8
    k12 = a3 * r6 + a4 * r7 + a5 * r8
    k22 = r6 * ka * r6 + r7 * kb * r7 + r8 * kc * r8
    return (a0 * r0 + a1 * r1 + a2 * r2, k01, k02, k01, a3 * r3 + a4 * r4 + a5 * r5, k12, k02, k12, k22), cfg.k_max[3:]


def spring_wrench(k_var: tuple[tuple, tuple], x_tilde: tuple) -> tuple:
    """The variable-stiffness spring -K_var x_tilde."""
    (k0, k1, k2, k3, k4, k5, k6, k7, k8), (kr0, kr1, kr2) = k_var
    x0, x1, x2, x3, x4, x5 = x_tilde
    return (
        -(k0 * x0 + k1 * x1 + k2 * x2), -(k3 * x0 + k4 * x1 + k5 * x2), -(k6 * x0 + k7 * x1 + k8 * x2),
        -kr0 * x3, -kr1 * x4, -kr2 * x5,
    )


def damping_matrix(k_c: tuple[tuple, tuple], m_diag: tuple, coeffs: tuple) -> tuple:
    """Diagonal of D = 2 diag(coeffs) sqrt(diag(K) diag(M)) + floor, all positive.

    m_diag is the diagonal inertia; the result is the six per-axis damping
    coefficients, so the damper wrench is -d * twist.
    """
    (k0, _, _, _, k4, _, _, _, k8), (kr0, kr1, kr2) = k_c
    c0, c1, c2, c3, c4, c5 = coeffs
    m0, m1, m2, m3, m4, m5 = m_diag
    return (
        2.0 * c0 * math.sqrt(abs(k0) * m0) + D_FLOOR, 2.0 * c1 * math.sqrt(abs(k4) * m1) + D_FLOOR,
        2.0 * c2 * math.sqrt(abs(k8) * m2) + D_FLOOR, 2.0 * c3 * math.sqrt(abs(kr0) * m3) + D_FLOOR,
        2.0 * c4 * math.sqrt(abs(kr1) * m4) + D_FLOOR, 2.0 * c5 * math.sqrt(abs(kr2) * m5) + D_FLOOR,
    )


def force_wrench(
    f_d_z: float, f_ext_z: float, state: ControllerState, r_ee: tuple, dt: float, cfg: ControllerConfig
) -> tuple:
    """PI force controller on the tool-z reaction, evaluated then integrated.

    Output is f_d + k_p f_err + k_i * integral along tool z, rotated to a
    base-frame wrench. The integral accumulates the tracking deficit
    (desired minus measured): accumulating the raw f_err instead puts a
    right-half-plane root into the contact loop (the integral then
    reinforces over-pressing), so the deficit is what keeps the loop stable
    with a zero steady-state integral. The integral is clamped against
    windup out of contact.
    """
    f_err = f_ext_z - f_d_z
    out = f_d_z + cfg.k_p * f_err + cfg.k_i * state.pi_integral
    state.pi_integral = min(max(state.pi_integral - f_err * dt, -cfg.integral_limit), cfg.integral_limit)
    # only R's z column meets the tool-z thrust (0, 0, out, 0, 0, 0)
    return rotate_wrench(r_ee, (0.0, 0.0, out, 0.0, 0.0, 0.0))


def desired_orientation(n_s_base: tuple, r_ee: tuple) -> tuple:
    """Orientation whose z-axis is the (upward) surface normal.

    The tool's current x-axis is projected onto the plane orthogonal to the
    normal to preserve heading; if it is parallel to the normal the y-axis
    is projected instead (deterministic fallback).
    """
    n0, n1, n2 = n_s_base

    def projected(a0, a1, a2):  # a minus its normal component, and its norm
        d = a0 * n0 + a1 * n1 + a2 * n2
        p = (a0 - d * n0, a1 - d * n1, a2 - d * n2)
        return p, math.hypot(*p)

    (x0, x1, x2), norm = projected(r_ee[0], r_ee[3], r_ee[6])
    if norm < 1e-6:
        (y0, y1, y2), norm = projected(r_ee[1], r_ee[4], r_ee[7])
        y0, y1, y2 = y0 / norm, y1 / norm, y2 / norm
        x0, x1, x2 = y1 * n2 - y2 * n1, y2 * n0 - y0 * n2, y0 * n1 - y1 * n0
    else:
        x0, x1, x2 = x0 / norm, x1 / norm, x2 / norm
        y0, y1, y2 = n1 * x2 - n2 * x1, n2 * x0 - n0 * x2, n0 * x1 - n1 * x0
    return x0, y0, n0, x1, y1, n1, x2, y2, n2


def restart_filter(state: ControllerState, r_init: tuple, r_d: tuple) -> None:
    """Start a new low-pass from r_init towards r_d; their relative log is
    constant until the next restart, so it is computed once here."""
    state.r_init = r_init
    state.r_d = r_d
    state.rel_log = rotation_log(mat_mul(r_d, transpose(r_init)))
    state.t_filter = 0.0


def orientation_filter(state: ControllerState, dt: float, filter_time: float) -> tuple:
    """Geodesic low-pass from r_init to r_d over filter_time seconds.

    Returns the blend at the current clock, then advances the clock by dt.
    At or past the horizon the target is returned exactly.
    """
    if state.t_filter >= filter_time:
        return state.r_d
    # the guard above and a clock that starts at 0 and only grows keep zeta in [0, 1)
    out = rotation_power(state.r_init, state.rel_log, state.t_filter / filter_time)
    state.t_filter += dt
    return out

