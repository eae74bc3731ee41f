"""Unified force-impedance control with alignment-shaped stiffness.

The translational stiffness is the maximum stiffness scaled by rho_align and
conjugated into the base frame; the rotational block stays at its maximum
(it is still routed through the tank-gated variable term). Damping follows a
square-root design from the current stiffness and inertia with a floor so
the fully compliant robot is still damped. The force path is a PI controller
on tool-frame wrench error with a per-axis anti-windup clamp. Desired
orientations are rebuilt from the perceived surface normal and blended in
via a geodesic low-pass filter. Wrenches and twists are raw 6-vectors in
the frame named by the argument (``_ee`` tool frame, otherwise base).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spatial import rotate_wrench, rotation_log, rotation_power

D_FLOOR = 5.0  # N*s/m per axis, keeps the compliant robot damped


@dataclass(frozen=True)
class ControllerConfig:
    k_max: tuple = (1000.0, 1000.0, 10.0, 200.0, 200.0, 200.0)
    damping_coeffs: tuple = (0.7, 0.7, 0.7, 1.0, 1.0, 1.0)
    k_p: tuple = (0.6,) * 6
    k_i: tuple = (0.3,) * 6
    integral_limit: float = 30.0  # N (N*m rotational), per axis
    filter_time: float = 0.5  # s, orientation low-pass horizon

    def __post_init__(self):
        if min(self.k_max) < 0 or min(self.k_p) < 0 or min(self.k_i) < 0:
            raise ValueError("gains must be non-negative")
        if self.filter_time <= 0.0:
            raise ValueError("filter_time must be positive")


@dataclass
class ControllerState:
    pi_integral: np.ndarray = field(default_factory=lambda: np.zeros(6))
    r_init: np.ndarray = field(default_factory=lambda: np.eye(3))
    r_d: np.ndarray = field(default_factory=lambda: np.eye(3))
    t_filter: float = np.inf  # inf = filter settled
    rel_log: np.ndarray = field(default_factory=lambda: np.zeros(3))  # log(r_d r_init^T)


def stiffness_from_alignment(rho_align: float, r_ee: np.ndarray, k_max_t: np.ndarray) -> np.ndarray:
    """Translational stiffness rho * R diag(k_max_t) R^T (base frame, PSD)."""
    return rho_align * (r_ee * np.asarray(k_max_t)) @ r_ee.T


def variable_stiffness(rho_align: float, r_ee: np.ndarray, cfg: ControllerConfig) -> np.ndarray:
    """Full 6x6 tank-gated stiffness: shaped translational block, fixed rotational."""
    k = np.zeros((6, 6))
    k[:3, :3] = stiffness_from_alignment(rho_align, r_ee, np.asarray(cfg.k_max[:3]))
    k.flat[21::7] = cfg.k_max[3:]  # diagonal of the rotational block
    return k


def damping_matrix(k_c: np.ndarray, m_c: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """D = 2 diag(coeffs) sqrt(diag(K) diag(M)) + floor, positive definite."""
    d = 2.0 * np.asarray(coeffs) * np.sqrt(np.abs(k_c.diagonal()) * m_c.diagonal())
    out = np.zeros((6, 6))
    out.flat[::7] = d + D_FLOOR
    return out


def impedance_wrench(
    x_tilde: np.ndarray, x_dot: np.ndarray, k_c: np.ndarray, d_c: np.ndarray
) -> np.ndarray:
    """Spring-damper wrench -K x_tilde - D x_dot in the base frame."""
    return -k_c @ x_tilde - d_c @ x_dot


def force_wrench(
    f_d_ee: np.ndarray,
    f_ext_ee: np.ndarray,
    state: ControllerState,
    r_ee: np.ndarray,
    dt: float,
    cfg: ControllerConfig,
) -> np.ndarray:
    """PI force controller, evaluated then integrated.

    Output is f_d + K_p f_err + K_i * integral rotated to the base frame.
    The integral accumulates the tracking deficit (desired minus measured):
    accumulating the raw f_err instead puts a right-half-plane root into the
    contact loop (the integral then reinforces over-pressing), so the
    deficit is what keeps the loop stable with a zero steady-state integral.
    The integral is clamped per axis against windup out of contact.
    Inputs are tool-frame, the result is in the base frame.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    f_err = f_ext_ee - f_d_ee
    out_ee = f_d_ee + np.asarray(cfg.k_p) * f_err + np.asarray(cfg.k_i) * state.pi_integral
    state.pi_integral = (state.pi_integral - f_err * dt).clip(-cfg.integral_limit, cfg.integral_limit)
    return rotate_wrench(r_ee, out_ee)


def desired_orientation(n_s_base: np.ndarray, r_ee: np.ndarray) -> np.ndarray:
    """Orientation whose z-axis is the (upward) surface normal.

    The tool's current x-axis is projected onto the plane orthogonal to the
    normal to preserve heading; if it is parallel to the normal the y-axis
    is projected instead (deterministic fallback).
    """
    n = np.asarray(n_s_base, dtype=float)
    r_x = r_ee[:, 0]
    proj = r_x - (r_x @ n) * n
    norm = np.linalg.norm(proj)
    if norm < 1e-6:
        r_y = r_ee[:, 1]
        proj_y = r_y - (r_y @ n) * n
        new_y = proj_y / np.linalg.norm(proj_y)
        new_x = np.cross(new_y, n)
        return np.column_stack([new_x, new_y, n])
    new_x = proj / norm
    new_y = np.cross(n, new_x)
    return np.column_stack([new_x, new_y, n])


def restart_filter(state: ControllerState, r_init: np.ndarray, r_d: np.ndarray) -> None:
    """Start a new low-pass from r_init towards r_d; their relative log is
    constant until the next restart, so it is computed once here."""
    state.r_init = r_init
    state.r_d = r_d
    state.rel_log = rotation_log(r_d @ r_init.T)
    state.t_filter = 0.0


def orientation_filter(state: ControllerState, dt: float, filter_time: float) -> np.ndarray:
    """Geodesic low-pass from r_init to r_d over filter_time seconds.

    Returns the blend at the current clock, then advances the clock by dt.
    At or past the horizon the target is returned exactly.
    """
    if state.t_filter >= filter_time:
        return state.r_d
    zeta = min(max(state.t_filter / filter_time, 0.0), 1.0)
    out = rotation_power(state.r_init, state.r_d, zeta, state.rel_log)
    state.t_filter += dt
    return out


def compose_command(
    f_damp: np.ndarray,
    f_var: np.ndarray,
    f_frc: np.ndarray,
    rho_frc: float,
    lam: int,
    sigma_f: float,
    sigma_i: float,
) -> np.ndarray:
    """Tank-gated control wrench.

    f = f_damp + sigma_i * f_var + rho_frc * (lam + sigma_f * (1 - lam)) * f_frc
    where f_damp is the ungated damping (plus any constant-stiffness) part
    and f_var = -K_var x_tilde is the variable-stiffness spring. With every
    gate open this is plain unified force-impedance control.
    """
    return f_damp + sigma_i * f_var + rho_frc * (lam + sigma_f * (1.0 - lam)) * f_frc
