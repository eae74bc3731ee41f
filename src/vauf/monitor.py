"""Contact-alignment monitoring and the stiffness/force shaping functions.

The alignment metric C accumulates a tactile work-like term, the visual
orientation error, and the local surface curvature. Its normalized
coefficient h drives saturated first-order dynamics for the stiffness
shaping state rho_align in [0, 1]. A separate gate rho_frc fades the force
controller out as the tool separates from the desired pose beyond a margin.
Tactile inputs update every control tick; the visual terms are latched
between perception frames. Wrenches and pose errors are tool-frame raw
6-vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MonitorConfig:
    alpha: float = 1.0  # tactile signal strength
    xi: float = 0.08  # orientation signal strength
    gamma: float = 10.0  # curvature signal strength
    c_margin: float = 0.9  # alignment margin C_m
    rho_min: float = 0.001  # floor rate ensuring an initial increment
    delta_c: float = 0.04  # m, force-fade margin
    rho_trigger: float = 1e-3  # realignment threshold on rho_align

    def __post_init__(self):
        if self.c_margin <= 0.0 or self.rho_min <= 0.0 or self.delta_c <= 0.0:
            raise ValueError("c_margin, rho_min and delta_c must be positive")


def alignment_metric(
    f_ext_ee: np.ndarray, x_tilde_ee: np.ndarray, theta: float, l_s: float, cfg: MonitorConfig
) -> float:
    """C = | alpha*|f_ext . x_tilde| + xi*theta + gamma*l_s |, tool-frame inputs."""
    tactile = abs(float(f_ext_ee @ x_tilde_ee))
    return abs(cfg.alpha * tactile + cfg.xi * theta + cfg.gamma * l_s)


def normalized_coefficient(c: float, c_margin: float) -> float:
    """h = 1 - C/C_m, deliberately unclamped; negative h drives rho_align down."""
    return 1.0 - c / c_margin


def rho_align_step(rho_align: float, h: float, dt: float, cfg: MonitorConfig) -> float:
    """One explicit-Euler step of the saturated shaping dynamics.

    rate = h*rho_align + rho_min, clipped at the saturations: no growth past
    1, no decay past 0. The result is clamped to [0, 1] so the state is a
    valid gain under any h sequence.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    rho = h * rho_align + cfg.rho_min
    if rho_align >= 1.0:
        rate = min(rho, 0.0)
    elif rho_align <= 0.0:
        rate = max(rho, 0.0)
    else:
        rate = rho
    return float(min(max(rho_align + rate * dt, 0.0), 1.0))


def rho_frc(f_d_ee: np.ndarray, x_tilde_ee: np.ndarray, delta_c: float) -> float:
    """Force shaping gate in [0, 1].

    Full force while the tool sits at or inside the commanded contact
    (f_d . x_tilde <= 0); a half-cosine fade while the separation stays
    within the margin; zero beyond it.
    """
    alignment_error = float(f_d_ee @ x_tilde_ee)
    if alignment_error <= 0.0:
        return 1.0
    x_z = float(x_tilde_ee[2])
    if 0.0 < x_z <= delta_c:
        return 0.5 * (1.0 + np.cos(np.pi * x_z / delta_c))
    return 0.0


def realignment_trigger(rho_align: float, rho_trigger: float = 1e-3) -> bool:
    """True when the robot is effectively fully compliant.

    Signals the loop to re-latch the desired translation onto the actual
    pose and to restart the orientation filter toward the perceived normal.
    """
    return rho_align <= rho_trigger
