"""Contact-alignment monitoring and the stiffness/force shaping functions.

The alignment metric C accumulates a tactile work-like term, the visual
orientation error, and the local surface curvature. Its normalized
coefficient h drives saturated first-order dynamics for the stiffness
shaping state rho_align in [0, 1]. A separate gate rho_frc fades the force
controller out as the tool separates from the desired pose beyond a margin,
read on the tool-z axis alone. Tactile inputs update every control tick; the
visual terms are latched between perception frames. The metric's wrenches
and pose errors are tool-frame 6-tuples; everything here is float math.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


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
        for name in ("alpha", "xi", "gamma"):
            value = getattr(self, name)
            if not value >= 0.0:
                raise ValueError(f"monitor.{name} must be non-negative, got {value!r}")
        for name in ("c_margin", "rho_min", "delta_c"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ValueError(f"monitor.{name} must be positive, got {value!r}")
        if not 0.0 <= self.rho_trigger <= 1.0:
            raise ValueError(f"monitor.rho_trigger must lie in [0, 1], got {self.rho_trigger!r}")


def alignment_metric(
    f_ext_ee: tuple, x_tilde_ee: tuple, theta: float, l_s: float, cfg: MonitorConfig
) -> float:
    """C = | alpha*|f_ext . x_tilde| + xi*theta + gamma*l_s |, tool-frame inputs."""
    f0, f1, f2, f3, f4, f5 = f_ext_ee
    x0, x1, x2, x3, x4, x5 = x_tilde_ee
    tactile = abs(f0 * x0 + f1 * x1 + f2 * x2 + f3 * x3 + f4 * x4 + f5 * x5)
    return abs(cfg.alpha * tactile + cfg.xi * theta + cfg.gamma * l_s)


def normalized_coefficient(c: float, c_margin: float) -> float:
    """h = 1 - C/C_m, deliberately unclamped; negative h drives rho_align down."""
    return 1.0 - c / c_margin


def rho_align_step(rho_align: float, h: float, dt: float, cfg: MonitorConfig) -> float:
    """One explicit-Euler step of the saturated shaping dynamics.

    rate = h*rho_align + rho_min. The clamp to [0, 1] is the saturation: no
    growth past 1, no decay past 0 (for finite dt, bit for bit the rate
    clipped at a saturated state), so the state is a valid gain under any h.
    """
    return min(max(rho_align + (h * rho_align + cfg.rho_min) * dt, 0.0), 1.0)


def rho_frc(f_d_z: float, x_z: float, delta_c: float) -> float:
    """Force shaping gate in [0, 1] from the tool-z desired reaction and pose error.

    Full force while the tool sits at or inside the commanded contact
    (f_d_z * x_z <= 0); a half-cosine fade while the separation stays
    within the margin; zero beyond it.
    """
    if f_d_z * x_z <= 0.0:
        return 1.0
    if 0.0 < x_z <= delta_c:
        return 0.5 * (1.0 + math.cos(math.pi * x_z / delta_c))
    return 0.0


def realignment_trigger(rho_align: float, rho_trigger: float) -> bool:
    """True when the robot is effectively fully compliant.

    Signals the loop to re-latch the desired translation onto the actual
    pose and to restart the orientation filter toward the perceived normal.
    """
    return rho_align <= rho_trigger
