"""Ground-truth environment: parametric height fields and penalty contact.

The tool is modeled as a sphere of configurable radius touching a rigid
height field z = h(x, y). Contact is a unilateral spring-damper along the
analytic surface normal plus kinetic Coulomb friction against the slip
direction. Valid for gently sloped surfaces; near-vertical walls are out of
scope (penetration is measured vertically, then projected on the normal).
The tool is given by its centre position and twist only: a sphere's
contact does not depend on its orientation. The contact wrench is a
base-frame float64 6-vector (force, then torque).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SLIP_SPEED_EPS = 1e-5  # m/s, below this tangential force is zero


class DomainError(ValueError):
    """Query outside the surface patch."""


@dataclass(frozen=True)
class HeightField:
    """Height field h(x, y) over a rectangular patch.

    kind "sinusoid": h = amplitude * sin(pi * y / period + phase) + offset
    kind "flat":     h = offset
    """

    kind: str = "sinusoid"
    amplitude: float = 0.02
    period: float = 0.19
    phase: float = 0.44
    offset: float = 0.02
    x_half: float = 0.13
    y_half: float = 0.255
    mu: float = 0.5
    k_n: float = 1.0e4
    d_n: float = 50.0

    def __post_init__(self):
        if self.kind not in ("sinusoid", "flat"):
            raise ValueError(f"surface.kind must be sinusoid or flat, got {self.kind!r}")
        if not self.period > 0.0:
            raise ValueError(f"surface.period must be positive, got {self.period!r}")
        if not self.k_n > 0.0:
            raise ValueError(f"surface.k_n must be positive, got {self.k_n!r}")
        if not self.d_n >= 0.0:
            raise ValueError(f"surface.d_n must be non-negative, got {self.d_n!r}")
        if not self.mu >= 0.0:
            raise ValueError(f"surface.mu must be non-negative, got {self.mu!r}")

    def in_domain(self, x, y):
        return (np.abs(x) <= self.x_half) & (np.abs(y) <= self.y_half)

    def height_unchecked(self, x, y):
        """Vectorized h without domain checks (used by the renderer)."""
        if self.kind == "flat":
            return np.broadcast_to(np.asarray(self.offset, dtype=float), np.shape(y)).copy() \
                if np.ndim(y) else float(self.offset)
        return self.amplitude * np.sin(np.pi * y / self.period + self.phase) + self.offset

    def gradient_unchecked(self, x, y):
        """(dh/dx, dh/dy) without domain checks."""
        if self.kind == "flat":
            z = np.zeros(np.shape(y)) if np.ndim(y) else 0.0
            return z, z
        dy = self.amplitude * (np.pi / self.period) * np.cos(np.pi * y / self.period + self.phase)
        dx = np.zeros(np.shape(y)) if np.ndim(y) else 0.0
        return dx, dy


def height(surface: HeightField, x: float, y: float) -> float:
    """h(x, y); raises DomainError outside the patch."""
    if not surface.in_domain(x, y):
        raise DomainError(f"({x}, {y}) outside surface domain")
    return float(surface.height_unchecked(x, y))


def _unit_normal(surface: HeightField, x: float, y: float) -> np.ndarray:
    gx, gy = surface.gradient_unchecked(x, y)
    n = np.array([-gx, -gy, 1.0])
    return n / np.linalg.norm(n)


def analytic_normal(surface: HeightField, x: float, y: float) -> np.ndarray:
    """Upward unit normal normalize([-dh/dx, -dh/dy, 1])."""
    if not surface.in_domain(x, y):
        raise DomainError(f"({x}, {y}) outside surface domain")
    return _unit_normal(surface, x, y)


@dataclass(frozen=True)
class ContactReport:
    in_contact: bool
    penetration: float
    normal: np.ndarray
    wrench: np.ndarray  # 6, base frame, on the tool: force, then zero torque

    @classmethod
    def no_contact(cls) -> "ContactReport":
        return cls(False, 0.0, np.array([0.0, 0.0, 1.0]), np.zeros(6))


def contact_wrench(
    surface: HeightField,
    tool_position: np.ndarray,
    tool_twist: np.ndarray,
    tool_radius: float,
) -> ContactReport:
    """Penalty contact of a spherical tool tip against the height field.

    Normal force = (k_n * p + d_n * max(0, approach speed)) * n, never
    attractive. Tangential force = -mu * |F_n| * slip direction, zero below
    SLIP_SPEED_EPS. Point contact: no torque. Outside the patch there is no
    surface, hence no contact.
    """
    x, y, z = tool_position
    if not surface.in_domain(x, y):
        return ContactReport.no_contact()
    p_vert = float(surface.height_unchecked(x, y)) + tool_radius - z
    if p_vert <= 0.0:
        return ContactReport.no_contact()
    n = _unit_normal(surface, x, y)
    # vertical penetration projected on the normal (gentle-slope approximation)
    pen = p_vert * n[2]
    v = np.asarray(tool_twist, dtype=float)[:3]
    approach = -float(n @ v)  # > 0 while sinking in
    f_n_mag = surface.k_n * pen + surface.d_n * max(0.0, approach)
    v_t = v - (n @ v) * n
    slip = np.linalg.norm(v_t)
    if slip >= SLIP_SPEED_EPS and surface.mu > 0.0:
        f_t = -surface.mu * f_n_mag * (v_t / slip)
    else:
        f_t = np.zeros(3)
    return ContactReport(
        in_contact=True,
        penetration=pen,
        normal=n,
        wrench=np.concatenate((f_n_mag * n + f_t, np.zeros(3))),
    )
