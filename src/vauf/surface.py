"""Ground-truth environment: parametric height fields and penalty contact.

The tool is modeled as a sphere of configurable radius touching a rigid
height field z = h(x, y). Contact is a unilateral spring-damper along the
analytic surface normal plus kinetic Coulomb friction against the slip
direction. Valid for gently sloped surfaces; near-vertical walls are out of
scope (penetration is measured vertically, then projected on the normal).
The tool is given by its centre position and twist only: a sphere's
contact does not depend on its orientation. Contact runs on the control
tick, so it is computed in floats with `math`: the report holds whether the
tool touches and the contact wrench, a base-frame 6-tuple (force, then
torque). The normal it used is `analytic_normal` at the tool centre. The
vectorized numpy height field serves the renderer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

SLIP_SPEED_EPS = 1e-5  # m/s, below this tangential force is zero


class DomainError(ValueError):
    """Query outside the surface patch."""


@dataclass(frozen=True)
class HeightField:
    """Height field h = amplitude * sin(pi * y / period + phase) + offset over a
    rectangular patch; a flat surface has amplitude 0."""

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
        if not self.period > 0.0:
            raise ValueError(f"surface.period must be positive, got {self.period!r}")
        if not self.k_n > 0.0:
            raise ValueError(f"surface.k_n must be positive, got {self.k_n!r}")
        if not self.d_n >= 0.0:
            raise ValueError(f"surface.d_n must be non-negative, got {self.d_n!r}")
        if not self.mu >= 0.0:
            raise ValueError(f"surface.mu must be non-negative, got {self.mu!r}")

    def in_domain(self, x, y):
        """Inside the patch; works on floats and, elementwise, on arrays."""
        return (abs(x) <= self.x_half) & (abs(y) <= self.y_half)

    def height_band(self) -> tuple[float, float]:
        """(lowest, highest) height of the unbounded sinusoid."""
        return self.offset - abs(self.amplitude), self.offset + abs(self.amplitude)

    def height_rate_bound(self, dx, dy):
        """Bound on |dh/ds| along (x, y) + s * (dx, dy); elementwise on
        arrays. h does not vary with x, so dx does not enter."""
        return abs(self.amplitude) * (np.pi / self.period) * np.abs(dy)

    def height_unchecked(self, x, y):
        """Vectorized h without domain checks (used by the renderer)."""
        return self.amplitude * np.sin(np.pi * y / self.period + self.phase) + self.offset


def height(surface: HeightField, x: float, y: float) -> float:
    """h(x, y); raises DomainError outside the patch."""
    if not surface.in_domain(x, y):
        raise DomainError(f"({x}, {y}) outside surface domain")
    return float(surface.height_unchecked(x, y))


def _height_slope(surface: HeightField, y: float) -> tuple[float, float]:
    """(h, dh/dy) at one point in floats; dh/dx is 0."""
    arg = math.pi * y / surface.period + surface.phase
    return (surface.amplitude * math.sin(arg) + surface.offset,
            surface.amplitude * (math.pi / surface.period) * math.cos(arg))


def analytic_normal(surface: HeightField, x: float, y: float) -> np.ndarray:
    """Upward unit normal normalize([-dh/dx, -dh/dy, 1])."""
    if not surface.in_domain(x, y):
        raise DomainError(f"({x}, {y}) outside surface domain")
    gy = _height_slope(surface, y)[1]
    return np.array([0.0, -gy, 1.0]) / math.sqrt(gy * gy + 1.0)


class ContactReport(NamedTuple):
    in_contact: bool
    wrench: tuple  # 6, base frame, on the tool: force, then zero torque


_NO_CONTACT = ContactReport(False, (0.0,) * 6)


def contact_wrench(
    surface: HeightField, tool_position: tuple, tool_twist: tuple, tool_radius: float
) -> ContactReport:
    """Penalty contact of a spherical tool tip against the height field.

    Normal force = (k_n * p + d_n * max(0, approach speed)) * n, never
    attractive. Tangential force = -mu * |F_n| * slip direction, zero below
    SLIP_SPEED_EPS. Point contact: no torque. Outside the patch there is no
    surface, hence no contact.
    """
    x, y, z = tool_position
    if not surface.in_domain(x, y):
        return _NO_CONTACT
    h, gy = _height_slope(surface, y)
    p_vert = h + tool_radius - z
    if p_vert <= 0.0:
        return _NO_CONTACT
    norm = math.sqrt(gy * gy + 1.0)
    n1, n2 = -gy / norm, 1.0 / norm
    # vertical penetration projected on the normal (gentle-slope approximation)
    pen = p_vert * n2
    v0, v1, v2 = tool_twist[0], tool_twist[1], tool_twist[2]
    vn = n1 * v1 + n2 * v2  # < 0 while sinking in
    f_n = surface.k_n * pen + surface.d_n * max(0.0, -vn)
    t0, t1, t2 = v0, v1 - vn * n1, v2 - vn * n2
    slip = math.sqrt(t0 * t0 + t1 * t1 + t2 * t2)
    if slip >= SLIP_SPEED_EPS and surface.mu > 0.0:
        c = -surface.mu * f_n
        f = (c * (t0 / slip), f_n * n1 + c * (t1 / slip), f_n * n2 + c * (t2 / slip))
    else:
        f = (0.0, f_n * n1, f_n * n2)
    return ContactReport(True, f + (0.0, 0.0, 0.0))
