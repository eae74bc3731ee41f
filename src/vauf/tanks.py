"""Virtual energy tanks and the numerical passivity audit.

Each tank is a scalar storage exchanging power with its controller through a
power-preserving interconnection: the valve sigma gates energy withdrawal
(zero once the tank is depleted to its lower limit), the gate beta stops
refilling at the upper limit. `TankConfig` holds a tank's start energy,
band and ramp width, all in joules; the loop carries each tank's energy S as
a float. A step integrates S directly from the port powers, so the per-tick
bookkeeping is exact, then clamps it to the band. The loop evaluates lam
and the gates once per tick, from the pre-step state, and hands the same
values to the command and to both tank steps. The steps run on the control
tick in Python floats on 6-tuples; the audit is numpy over the whole
telemetry table.

The audit replays a telemetry log and checks, tick by tick, that the total
storage (kinetic energy plus both tanks) never grows faster than the power
supplied through the contact, within AUDIT_TOL per tick.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

AUDIT_TOL = 1e-4  # J per tick, the discretization slack the audit allows


class AuditError(ValueError):
    """Telemetry log is missing columns the audit needs."""


@dataclass(frozen=True)
class TankConfig:
    s0: float  # J, initial tank energy
    s_upper: float  # J
    s_lower: float  # J
    ramp_eps: float = 0.2  # J, width of the sigma/beta transition ramps


def lambda_selector(x_dot: tuple, f_f: tuple) -> int:
    """1 iff the force wrench extracts energy (x_dot . f_f < 0), else 0."""
    return 1 if _dot6(x_dot, f_f) < 0.0 else 0


def _dot6(a: tuple, b: tuple) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3] + a[4] * b[4] + a[5] * b[5]


def valve_sigma(s_t: float, s_lower: float, eps: float) -> float:
    """0 at or below the lower limit, linear ramp of width eps, then 1."""
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    return float(min(max((s_t - s_lower) / eps, 0.0), 1.0))


def gate_beta(s_t: float, s_upper: float, eps: float) -> float:
    """1 well below the upper limit, ramping down to 0 at the limit."""
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    return float(min(max((s_upper - s_t) / eps, 0.0), 1.0))


def _integrate_energy(s: float, tank: TankConfig, power: float, dt: float) -> float:
    # Euler on S keeps the power ledger exact; the clamp can only discard.
    return min(max(s + power * dt, tank.s_lower), tank.s_upper)


def force_tank_step(
    s: float, tank: TankConfig, x_dot: tuple, f_f: tuple, lam: int, sigma: float, beta: float, dt: float
) -> float:
    """Force-controller tank energy after one tick with the command's lam, sigma and beta.

    Refills (through beta) with the extracted force power while the force
    demand is passive (lam = 1); pays the injected force power (through
    sigma) while the demand is active. The damper power belongs to the
    impedance tank.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    p_force = _dot6(x_dot, f_f)
    power = lam * beta * -p_force - sigma * (1 - lam) * p_force
    return _integrate_energy(s, tank, power, dt)


def impedance_tank_step(
    s: float, tank: TankConfig, x_dot: tuple, d: tuple, f_var: tuple, sigma: float, beta: float, dt: float
) -> float:
    """Variable-stiffness tank energy after one tick with the tick's gates sigma and beta.

    Harvests the damper dissipation (through beta) and exchanges the
    variable-spring power through the valve that also gates the spring in
    the control law. d is the diagonal damping, as in the damper wrench
    -d * x_dot; f_var is the spring wrench -K_var x_tilde the command
    applied, so the tank books the power of that very wrench.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    v0, v1, v2, v3, v4, v5 = x_dot
    d0, d1, d2, d3, d4, d5 = d
    p_damp = d0 * v0 * v0 + d1 * v1 * v1 + d2 * v2 * v2 + d3 * v3 * v3 + d4 * v4 * v4 + d5 * v5 * v5
    p_spring = -_dot6(f_var, x_dot)
    power = beta * p_damp + sigma * p_spring
    return _integrate_energy(s, tank, power, dt)


@dataclass(frozen=True)
class AuditReport:
    ticks_checked: int
    violation_count: int
    worst_violation: float  # J, max of (delta storage - supplied work)
    worst_time: float  # s

    @property
    def ok(self) -> bool:
        return self.violation_count == 0


_REQUIRED_AUDIT_COLUMNS = (
    ["t", "qw", "qx", "qy", "qz"]
    + [f"v{a}" for a in "xyz"]
    + [f"w{a}" for a in "xyz"]
    + [f"fext_ee_{c}" for c in ("fx", "fy", "fz", "tx", "ty", "tz")]
    + ["S_t_i", "S_t_f"]
)


def passivity_audit(
    columns: dict,
    m_diag: np.ndarray,
    dt: float,
    s0_impedance: float,
    s0_force: float,
) -> AuditReport:
    """Check discrete passivity of a run from its telemetry columns.

    Per tick: [KE(k+1) - KE(k)] + [S_tanks(k) - S_tanks(k-1)] must not exceed
    the contact work (midpoint twist dotted with the external wrench, which
    is the exact work done on the semi-implicit plant) by more than AUDIT_TOL.
    Tank energies are logged post-update, so row k holds the storage at the
    end of tick k.
    """
    missing = [c for c in _REQUIRED_AUDIT_COLUMNS if c not in columns]
    if missing:
        raise AuditError(f"telemetry log missing columns: {missing}")
    twist = np.stack([columns[c] for c in ("vx", "vy", "vz", "wx", "wy", "wz")], axis=1)
    n = len(twist)
    if n < 2:
        raise AuditError("audit needs at least two telemetry rows")
    ke = 0.5 * np.sum(twist * twist * np.asarray(m_diag)[None, :], axis=1)

    q = np.stack([columns[c] for c in ("qw", "qx", "qy", "qz")], axis=1)
    f_ee = np.stack(
        [columns[f"fext_ee_{c}"] for c in ("fx", "fy", "fz", "tx", "ty", "tz")], axis=1
    )
    f_base = np.empty_like(f_ee)
    rot = _quat_to_rot_batch(q)
    f_base[:, :3] = np.einsum("nij,nj->ni", rot, f_ee[:, :3])
    f_base[:, 3:] = np.einsum("nij,nj->ni", rot, f_ee[:, 3:])

    s_i = np.concatenate([[s0_impedance], columns["S_t_i"]])
    s_f = np.concatenate([[s0_force], columns["S_t_f"]])

    v_mid = 0.5 * (twist[:-1] + twist[1:])
    supplied = np.sum(v_mid * f_base[:-1], axis=1) * dt
    d_storage = (ke[1:] - ke[:-1]) + np.diff(s_i)[: n - 1] + np.diff(s_f)[: n - 1]
    excess = d_storage - supplied

    viol = excess > AUDIT_TOL
    worst_idx = int(np.argmax(excess))
    return AuditReport(
        ticks_checked=n - 1,
        violation_count=int(viol.sum()),
        worst_violation=float(excess[worst_idx]),
        worst_time=float(columns["t"][worst_idx]),
    )


def _quat_to_rot_batch(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    rot = np.empty((len(q), 3, 3))
    rot[:, 0, 0] = 1 - 2 * (y * y + z * z)
    rot[:, 0, 1] = 2 * (x * y - w * z)
    rot[:, 0, 2] = 2 * (x * z + w * y)
    rot[:, 1, 0] = 2 * (x * y + w * z)
    rot[:, 1, 1] = 1 - 2 * (x * x + z * z)
    rot[:, 1, 2] = 2 * (y * z - w * x)
    rot[:, 2, 0] = 2 * (x * z - w * y)
    rot[:, 2, 1] = 2 * (y * z + w * x)
    rot[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return rot
