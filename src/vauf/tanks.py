"""Virtual energy tanks and the numerical passivity audit.

Each tank is a scalar storage exchanging power with its controller through a
power-preserving interconnection: the valve sigma gates energy withdrawal
(zero once the tank is depleted to its lower limit), the gate beta stops
refilling at the upper limit. `TankConfig` holds a tank's start energy, band
and ramp width, all in joules; the gates and the steps read the band from it.
A step integrates the tank energy S, a float the loop carries, directly from
the port powers, then clamps it to the band. Each tick the loop hands one
force-port tuple (the rho_frc-shaped thrust) to `lambda_selector`,
`compose_command` and `force_tank_step`, one damper-wrench tuple to
`compose_command` and `impedance_tank_step`, and the same pre-step lam and
gates to the command and both steps. A step books the power of the wrench
it is handed, gated as the command gated it, so only the loop knows the
damper law; beta throttles only a refill, never a payment. All of it runs on
the control tick in Python floats on 6-tuples; the audit is numpy over the
telemetry table, one block of rows at a time.

The audit replays a run's telemetry table against the scenario the run used
(its mass, control period and tank start energies) and checks, tick by
tick, that the total storage (kinetic energy plus both tanks) never grows
faster than the power supplied through the contact, within AUDIT_TOL per
tick. A one-row table has no tick to check and passes. It reads its four runs
of adjacent columns by slice, in place in the table's own memory layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spatial import quaternion_to_rotation
from .telemetry import BLOCK_ROWS, COLUMNS, ParseError

AUDIT_TOL = 1e-4  # J per tick, the discretization slack the audit allows


# the audit's columns: the twist, the quaternion, the tool-frame wrench and both tank energies
_TWIST, _QUAT, _F_EE, _TANKS = (slice(COLUMNS.index(a), COLUMNS.index(b) + 1) for a, b in (
    ("vx", "wz"), ("qw", "qz"), ("fext_ee_fx", "fext_ee_tz"), ("S_t_i", "S_t_f")))


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


def valve_sigma(s_t: float, tank: TankConfig) -> float:
    """0 at or below the tank's lower limit, linear ramp of width ramp_eps, then 1."""
    return min(max((s_t - tank.s_lower) / tank.ramp_eps, 0.0), 1.0)


def gate_beta(s_t: float, tank: TankConfig) -> float:
    """1 well below the tank's upper limit, ramping down to 0 at the limit."""
    return min(max((tank.s_upper - s_t) / tank.ramp_eps, 0.0), 1.0)


def compose_command(f_damp: tuple, f_var: tuple, f_force: tuple, lam: int, sigma_f: float, sigma_i: float) -> tuple:
    """Tank-gated control wrench f_damp + sigma_i * f_var + (lam + sigma_f * (1 - lam)) * f_force.

    f_damp is the ungated damper part, f_var = -K_var x_tilde the variable
    spring and f_force the force port. With every gate open this is plain
    unified force-impedance control.
    """
    g = lam + sigma_f * (1.0 - lam)
    d0, d1, d2, d3, d4, d5 = f_damp
    v0, v1, v2, v3, v4, v5 = f_var
    f0, f1, f2, f3, f4, f5 = f_force
    return (
        d0 + sigma_i * v0 + g * f0, d1 + sigma_i * v1 + g * f1, d2 + sigma_i * v2 + g * f2,
        d3 + sigma_i * v3 + g * f3, d4 + sigma_i * v4 + g * f4, d5 + sigma_i * v5 + g * f5,
    )


def _integrate_energy(s: float, tank: TankConfig, power: float, dt: float) -> float:
    # Euler on S keeps the power ledger exact. The clamp acts both ways: it discards
    # a refill above s_upper and adds energy when a payment overdraws S - s_lower.
    return min(max(s + power * dt, tank.s_lower), tank.s_upper)


def force_tank_step(
    s: float, tank: TankConfig, x_dot: tuple, f_f: tuple, lam: int, sigma: float, beta: float, dt: float
) -> float:
    """Force-controller tank energy after one tick with the command's lam, sigma and beta.

    Books the power of the port the command applied, p = x_dot . f_f: in
    full while the demand is passive (lam = 1), through sigma while it is
    active, as the command gated it. beta throttles only a refill, the power
    a passive port extracts (p < 0). The damper power belongs to the
    impedance tank.
    """
    p_force = _dot6(x_dot, f_f)
    return _integrate_energy(s, tank, -p_force * ((beta if p_force < 0.0 else 1.0) * lam + sigma * (1 - lam)), dt)


def impedance_tank_step(
    s: float, tank: TankConfig, x_dot: tuple, f_damp: tuple, f_var: tuple, sigma: float, beta: float, dt: float
) -> float:
    """Variable-stiffness tank energy after one tick with the tick's gates sigma and beta.

    Books the power of the two wrenches the command applied: the damper
    wrench f_damp, ungated, and the spring wrench f_var = -K_var x_tilde
    through the valve sigma that also gates it in the control law. beta
    throttles only a refill, the damper power dissipated (p_damp > 0).
    """
    p_damp = -_dot6(f_damp, x_dot)
    return _integrate_energy(s, tank, (beta if p_damp > 0.0 else 1.0) * p_damp - sigma * _dot6(f_var, x_dot), dt)


@dataclass(frozen=True)
class AuditReport:
    ticks_checked: int
    violation_count: int
    worst_violation: float  # J, max of (delta storage - supplied work)
    worst_time: float  # s

    @property
    def ok(self) -> bool:
        return self.violation_count == 0


def passivity_audit(table, scenario) -> AuditReport:
    """Check discrete passivity of a run from its (n, len(COLUMNS)) telemetry
    table and the `runtime.Scenario` it ran.

    Per tick: [KE(k+1) - KE(k)] + [S_tanks(k) - S_tanks(k-1)] must not exceed
    the contact work (midpoint twist dotted with the external wrench, which
    is the exact work done on the semi-implicit plant) by more than AUDIT_TOL.
    Tank energies are logged post-update, so row k holds the storage at the
    end of tick k. The ticks are checked BLOCK_ROWS at a time; a block reads
    one row past its last tick, and the storage its first tick starts from.
    """
    table = np.asarray(table, dtype=float)
    if table.ndim != 2 or table.shape[1] != len(COLUMNS):
        raise ParseError("telemetry rows have the wrong shape")
    n = len(table)
    # the trailing -inf is never a violation nor the worst of a checked tick:
    # a one-row run, with no tick to check, reports it at t[0]
    excess = np.full(n, -np.inf)
    mass = np.asarray(scenario.mass)[None, :]
    storage = np.array([[scenario.tank_impedance.s0, scenario.tank_force.s0]])  # before the block
    for start in range(0, n - 1, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, n - 1)
        twist = table[start : stop + 1, _TWIST]  # tick k also reads row k + 1
        ke = 0.5 * np.sum(twist * twist * mass, axis=1)
        rot = quaternion_to_rotation(table[start:stop, _QUAT])  # turns the force and the torque to the base
        f_base = np.einsum("nij,nkj->nki", rot, table[start:stop, _F_EE].reshape(-1, 2, 3)).reshape(-1, 6)
        s_tanks = np.concatenate([storage, table[start:stop, _TANKS]])
        storage, ds = s_tanks[-1:], np.diff(s_tanks, axis=0)
        v_mid = 0.5 * (twist[:-1] + twist[1:])
        supplied = np.sum(v_mid * f_base, axis=1) * scenario.dt_control
        excess[start:stop] = ((ke[1:] - ke[:-1]) + ds[:, 0] + ds[:, 1]) - supplied

    viol = excess > AUDIT_TOL
    worst_idx = int(np.argmax(excess))
    return AuditReport(
        ticks_checked=n - 1,
        violation_count=int(viol.sum()),
        worst_violation=float(excess[worst_idx]),
        worst_time=float(table[worst_idx, COLUMNS.index("t")]),
    )
