"""Virtual energy tanks and the numerical passivity audit.

Each tank is a scalar storage exchanging power with its controller through a
power-preserving interconnection: the valve sigma gates energy withdrawal
(zero once the tank is depleted to its lower limit), the gate beta stops
refilling at the upper limit. The tank energy is integrated directly from
the port powers so the per-tick bookkeeping is exact, then clamped to the
configured band; x_t is recovered as sqrt(2 S). The loop evaluates the
gates once per tick, from the pre-step energies, and hands the same values
to the command and to both tank steps.

The audit replays a telemetry log and checks, tick by tick, that the total
storage (kinetic energy plus both tanks) never grows faster than the power
supplied through the contact, within a small discretization tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class AuditError(ValueError):
    """Telemetry log is missing columns the audit needs."""


@dataclass(frozen=True)
class TankState:
    x_t: float
    s_upper: float
    s_lower: float
    ramp_eps: float = 0.2  # J, width of the sigma/beta transition ramps

    def __post_init__(self):
        if self.s_lower < 0.0 or self.s_upper <= self.s_lower:
            raise ValueError("need 0 <= s_lower < s_upper")
        if self.ramp_eps <= 0.0:
            raise ValueError("ramp_eps must be positive")

    @property
    def energy(self) -> float:
        return 0.5 * self.x_t * self.x_t


def lambda_selector(x_dot: np.ndarray, f_f: np.ndarray) -> int:
    """1 iff the force wrench extracts energy (x_dot . f_f < 0), else 0."""
    return 1 if float(x_dot @ f_f) < 0.0 else 0


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


def _integrate_energy(tank: TankState, power: float, dt: float) -> TankState:
    # Euler on S keeps the power ledger exact; the clamp can only discard.
    s_new = tank.energy + power * dt
    s_new = min(max(s_new, tank.s_lower), tank.s_upper)
    return TankState(float(np.sqrt(2.0 * s_new)), tank.s_upper, tank.s_lower, tank.ramp_eps)


def force_tank_step(
    tank: TankState, x_dot: np.ndarray, f_f: np.ndarray, sigma: float, beta: float, dt: float
) -> TankState:
    """Force-controller tank step with the tick's gates sigma and beta.

    Refills (through beta) with the extracted force power while the force
    demand is passive; pays the injected force power (through sigma) while
    the demand is active. The damper power belongs to the impedance tank.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    assert tank.x_t > 0.0, "force tank state must stay positive"
    lam = lambda_selector(x_dot, f_f)
    p_force = float(x_dot @ f_f)
    power = lam * beta * -p_force - sigma * (1 - lam) * p_force
    return _integrate_energy(tank, power, dt)


def impedance_tank_step(
    tank: TankState,
    x_dot: np.ndarray,
    x_tilde: np.ndarray,
    d_c: np.ndarray,
    k_var: np.ndarray,
    sigma: float,
    beta: float,
    dt: float,
) -> TankState:
    """Variable-stiffness tank step with the tick's gates sigma and beta.

    Harvests the damper dissipation (through beta) and exchanges the
    variable-spring power through the valve that also gates the spring in
    the control law.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    assert tank.x_t > 0.0, "impedance tank state must stay positive"
    p_damp = float(x_dot @ d_c @ x_dot)
    p_spring = float(x_tilde @ k_var.T @ x_dot)
    power = beta * p_damp + sigma * p_spring
    return _integrate_energy(tank, power, dt)


@dataclass(frozen=True)
class AuditReport:
    ticks_checked: int
    violation_count: int
    worst_violation: float  # J, max of (delta storage - supplied work)
    worst_time: float  # s
    tol: float

    @property
    def ok(self) -> bool:
        return self.violation_count == 0


_REQUIRED_AUDIT_COLUMNS = (
    ["qw", "qx", "qy", "qz"]
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
    tol_tick: float = 1e-4,
) -> AuditReport:
    """Check discrete passivity of a run from its telemetry columns.

    Per tick: [KE(k+1) - KE(k)] + [S_tanks(k) - S_tanks(k-1)] must not exceed
    the contact work (midpoint twist dotted with the external wrench, which
    is the exact work done on the semi-implicit plant) by more than tol_tick.
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

    viol = excess > tol_tick
    worst_idx = int(np.argmax(excess))
    t = columns.get("t")
    worst_time = float(t[worst_idx]) if t is not None else worst_idx * dt
    return AuditReport(
        ticks_checked=n - 1,
        violation_count=int(viol.sum()),
        worst_violation=float(excess[worst_idx]),
        worst_time=worst_time,
        tol=tol_tick,
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
